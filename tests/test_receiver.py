"""End-to-end receiver tests (repro.dsp.receiver)."""

import hashlib

import numpy as np
import pytest

from repro.dsp.params import RATES
from repro.dsp.receiver import Receiver, RxConfig, ideal_receiver_config
from repro.dsp.synchronization import apply_cfo
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu


def _loopback(rate, psdu, pad=200, snr_db=None, cfo_hz=0.0, rx_config=None, seed=0):
    rng = np.random.default_rng(20261039)
    wave = Transmitter(TxConfig(rate_mbps=rate)).transmit(psdu)
    samples = np.concatenate(
        [np.zeros(pad, complex), wave, np.zeros(120, complex)]
    )
    if cfo_hz:
        samples = apply_cfo(samples, cfo_hz)
    if snr_db is not None:
        p = 10.0 ** (-snr_db / 10.0)
        samples = samples + np.sqrt(p / 2) * (
            rng.standard_normal(samples.size)
            + 1j * rng.standard_normal(samples.size)
        )
    return Receiver(rx_config or RxConfig()).receive(samples)


class TestNoiselessLoopback:
    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_all_rates(self, mbps):
        rng = np.random.default_rng(mbps)
        psdu = random_psdu(120, rng)
        result = _loopback(mbps, psdu)
        assert result.success
        assert result.rate.data_rate_mbps == mbps
        assert result.length_bytes == psdu.size
        assert np.array_equal(result.psdu, psdu)

    @pytest.mark.parametrize("n_bytes", [1, 13, 255, 1000])
    def test_payload_sizes(self, n_bytes):
        rng = np.random.default_rng(n_bytes)
        psdu = random_psdu(n_bytes, rng)
        result = _loopback(24, psdu)
        assert result.success
        assert np.array_equal(result.psdu, psdu)

    def test_genie_path(self):
        rng = np.random.default_rng(1)
        psdu = random_psdu(80, rng)
        wave = Transmitter(TxConfig(rate_mbps=54)).transmit(psdu)
        cfg = RxConfig(genie_timing=True, genie_cfo=True)
        result = Receiver(cfg).receive(wave)
        assert result.success
        assert np.array_equal(result.psdu, psdu)

    def test_ideal_receiver_config(self):
        cfg = ideal_receiver_config(24, 77)
        rng = np.random.default_rng(2)
        psdu = random_psdu(77, rng)
        wave = Transmitter(TxConfig(rate_mbps=24)).transmit(psdu)
        result = Receiver(cfg).receive(wave)
        assert result.success
        assert np.array_equal(result.psdu, psdu)
        assert result.data_symbols is not None


class TestImpairedReception:
    def test_awgn_20db(self):
        rng = np.random.default_rng(3)
        psdu = random_psdu(100, rng)
        result = _loopback(24, psdu, snr_db=20.0, seed=3)
        assert result.success
        assert np.array_equal(result.psdu, psdu)

    def test_cfo_at_spec_limit(self):
        # +/-20 ppm at 5.2 GHz on both sides: up to ~208 kHz total.
        rng = np.random.default_rng(4)
        psdu = random_psdu(100, rng)
        result = _loopback(24, psdu, snr_db=25.0, cfo_hz=208e3, seed=4)
        assert result.success
        assert np.array_equal(result.psdu, psdu)
        assert result.cfo_hz == pytest.approx(208e3, abs=3e3)

    def test_low_snr_fails_gracefully(self):
        rng = np.random.default_rng(5)
        psdu = random_psdu(100, rng)
        result = _loopback(54, psdu, snr_db=-3.0, seed=5)
        # Either not detected or decoded with errors; never an exception.
        if result.success:
            assert not np.array_equal(result.psdu, psdu)

    def test_multipath_with_equalizer(self):
        rng = np.random.default_rng(6)
        psdu = random_psdu(60, rng)
        wave = Transmitter(TxConfig(rate_mbps=12)).transmit(psdu)
        taps = np.array([1.0, 0.0, 0.35 * np.exp(1j), 0.0, 0.1])
        faded = np.convolve(wave, taps)
        samples = np.concatenate([np.zeros(150, complex), faded])
        p = 10.0 ** (-25.0 / 10.0)
        samples = samples + np.sqrt(p / 2) * (
            rng.standard_normal(samples.size)
            + 1j * rng.standard_normal(samples.size)
        )
        result = Receiver(RxConfig()).receive(samples)
        assert result.success
        assert np.array_equal(result.psdu, psdu)


class TestFailureModes:
    def test_pure_noise(self):
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        result = Receiver(RxConfig()).receive(noise)
        assert not result.success
        assert result.failure

    def test_truncated_packet(self):
        rng = np.random.default_rng(8)
        psdu = random_psdu(500, rng)
        wave = Transmitter(TxConfig(rate_mbps=6)).transmit(psdu)
        cut = np.concatenate([np.zeros(150, complex), wave[: wave.size // 2]])
        result = Receiver(RxConfig()).receive(cut)
        assert not result.success

    def test_genie_requires_length(self):
        cfg = RxConfig(genie_rate_mbps=24)
        wave = Transmitter(TxConfig(rate_mbps=24)).transmit(
            np.zeros(10, dtype=np.uint8)
        )
        result = Receiver(cfg).receive(wave)
        assert not result.success
        assert "genie" in result.failure

    def test_soft_vs_hard_decision(self):
        rng = np.random.default_rng(9)
        psdu = random_psdu(100, rng)
        soft = _loopback(
            36, psdu, snr_db=17.0, seed=9, rx_config=RxConfig(soft_decision=True)
        )
        hard = _loopback(
            36, psdu, snr_db=17.0, seed=9, rx_config=RxConfig(soft_decision=False)
        )
        def errors(res):
            if not res.success or res.psdu.size != psdu.size:
                return psdu.size * 8
            return int(np.unpackbits(res.psdu ^ psdu).sum())
        assert errors(soft) <= errors(hard)

    def test_data_symbols_exposed(self):
        rng = np.random.default_rng(10)
        psdu = random_psdu(64, rng)
        result = _loopback(24, psdu)
        assert result.data_symbols is not None
        assert result.data_symbols.shape[1] == 48


# ----------------------------------------------------------------------
# Frozen receiver outcomes
# ----------------------------------------------------------------------

#: Length of every row of the frozen stack (a 6 Mb/s, 80-byte PPDU is
#: 2640 samples, so every packet fits unless it is placed to be cut).
_STACK_SAMPLES = 3200
_STACK_SNRS_DB = (2.0, 6.0, 10.0, 25.0)


def _frozen_stack():
    """24 faded, CFO-shifted packets at SNR 2/6/10/25 dB, one per row.

    Rates cycle through all eight; every sixth packet is placed so that
    only its preamble, SIGNAL and a few DATA symbols fit in the row.
    """
    rng = np.random.default_rng(20261039)
    rates = sorted(RATES)
    rows = np.zeros((24, _STACK_SAMPLES), dtype=complex)
    for k in range(24):
        rate = rates[(3 * k) % len(rates)]
        psdu = random_psdu(int(rng.integers(20, 81)), rng)
        wave = Transmitter(TxConfig(rate_mbps=rate)).transmit(psdu)
        taps = np.zeros(5, dtype=complex)
        taps[0] = 1.0
        delays = rng.choice(np.arange(1, 5), size=2, replace=False)
        taps[delays] = 0.9 * rng.random(2) * np.exp(2j * np.pi * rng.random(2))
        faded = np.convolve(wave, taps / np.linalg.norm(taps))
        if k % 6 == 5:
            offset = _STACK_SAMPLES - 560
        else:
            offset = int(rng.integers(0, _STACK_SAMPLES - faded.size))
        end = min(offset + faded.size, _STACK_SAMPLES)
        rows[k, offset:end] = faded[: end - offset]
        rows[k] = apply_cfo(rows[k], float(rng.uniform(-150e3, 150e3)))
        noise_power = 10.0 ** (-_STACK_SNRS_DB[k % 4] / 10.0)
        rows[k] += np.sqrt(noise_power / 2.0) * (
            rng.standard_normal(_STACK_SAMPLES)
            + 1j * rng.standard_normal(_STACK_SAMPLES)
        )
    return rows


def _result_digest(results) -> str:
    """sha256 over every field of a list of :class:`RxResult`."""
    h = hashlib.sha256()
    for r in results:
        rate = None if r.rate is None else r.rate.data_rate_mbps
        h.update(
            f"{r.success}|{r.failure}|{rate}|{r.length_bytes}|"
            f"{r.signal_parity_ok}|{r.packet_start}|"
            f"{r.cfo_hz!r}|{r.noise_var!r}|".encode()
        )
        h.update(np.asarray(r.psdu, dtype=np.uint8).tobytes())
        if r.data_symbols is not None:
            h.update(np.ascontiguousarray(r.data_symbols).tobytes())
    return h.hexdigest()[:16]


_FULL_GENIE = RxConfig(
    genie_timing=True, genie_cfo=True, genie_rate_mbps=24,
    genie_length_bytes=40,
)

#: Digests recorded from the per-packet receiver before it became a
#: batch-of-one wrapper over ``receive_batch``.
FROZEN_RX_DIGESTS = {
    "default": (RxConfig(), "220cb36e1b7b0859"),
    "hard": (RxConfig(soft_decision=False), "8ce8d145f67dd2e2"),
    "mmse": (RxConfig(equalizer="mmse"), "217c38cb5b3b44b9"),
    "smoothing": (RxConfig(channel_smoothing_taps=8), "d7fd60eb63558284"),
    "no-csi": (RxConfig(csi_weighting=False), "de506e583483a099"),
    "full-genie": (_FULL_GENIE, "fc534baf2c528035"),
    "genie-rate-only": (RxConfig(genie_rate_mbps=24), "c4181a4d21d2b51c"),
}


class TestFrozenOutcomes:
    """Every RxResult field over a fixed impaired stack, per RxConfig."""

    @pytest.fixture(scope="class")
    def stack(self):
        return _frozen_stack()

    @pytest.mark.parametrize("variant", sorted(FROZEN_RX_DIGESTS))
    def test_receive_digest(self, stack, variant):
        config, digest = FROZEN_RX_DIGESTS[variant]
        receiver = Receiver(config)
        results = [receiver.receive(row) for row in stack]
        assert _result_digest(results) == digest

    @pytest.mark.parametrize("variant", sorted(FROZEN_RX_DIGESTS))
    def test_receive_batch_digest(self, stack, variant):
        config, digest = FROZEN_RX_DIGESTS[variant]
        assert _result_digest(Receiver(config).receive_batch(stack)) == digest

    def test_stack_covers_every_failure(self, stack):
        failures = {r.failure for r in Receiver().receive_batch(stack)}
        assert {
            "", "packet not detected", "invalid SIGNAL rate field",
            "SIGNAL parity error", "DATA field truncated",
        } <= failures
        genie_rate_only = Receiver(RxConfig(genie_rate_mbps=24))
        assert "genie rate requires genie length" in {
            r.failure for r in genie_rate_only.receive_batch(stack)
        }

    def test_receive_rejects_non_1d_input(self, stack):
        with pytest.raises(ValueError):
            Receiver().receive(stack[:2])
