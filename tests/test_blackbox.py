"""Tests for the J&K black-box model extraction (repro.flow.blackbox)."""

import numpy as np
import pytest

from repro.flow.blackbox import (
    BlackBoxFrontend,
    extract_blackbox,
)
from repro.rf.cascade import friis_noise_figure_db, frontend_stages
from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
from repro.rf.signal import Signal, dbm_to_watts


@pytest.fixture(scope="module")
def surrogate():
    return extract_blackbox(FrontendConfig(), rng=np.random.default_rng(0))


class TestExtraction:
    def test_noise_figure_close_to_friis(self, surrogate):
        measured = surrogate.characterization.noise_figure_db
        friis = friis_noise_figure_db(frontend_stages(FrontendConfig()))
        # Flicker noise and DC add a little on top of the Friis cascade.
        assert friis - 0.5 < measured < friis + 2.0

    def test_enb_matches_channel_filter(self, surrogate):
        enb = surrogate.characterization.equivalent_noise_bandwidth_hz
        # 2 x 8.6 MHz Chebyshev edges (envelope) with some ripple/rolloff.
        assert 14e6 < enb < 19e6

    def test_compression_captured_in_lut(self, surrogate):
        gains = surrogate.characterization.complex_gain
        drop_db = 20 * np.log10(abs(gains[-1] / gains[0]))
        assert drop_db < -0.5  # the -20 dBm drive is past the LNA's P1dB

    def test_response_is_bandpass_with_dc_notch(self, surrogate):
        c = surrogate.characterization
        order = np.argsort(np.abs(c.freqs_hz))
        at_dc = np.abs(c.response[order[0]])      # exactly 0 Hz
        near_dc = np.abs(c.response[order[1]])    # first off-DC point
        edge = np.abs(c.response[np.argmax(c.freqs_hz)])
        # The inter-stage high-pass notches DC; the passband is flat; the
        # channel filter rolls off at the band edge.
        assert at_dc < 0.1
        assert near_dc > 0.7
        assert edge < near_dc

    def test_dc_offset_small_after_hpf(self, surrogate):
        dc_power = abs(surrogate.characterization.dc_offset) ** 2
        # The structural HPF suppresses the -45 dBm self-mixing product.
        assert dc_power < dbm_to_watts(-60.0)


class TestSurrogateBehavior:
    def _tone(self, power_dbm, f=1e6, n=8192):
        t = np.arange(n) / 80e6
        return Signal(
            np.sqrt(dbm_to_watts(power_dbm)) * np.exp(2j * np.pi * f * t),
            80e6,
            5.2e9,
        )

    def test_interface_and_rates(self, surrogate):
        out = surrogate.process(self._tone(-60.0), np.random.default_rng(1))
        assert out.sample_rate == pytest.approx(20e6)

    def test_wrong_rate_rejected(self, surrogate):
        with pytest.raises(ValueError):
            surrogate.process(Signal(np.zeros(100, complex), 20e6, 5.2e9))

    def test_output_leveled_like_agc(self, surrogate):
        for level in (-80.0, -60.0, -40.0):
            out = surrogate.process(
                self._tone(level), np.random.default_rng(2)
            )
            assert out.power_dbm() == pytest.approx(-12.0, abs=1.5)

    def test_matches_structural_model_ber(self):
        """The surrogate's BER waterfall tracks the full model within ~1 dB."""
        from repro.channel.awgn import AwgnChannel
        from repro.dsp.receiver import Receiver, RxConfig
        from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu

        cfg = FrontendConfig()
        surrogate = extract_blackbox(cfg, rng=np.random.default_rng(3))
        full = DoubleConversionReceiver(cfg)

        def ber(block, level, n_pkts=4, seed=11):
            rng = np.random.default_rng(seed)
            errors, bits = 0.0, 0
            for _ in range(n_pkts):
                psdu = random_psdu(60, rng)
                wave = Transmitter(
                    TxConfig(rate_mbps=24, oversample=4)
                ).transmit(psdu)
                sig = Signal(
                    np.concatenate(
                        [np.zeros(600, complex), wave, np.zeros(600, complex)]
                    ),
                    80e6,
                    5.2e9,
                ).scaled_to_dbm(level)
                sig = AwgnChannel(include_thermal_floor=True).process(sig, rng)
                out = block.process(sig, rng)
                res = Receiver(RxConfig()).receive(
                    out.samples / np.sqrt(out.power_watts())
                )
                bits += 480
                if res.success and res.psdu.size == 60:
                    errors += int(np.unpackbits(res.psdu ^ psdu).sum())
                else:
                    errors += 240
            return errors / bits

        # Comfortable operating point: both must be clean.
        assert ber(full, -70.0) == 0.0
        assert ber(surrogate, -70.0) == 0.0
        # Deep in the waterfall: both must fail significantly.
        assert ber(full, -95.0) > 0.2
        assert ber(surrogate, -95.0) > 0.2

    def test_nonlinearity_lut_compresses_large_signals(self, surrogate):
        amp_small = np.array([surrogate._lut_amp_in[0]], dtype=complex)
        amp_large = np.array([surrogate._lut_amp_in[-1]], dtype=complex)
        g_small = abs(surrogate._apply_nonlinearity(amp_small)[0]) / abs(amp_small[0])
        g_large = abs(surrogate._apply_nonlinearity(amp_large)[0]) / abs(amp_large[0])
        assert g_large < g_small
