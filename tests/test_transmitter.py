"""Tests for the 802.11a transmitter (repro.dsp.transmitter)."""

import numpy as np
import pytest

from repro.dsp.params import N_SYMBOL, RATES, symbols_for_psdu
from repro.dsp.preamble import PREAMBLE_LENGTH
from repro.dsp.receiver import RxConfig
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu


class TestWaveformStructure:
    @pytest.mark.parametrize("mbps", sorted(RATES))
    def test_length(self, mbps):
        tx = Transmitter(TxConfig(rate_mbps=mbps))
        psdu = np.zeros(100, dtype=np.uint8)
        wave = tx.transmit(psdu)
        n_sym = symbols_for_psdu(100, RATES[mbps])
        assert wave.size == PREAMBLE_LENGTH + N_SYMBOL + n_sym * N_SYMBOL

    def test_oversampled_length(self):
        tx = Transmitter(TxConfig(rate_mbps=24, oversample=4))
        wave = tx.transmit(np.zeros(50, dtype=np.uint8))
        base = Transmitter(TxConfig(rate_mbps=24)).transmit(
            np.zeros(50, dtype=np.uint8)
        )
        assert wave.size == 4 * base.size

    def test_preamble_always_identical(self):
        a = Transmitter(TxConfig(rate_mbps=6)).transmit(
            np.arange(10, dtype=np.uint8)
        )
        b = Transmitter(TxConfig(rate_mbps=54)).transmit(
            np.arange(30, dtype=np.uint8)
        )
        assert np.allclose(a[:PREAMBLE_LENGTH], b[:PREAMBLE_LENGTH])

    def test_unit_average_power(self):
        tx = Transmitter(TxConfig(rate_mbps=36))
        wave = tx.transmit(random_psdu(300, np.random.default_rng(0)))
        assert np.mean(np.abs(wave) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_papr_reasonable_for_ofdm(self):
        tx = Transmitter(TxConfig(rate_mbps=54))
        wave = tx.transmit(random_psdu(500, np.random.default_rng(1)))
        papr = np.max(np.abs(wave) ** 2) / np.mean(np.abs(wave) ** 2)
        assert 4.0 < papr < 50.0  # 6..17 dB typical


class TestDataFieldBits:
    def test_bit_count_is_padded(self):
        tx = Transmitter(TxConfig(rate_mbps=24))
        bits = tx.data_field_bits(np.zeros(57, dtype=np.uint8))
        assert bits.size % RATES[24].n_dbps == 0

    def test_tail_bits_zero_after_scrambling(self):
        tx = Transmitter(TxConfig(rate_mbps=6))
        psdu = random_psdu(40, np.random.default_rng(2))
        bits = tx.data_field_bits(psdu)
        tail_start = 16 + 8 * 40
        assert not bits[tail_start : tail_start + 6].any()

    def test_scrambling_changes_bits(self):
        tx = Transmitter(TxConfig(rate_mbps=6))
        zeros = np.zeros(100, dtype=np.uint8)
        bits = tx.data_field_bits(zeros)
        # Scrambled zeros are the scrambler sequence: non-trivial.
        assert bits[:16].any() or bits[16:100].any()

    def test_seed_changes_output(self):
        psdu = np.zeros(20, dtype=np.uint8)
        a = Transmitter(TxConfig(rate_mbps=6, scrambler_seed=1)).transmit(psdu)
        b = Transmitter(TxConfig(rate_mbps=6, scrambler_seed=2)).transmit(psdu)
        assert not np.allclose(a, b)


class TestSpectralProperties:
    def test_spectral_mask_with_shaping(self):
        from repro.rf.signal import Signal
        from repro.spectrum.psd import check_transmit_mask

        tx = Transmitter(TxConfig(rate_mbps=24, oversample=4))
        wave = tx.transmit(random_psdu(400, np.random.default_rng(3)))
        passes, margin = check_transmit_mask(Signal(wave, 80e6))
        assert passes, f"mask violated by {-margin:.1f} dB"

    def test_unshaped_spectrum_wider(self):
        from repro.rf.signal import Signal
        from repro.spectrum.psd import occupied_bandwidth_hz

        rng = np.random.default_rng(4)
        psdu = random_psdu(300, rng)
        shaped = Transmitter(
            TxConfig(rate_mbps=24, oversample=4, spectral_shaping=True)
        ).transmit(psdu)
        raw = Transmitter(
            TxConfig(rate_mbps=24, oversample=4, spectral_shaping=False)
        ).transmit(psdu)
        bw_shaped = occupied_bandwidth_hz(Signal(shaped, 80e6), 0.999)
        bw_raw = occupied_bandwidth_hz(Signal(raw, 80e6), 0.999)
        assert bw_shaped < bw_raw


class TestValidation:
    @pytest.mark.parametrize("config, kwargs, match", [
        (TxConfig, {"rate_mbps": 11}, "data rate"),
        (TxConfig, {"oversample": 0}, "oversample"),
        (TxConfig, {"scrambler_seed": 0}, "scrambler seed"),
        (TxConfig, {"scrambler_seed": 128}, "scrambler seed"),
        (RxConfig, {"scrambler_seed": 0}, "scrambler seed"),
        (RxConfig, {"genie_rate_mbps": 11}, "genie_rate_mbps"),
    ])
    def test_bad_config_raises_when_built(self, config, kwargs, match):
        with pytest.raises(ValueError, match=match):
            config(**kwargs)

    def test_unsupported_rate(self):
        with pytest.raises(ValueError):
            Transmitter(TxConfig(rate_mbps=11))

    def test_bad_oversample(self):
        with pytest.raises(ValueError):
            Transmitter(TxConfig(oversample=0))

    def test_oversized_psdu(self):
        tx = Transmitter(TxConfig())
        with pytest.raises(ValueError):
            tx.transmit(np.zeros(4096, dtype=np.uint8))

    def test_random_psdu_properties(self):
        rng = np.random.default_rng(5)
        psdu = random_psdu(64, rng)
        assert psdu.dtype == np.uint8
        assert psdu.size == 64
        with pytest.raises(ValueError):
            random_psdu(0, rng)
