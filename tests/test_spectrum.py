"""Tests for spectral measurements (repro.spectrum.psd)."""

import numpy as np
import pytest

from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.rf.signal import Signal
from repro.spectrum.psd import (
    adjacent_channel_power_ratio_db,
    band_power_dbm,
    check_transmit_mask,
    occupied_bandwidth_hz,
    transmit_mask_802_11a_dbr,
    welch_psd,
)


def _tone(power_w, f, fs=80e6, n=32768):
    t = np.arange(n) / fs
    return Signal(np.sqrt(power_w) * np.exp(2j * np.pi * f * t), fs)


class TestWelchPsd:
    def test_parseval_total_power(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
        sig = Signal(x, 20e6)
        psd = welch_psd(sig)
        integrate = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        integrated = integrate(psd.psd_w_hz, psd.freqs_hz)
        assert integrated == pytest.approx(sig.power_watts(), rel=0.05)

    def test_tone_location(self):
        psd = welch_psd(_tone(1e-3, 5e6), nperseg=4096)
        peak = psd.freqs_hz[np.argmax(psd.psd_w_hz)]
        assert peak == pytest.approx(5e6, abs=80e6 / 4096)

    def test_axis_sorted(self):
        psd = welch_psd(_tone(1e-3, 1e6))
        assert (np.diff(psd.freqs_hz) > 0).all()

    def test_absolute_freqs(self):
        sig = _tone(1e-3, 0.0)
        sig.carrier_frequency = 5.2e9
        psd = welch_psd(sig)
        assert psd.absolute_freqs_hz[0] == pytest.approx(
            5.2e9 + psd.freqs_hz[0]
        )

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(Signal(np.zeros(4, complex), 20e6))

    def test_band_power(self):
        psd = welch_psd(_tone(2e-3, 5e6), nperseg=4096)
        inside = psd.band_power_watts(4e6, 6e6)
        outside = psd.band_power_watts(-6e6, -4e6)
        assert inside == pytest.approx(2e-3, rel=0.1)
        assert outside < inside * 1e-6

    def test_band_power_validation(self):
        psd = welch_psd(_tone(1e-3, 1e6))
        with pytest.raises(ValueError):
            psd.band_power_watts(5e6, 1e6)


class TestMeasurements:
    def test_band_power_dbm_helper(self):
        assert band_power_dbm(_tone(1e-3, 2e6), 1e6, 3e6) == pytest.approx(
            0.0, abs=0.5
        )

    def test_occupied_bandwidth_of_ofdm(self):
        rng = np.random.default_rng(1)
        wave = Transmitter(TxConfig(rate_mbps=24)).transmit(
            random_psdu(500, rng)
        )
        bw = occupied_bandwidth_hz(Signal(wave, 20e6), 0.99)
        # 52 carriers x 312.5 kHz = 16.25 MHz nominal.
        assert 14e6 < bw < 18.5e6

    def test_occupied_bandwidth_validation(self):
        with pytest.raises(ValueError):
            occupied_bandwidth_hz(_tone(1e-3, 0.0), 1.5)

    def test_acpr_of_clean_signal(self):
        rng = np.random.default_rng(2)
        wave = Transmitter(TxConfig(rate_mbps=24, oversample=4)).transmit(
            random_psdu(400, rng)
        )
        lower, upper = adjacent_channel_power_ratio_db(Signal(wave, 80e6))
        assert lower < -25.0
        assert upper < -25.0

    def test_acpr_sees_interferer(self):
        rng = np.random.default_rng(3)
        from repro.scenario import WlanEmitter

        wave = Transmitter(TxConfig(rate_mbps=24, oversample=4)).transmit(
            random_psdu(200, rng)
        )
        sig = Signal(wave, 80e6)
        interferer = WlanEmitter(excess_db=16.0).generate(
            wave.size, 80e6, sig.power_watts(), rng
        )
        combined = sig.with_samples(sig.samples + interferer.samples)
        _, upper = adjacent_channel_power_ratio_db(combined)
        assert upper > 5.0  # the adjacent channel is ~16 dB hotter


class TestTransmitMask:
    def test_breakpoints(self):
        assert transmit_mask_802_11a_dbr(np.array([0.0]))[0] == 0.0
        assert transmit_mask_802_11a_dbr(np.array([11e6]))[0] == pytest.approx(-20.0)
        assert transmit_mask_802_11a_dbr(np.array([20e6]))[0] == pytest.approx(-28.0)
        assert transmit_mask_802_11a_dbr(np.array([40e6]))[0] == pytest.approx(-40.0)

    def test_symmetric(self):
        m = transmit_mask_802_11a_dbr(np.array([-15e6, 15e6]))
        assert m[0] == m[1]

    def test_shaped_tx_passes(self):
        rng = np.random.default_rng(4)
        wave = Transmitter(TxConfig(rate_mbps=36, oversample=4)).transmit(
            random_psdu(400, rng)
        )
        passes, margin = check_transmit_mask(Signal(wave, 80e6))
        assert passes
        assert margin >= 0.0

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            check_transmit_mask(Signal(np.zeros(4096, complex), 80e6))
