"""Tests for the complex-envelope signal container (repro.rf.signal)."""

import numpy as np
import pytest

from repro.rf.signal import (
    Signal,
    _rotator,
    db_to_amplitude,
    db_to_linear,
    dbm_to_watts,
    watts_to_dbm,
)


class TestConversions:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(-30.0) == pytest.approx(1e-6)

    def test_watts_to_dbm(self):
        assert watts_to_dbm(1e-3) == pytest.approx(0.0)
        assert watts_to_dbm(0.0) == -np.inf

    def test_roundtrip(self):
        for dbm in (-88.0, -23.0, 16.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)

    def test_db_helpers(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_amplitude(20.0) == pytest.approx(10.0)


class TestSignal:
    def test_power_measurement(self):
        s = Signal(np.full(100, np.sqrt(2e-3), dtype=complex), 20e6)
        assert s.power_watts() == pytest.approx(2e-3)
        assert s.power_dbm() == pytest.approx(3.01, abs=0.01)

    def test_scaled_to_dbm(self):
        rng = np.random.default_rng(0)
        s = Signal(rng.standard_normal(1000) + 1j * rng.standard_normal(1000), 20e6)
        scaled = s.scaled_to_dbm(-40.0)
        assert scaled.power_dbm() == pytest.approx(-40.0, abs=1e-9)

    def test_scale_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(10, complex), 20e6).scaled_to_dbm(0.0)

    def test_papr(self):
        x = np.ones(100, dtype=complex)
        x[0] = 2.0
        s = Signal(x, 20e6)
        assert s.papr_db() == pytest.approx(
            10 * np.log10(4.0 / np.mean(np.abs(x) ** 2)), abs=1e-9
        )

    def test_duration_and_time(self):
        s = Signal(np.zeros(200, complex), 20e6)
        assert s.duration == pytest.approx(1e-5)
        assert s.time[1] - s.time[0] == pytest.approx(5e-8)

    def test_frequency_shift(self):
        fs = 80e6
        t = np.arange(4096) / fs
        tone = Signal(np.exp(2j * np.pi * 5e6 * t), fs)
        shifted = tone.shifted(10e6)
        spectrum = np.abs(np.fft.fft(shifted.samples))
        peak_bin = np.argmax(spectrum)
        freq = np.fft.fftfreq(4096, 1 / fs)[peak_bin]
        assert freq == pytest.approx(15e6, abs=fs / 4096)

    def test_shift_preserves_power(self):
        rng = np.random.default_rng(1)
        s = Signal(rng.standard_normal(512) + 1j * rng.standard_normal(512), 80e6)
        assert s.shifted(7e6).power_watts() == pytest.approx(s.power_watts())

    def test_memoized_shift_matches_fresh_rotator(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6120) + 1j * rng.standard_normal(6120)
        x[:4] = [0.0, -0.0, 0.0j, -0.0j]
        s = Signal(x, 120e6)
        for offset in (20e6, -40e6, 0.0, -0.0):
            fresh = x * np.exp(2j * np.pi * offset * s.time)
            for _ in range(2):  # first call fills the memo, second hits it
                out = s.shifted(offset).samples
                assert out.tobytes() == fresh.tobytes()

    def test_memoized_rotator_is_read_only(self):
        s = Signal(np.ones(64, complex), 80e6)
        s.shifted(20e6)
        rotator = _rotator(20e6, 80e6, 64)
        assert not rotator.flags.writeable
        with pytest.raises(ValueError):
            rotator[0] = 0.0
        assert _rotator.cache_info().maxsize is not None

    def test_delay(self):
        s = Signal(np.ones(10, complex), 20e6)
        d = s.delayed(5)
        assert d.samples.size == 15
        assert not d.samples[:5].any()

    def test_add_pads_shorter(self):
        a = Signal(np.ones(5, complex), 20e6)
        b = Signal(np.ones(8, complex), 20e6)
        c = a + b
        assert c.samples.size == 8
        assert np.allclose(c.samples[:5], 2.0)
        assert np.allclose(c.samples[5:], 1.0)

    def test_add_rate_mismatch_rejected(self):
        a = Signal(np.ones(5, complex), 20e6)
        b = Signal(np.ones(5, complex), 40e6)
        with pytest.raises(ValueError):
            a + b

    def test_add_carrier_mismatch_rejected(self):
        a = Signal(np.ones(5, complex), 20e6, 5.2e9)
        b = Signal(np.ones(5, complex), 20e6, 2.4e9)
        with pytest.raises(ValueError):
            a + b

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(4, complex), 0.0)

    def test_empty_signal_power(self):
        s = Signal(np.zeros(0, complex), 20e6)
        assert s.power_watts() == 0.0
        assert s.power_dbm() == -np.inf
