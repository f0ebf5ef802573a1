"""Tests for RF nonlinearity models (repro.rf.nonlinearity)."""

import numpy as np
import pytest

from repro.rf.nonlinearity import (
    CubicNonlinearity,
    P1DB_IIP3_OFFSET_DB,
    RappNonlinearity,
    iip3_from_p1db,
    p1db_from_iip3,
)
from repro.rf.cascade import StageSpec, cascade_iip3_dbm
from repro.rf.signal import dbm_to_watts


class TestP1dbIip3Relations:
    def test_offset_is_9_6_db(self):
        assert P1DB_IIP3_OFFSET_DB == pytest.approx(9.636, abs=0.01)

    def test_roundtrip(self):
        assert p1db_from_iip3(iip3_from_p1db(-12.0)) == pytest.approx(-12.0)


class TestCubicNonlinearity:
    def test_small_signal_gain(self):
        nl = CubicNonlinearity(gain_db=16.0, iip3_dbm=0.0)
        x = np.full(10, np.sqrt(dbm_to_watts(-60.0)), dtype=complex)
        y = nl.apply(x)
        gain_db = 20 * np.log10(np.abs(y[0] / x[0]))
        assert gain_db == pytest.approx(16.0, abs=0.01)

    def test_exactly_1db_compression_at_p1db(self):
        nl = CubicNonlinearity.from_p1db(gain_db=10.0, p1db_dbm=-10.0)
        a = np.sqrt(dbm_to_watts(-10.0))
        y = nl.apply(np.array([a + 0j]))
        gain_db = 20 * np.log10(abs(y[0]) / a)
        assert gain_db == pytest.approx(9.0, abs=0.01)

    def test_monotone_saturation(self):
        nl = CubicNonlinearity(gain_db=0.0, iip3_dbm=0.0)
        amps = np.sqrt(dbm_to_watts(np.arange(-30.0, 20.0, 1.0)))
        out = np.abs(nl.apply(amps.astype(complex)))
        assert (np.diff(out) >= -1e-12).all()

    def test_phase_preserved(self):
        nl = CubicNonlinearity(gain_db=6.0, iip3_dbm=10.0)
        x = np.sqrt(dbm_to_watts(0.0)) * np.exp(1j * 1.234)
        y = nl.apply(np.array([x]))
        assert np.angle(y[0]) == pytest.approx(1.234, abs=1e-9)

    def test_two_tone_im3_level(self):
        # IM3 relative to fundamental: 2*(P_in - IIP3) per tone.
        nl = CubicNonlinearity(gain_db=0.0, iip3_dbm=10.0)
        fs, n = 80e6, 8000  # 10 kHz bins: all tones bin-aligned
        t = np.arange(n) / fs
        p_in = -20.0
        amp = np.sqrt(dbm_to_watts(p_in))
        f1, f2 = 1e6, 2e6
        x = amp * (np.exp(2j * np.pi * f1 * t) + np.exp(2j * np.pi * f2 * t))
        y = nl.apply(x)
        def bin_power(f):
            c = np.dot(y, np.exp(-2j * np.pi * f * t)) / n
            return 10 * np.log10(abs(c) ** 2 / 1e-3)
        rel = bin_power(2 * f2 - f1) - bin_power(f2)
        assert rel == pytest.approx(2 * (p_in - 10.0), abs=0.5)


class TestRappNonlinearity:
    def test_small_signal_gain(self):
        nl = RappNonlinearity(gain_db=12.0, osat_dbm=10.0)
        x = np.full(4, np.sqrt(dbm_to_watts(-50.0)), dtype=complex)
        y = nl.apply(x)
        assert 20 * np.log10(abs(y[0] / x[0])) == pytest.approx(12.0, abs=0.05)

    def test_output_saturates(self):
        nl = RappNonlinearity(gain_db=0.0, osat_dbm=0.0)
        big = np.array([np.sqrt(dbm_to_watts(40.0)) + 0j])
        y = nl.apply(big)
        assert 10 * np.log10(abs(y[0]) ** 2 / 1e-3) <= 0.01

    def test_p1db_property_consistent(self):
        nl = RappNonlinearity(gain_db=10.0, osat_dbm=5.0, smoothness=2.0)
        p1 = nl.input_p1db_dbm
        a = np.sqrt(dbm_to_watts(p1))
        y = nl.apply(np.array([a + 0j]))
        assert 20 * np.log10(abs(y[0]) / a) == pytest.approx(9.0, abs=0.05)

    def test_am_pm_grows_with_drive(self):
        nl = RappNonlinearity(gain_db=0.0, osat_dbm=0.0, am_pm_deg=10.0)
        small = nl.apply(np.array([np.sqrt(dbm_to_watts(-40.0)) + 0j]))
        large = nl.apply(np.array([np.sqrt(dbm_to_watts(0.0)) + 0j]))
        assert abs(np.angle(small[0])) < np.deg2rad(0.2)
        assert abs(np.angle(large[0])) > np.deg2rad(3.0)

    def test_no_am_pm_keeps_phase(self):
        nl = RappNonlinearity(gain_db=0.0, osat_dbm=0.0, am_pm_deg=0.0)
        x = np.sqrt(dbm_to_watts(-3.0)) * np.exp(0.5j)
        y = nl.apply(np.array([x]))
        assert np.angle(y[0]) == pytest.approx(0.5, abs=1e-9)

    def test_invalid_smoothness(self):
        with pytest.raises(ValueError):
            RappNonlinearity(gain_db=0.0, osat_dbm=0.0, smoothness=0.2)

    def test_zero_input(self):
        nl = RappNonlinearity(gain_db=10.0, osat_dbm=0.0)
        y = nl.apply(np.zeros(5, complex))
        assert not y.any()


def _lineup(*gain_iip3):
    return [
        StageSpec(f"s{i}", g, iip3_dbm=p)
        for i, (g, p) in enumerate(gain_iip3)
    ]


class TestCascadeIip3:
    def test_single_stage(self):
        assert cascade_iip3_dbm(_lineup((10.0, 0.0))) == pytest.approx(0.0)

    def test_second_stage_dominates_with_gain(self):
        # 20 dB gain in front of a 10 dBm-IIP3 stage: cascade ~ -10 dBm.
        total = cascade_iip3_dbm(_lineup((20.0, 100.0), (0.0, 10.0)))
        assert total == pytest.approx(-10.0, abs=0.1)

    def test_cascade_below_best_stage(self):
        total = cascade_iip3_dbm(_lineup((10.0, 0.0), (10.0, 10.0)))
        assert total < 0.0

    def test_empty_cascade(self):
        assert cascade_iip3_dbm([]) == np.inf
