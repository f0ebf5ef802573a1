"""Tests for channel models (repro.channel)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.channel.awgn import AwgnChannel, ebn0_to_snr_db, snr_to_ebn0_db
from repro.channel.fading import (
    FadingChannel,
    exponential_power_delay_profile,
)
from repro.channel.interference import (
    ADJACENT_EXCESS_DB,
    InterferenceScenario,
    NON_ADJACENT_EXCESS_DB,
)
from repro.dsp.params import RATES
from repro.rf.noise import thermal_noise_power
from repro.rf.signal import Signal
from repro.scenario import WlanEmitter


class TestAwgn:
    def test_snr_accuracy(self):
        rng = np.random.default_rng(0)
        x = np.ones(100_000, dtype=complex)
        out = AwgnChannel(snr_db=10.0).process(Signal(x, 20e6), rng)
        noise = out.samples - x
        snr = 10 * np.log10(1.0 / np.mean(np.abs(noise) ** 2))
        assert snr == pytest.approx(10.0, abs=0.1)

    def test_thermal_floor_level(self):
        rng = np.random.default_rng(1)
        silence = Signal(np.zeros(100_000, complex), 20e6)
        out = AwgnChannel(include_thermal_floor=True).process(silence, rng)
        assert out.power_watts() == pytest.approx(
            thermal_noise_power(20e6), rel=0.05
        )

    def test_no_noise_configured(self):
        rng = np.random.default_rng(2)
        x = np.ones(100, dtype=complex)
        out = AwgnChannel().process(Signal(x, 20e6), rng)
        assert np.allclose(out.samples, x)

    def test_ebn0_snr_roundtrip(self):
        for mbps in RATES:
            r = RATES[mbps]
            assert snr_to_ebn0_db(ebn0_to_snr_db(7.0, r), r) == pytest.approx(7.0)

    def test_higher_rate_needs_less_snr_per_eb(self):
        # More data bits per symbol -> same Eb/N0 maps to higher SNR.
        assert ebn0_to_snr_db(10.0, RATES[54]) > ebn0_to_snr_db(10.0, RATES[6])


class TestFading:
    def test_pdp_normalized(self):
        p = exponential_power_delay_profile(100e-9, 20e6)
        assert p.sum() == pytest.approx(1.0)
        assert (np.diff(p) < 0).all()

    def test_zero_spread_single_tap(self):
        p = exponential_power_delay_profile(0.0, 20e6)
        assert p.size == 1

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            exponential_power_delay_profile(-1e-9, 20e6)

    def test_realization_unit_average_power(self):
        ch = FadingChannel(rms_delay_spread_s=100e-9)
        rng = np.random.default_rng(3)
        taps = ch.realize(20e6, rng)
        assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0)

    def test_realizations_differ(self):
        ch = FadingChannel()
        rng = np.random.default_rng(4)
        a = ch.realize(20e6, rng)
        b = ch.realize(20e6, rng)
        assert not np.allclose(a, b)

    def test_rician_los_dominates(self):
        ch = FadingChannel(rms_delay_spread_s=50e-9, rice_factor_db=20.0)
        rng = np.random.default_rng(5)
        taps = ch.realize(20e6, rng)
        assert np.abs(taps[0]) ** 2 > 0.4

    def test_process_preserves_length(self):
        ch = FadingChannel()
        rng = np.random.default_rng(6)
        sig = Signal(np.ones(500, complex), 20e6)
        out = ch.process(sig, rng)
        assert out.samples.size == 500


@pytest.mark.parametrize("statement", [
    "import repro.channel.interference",
    "import repro.scenario",
])
def test_import_first_in_fresh_interpreter(statement):
    """``repro.channel`` and ``repro.scenario`` import in either order."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", statement],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


class TestInterference:
    def test_standard_excess_levels(self):
        assert ADJACENT_EXCESS_DB == 16.0
        assert NON_ADJACENT_EXCESS_DB == 32.0

    def test_offset_hz(self):
        assert WlanEmitter(offset_channels=1).offset_hz == 20e6
        assert WlanEmitter(offset_channels=-2).offset_hz == -40e6

    def test_generated_power_level(self):
        rng = np.random.default_rng(7)
        src = WlanEmitter(offset_channels=1, excess_db=16.0,
                          timing_jitter_samples=0)
        wanted_power = 1e-7
        sig = src.generate(40000, 80e6, wanted_power, rng)
        measured = np.mean(np.abs(sig.samples[sig.samples != 0]) ** 2)
        assert 10 * np.log10(measured / wanted_power) == pytest.approx(16.0, abs=1.0)

    def test_spectrum_centered_at_offset(self):
        rng = np.random.default_rng(8)
        src = WlanEmitter(offset_channels=1)
        sig = src.generate(32768, 80e6, 1e-6, rng)
        spec = np.abs(np.fft.fft(sig.samples)) ** 2
        freqs = np.fft.fftfreq(sig.samples.size, 1 / 80e6)
        centroid = np.sum(freqs * spec) / np.sum(spec)
        assert centroid == pytest.approx(20e6, abs=2e6)

    def test_insufficient_sample_rate_rejected(self):
        rng = np.random.default_rng(9)
        src = WlanEmitter(offset_channels=2)
        with pytest.raises(ValueError):
            src.generate(1000, 80e6, 1e-6, rng)

    def test_scenario_none_is_noop(self):
        rng = np.random.default_rng(10)
        sig = Signal(np.ones(100, complex), 80e6)
        out = InterferenceScenario.none().apply(sig, rng)
        assert np.allclose(out.samples, sig.samples)

    def test_scenario_adjacent_adds_power(self):
        rng = np.random.default_rng(11)
        sig = Signal(np.full(20000, 1e-4 + 0j), 80e6)
        out = InterferenceScenario.adjacent().apply(sig, rng)
        assert out.power_watts() > 5 * sig.power_watts()

    def test_scenario_factories(self):
        adj = InterferenceScenario.adjacent()
        non = InterferenceScenario.non_adjacent()
        assert adj.emitters[0].offset_channels == 1
        assert adj.emitters[0].excess_db == 16.0
        assert non.emitters[0].offset_channels == 2
        assert non.emitters[0].excess_db == 32.0
