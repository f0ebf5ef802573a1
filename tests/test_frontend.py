"""Tests for the double-conversion receiver (repro.rf.frontend)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.rf.frontend import (
    DoubleConversionReceiver,
    FrontendConfig,
    LO_FREQUENCY,
    ideal_frontend_config,
    spectre_library_config,
    spw_library_config,
)
from repro.rf.signal import Signal, dbm_to_watts


def _rf_tone(power_dbm, f=1e6, fs=80e6, n=16384):
    t = np.arange(n) / fs
    return Signal(
        np.sqrt(dbm_to_watts(power_dbm)) * np.exp(2j * np.pi * f * t),
        fs,
        5.2e9,
    )


class TestConfig:
    def test_lo_is_half_carrier(self):
        assert LO_FREQUENCY == pytest.approx(5.2e9 / 2.0)

    def test_decimation(self):
        assert FrontendConfig().decimation == 4
        assert FrontendConfig(sample_rate_in=120e6).decimation == 6

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            FrontendConfig(sample_rate_in=50e6)

    @pytest.mark.parametrize("field", ["lpf_edge_hz", "hpf_cutoff_hz"])
    @pytest.mark.parametrize("edge", [0.0, -1e6, 40e6, 70e6])
    def test_filter_edge_outside_band_rejected(self, field, edge):
        with pytest.raises(ValueError, match=field):
            FrontendConfig(**{field: edge})

    def test_library_configs(self):
        assert spw_library_config().lna_model == "cubic"
        assert spectre_library_config().lna_model == "rapp"
        assert spectre_library_config().lna_am_pm_deg > 0
        ideal = ideal_frontend_config()
        assert not ideal.noise_enabled
        assert ideal.adc_bits is None

    def test_overrides(self):
        cfg = spw_library_config(lna_p1db_dbm=-30.0)
        assert cfg.lna_p1db_dbm == -30.0

    def test_unknown_lna_model(self):
        with pytest.raises(ValueError):
            DoubleConversionReceiver(FrontendConfig(lna_model="tanh"))


class TestChain:
    def test_stage_names_in_order(self):
        fe = DoubleConversionReceiver(ideal_frontend_config())
        stages = fe.stage_outputs(_rf_tone(-50.0), np.random.default_rng(0))
        names = [name for name, _ in stages]
        assert names == [
            "input", "lna", "mixer1", "mixer2", "hpf", "lpf", "agc", "adc",
        ]

    def test_output_rate_and_carrier(self):
        fe = DoubleConversionReceiver(ideal_frontend_config())
        out = fe.process(_rf_tone(-50.0), np.random.default_rng(0))
        assert out.sample_rate == pytest.approx(20e6)
        assert out.carrier_frequency == pytest.approx(0.0)

    def test_agc_levels_output(self):
        fe = DoubleConversionReceiver(ideal_frontend_config())
        for level in (-80.0, -60.0, -40.0):
            out = fe.process(_rf_tone(level), np.random.default_rng(0))
            assert out.power_dbm() == pytest.approx(
                fe.config.agc_target_dbm, abs=1.5
            )

    def test_wrong_input_rate_rejected(self):
        fe = DoubleConversionReceiver(FrontendConfig())
        with pytest.raises(ValueError):
            fe.process(Signal(np.zeros(100, complex), 20e6, 5.2e9))

    def test_tone_survives_translation(self):
        # A 1 MHz offset RF tone appears at 1 MHz in baseband.
        fe = DoubleConversionReceiver(ideal_frontend_config())
        out = fe.process(_rf_tone(-50.0, f=1e6), np.random.default_rng(0))
        x = out.samples[out.samples.size // 2 :]
        n = x.size
        t = np.arange(n) / 20e6
        corr = abs(np.dot(x, np.exp(-2j * np.pi * 1e6 * t)) / n)
        assert corr**2 > 0.5 * out.power_watts()

    def test_dc_offset_blocked_by_hpf(self):
        cfg = ideal_frontend_config(dc_offset_dbm=-30.0)
        fe = DoubleConversionReceiver(cfg)
        silence = Signal(np.zeros(1 << 15, complex), 80e6, 5.2e9)
        stages = dict(fe.stage_outputs(silence, np.random.default_rng(0)))
        mixer2_dc = np.abs(np.mean(stages["mixer2"].samples))
        hpf_dc = np.abs(np.mean(stages["hpf"].samples[8192:]))
        assert mixer2_dc > 1e-4
        assert hpf_dc < mixer2_dc / 30.0

    def test_noise_toggle(self):
        cfg = FrontendConfig()
        fe = DoubleConversionReceiver(cfg)
        fe.set_noise_enabled(False)
        silence = Signal(np.zeros(4096, complex), 80e6, 5.2e9)
        out = fe.process(silence)
        # AGC amplifies whatever is left; with noise off and no DC, the
        # only content is the (filtered) DC offset.
        fe2 = DoubleConversionReceiver(
            replace(cfg, dc_offset_dbm=None, flicker_power_dbm=None)
        )
        fe2.set_noise_enabled(False)
        out2 = fe2.process(silence)
        assert np.mean(np.abs(out2.samples) ** 2) < 1e-12

    def test_lo_error_appears_as_cfo(self):
        cfg = ideal_frontend_config(lo_error_ppm=5.0)  # 2 x 13 kHz
        fe = DoubleConversionReceiver(cfg)
        out = fe.process(_rf_tone(-50.0, f=0.0, n=32768), np.random.default_rng(0))
        x = out.samples[2000:]
        phase = np.unwrap(np.angle(x))
        slope = (phase[-1] - phase[0]) / ((x.size - 1) / 20e6)
        # Both mixers share the LO: total offset is 2 * 13 kHz = 26 kHz.
        assert slope / (2 * np.pi) == pytest.approx(-26e3, rel=0.05)

    def test_compression_with_hot_input(self):
        cfg = ideal_frontend_config(lna_p1db_dbm=-30.0)
        fe = DoubleConversionReceiver(cfg)
        small = fe.process(_rf_tone(-60.0), np.random.default_rng(0))
        hot_in = _rf_tone(-20.0)
        hot = fe.process(hot_in, np.random.default_rng(0))
        # AGC masks absolute levels; verify through stage outputs instead.
        stages = dict(fe.stage_outputs(hot_in, np.random.default_rng(0)))
        gain = stages["lna"].power_dbm() - hot_in.power_dbm()
        assert gain < cfg.lna_gain_db - 3.0  # deep compression
