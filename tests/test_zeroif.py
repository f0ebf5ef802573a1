"""Tests for the direct-conversion receiver (repro.rf.zeroif)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.signal import Signal, dbm_to_watts
from repro.rf.zeroif import ZeroIfConfig, ZeroIfReceiver


def _rf_tone(power_dbm, f=1e6, fs=80e6, n=8192):
    t = np.arange(n) / fs
    return Signal(
        np.sqrt(dbm_to_watts(power_dbm)) * np.exp(2j * np.pi * f * t),
        fs,
        5.2e9,
    )


class TestConfig:
    def test_decimation(self):
        assert ZeroIfConfig().decimation == 4

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ZeroIfConfig(sample_rate_in=50e6)

    @pytest.mark.parametrize("edge", [0.0, -1e6, 40e6, 70e6])
    def test_lpf_edge_outside_band_rejected(self, edge):
        with pytest.raises(ValueError, match="lpf_edge_hz"):
            ZeroIfConfig(lpf_edge_hz=edge)

    def test_dc_block_cutoff_range(self):
        assert ZeroIfConfig(dc_block_cutoff_hz=0.0).dc_block_cutoff_hz == 0.0
        for cutoff in (-1e3, 40e6, 70e6):
            with pytest.raises(ValueError, match="dc_block_cutoff_hz"):
                ZeroIfConfig(dc_block_cutoff_hz=cutoff)

    def test_defaults_carry_zero_if_burdens(self):
        cfg = ZeroIfConfig()
        # The LO sits at the carrier: self-mixing DC is much larger than
        # in the double-conversion design (-25 vs -45 dBm).
        assert cfg.dc_offset_dbm > -35.0
        assert cfg.flicker_power_dbm > -75.0


class TestChain:
    def test_single_conversion_to_baseband(self):
        fe = ZeroIfReceiver(ZeroIfConfig(noise_enabled=False))
        stages = fe.stage_outputs(_rf_tone(-60.0), np.random.default_rng(0))
        names = [n for n, _ in stages]
        assert names == [
            "input", "lna", "mixer", "dc_block", "lpf", "agc", "adc",
        ]
        by_name = dict(stages)
        assert by_name["mixer"].carrier_frequency == pytest.approx(0.0)
        assert by_name["adc"].sample_rate == pytest.approx(20e6)

    def test_dc_block_suppresses_offset(self):
        cfg = ZeroIfConfig(noise_enabled=False, flicker_power_dbm=None)
        fe = ZeroIfReceiver(cfg)
        silence = Signal(np.zeros(1 << 15, complex), 80e6, 5.2e9)
        stages = dict(fe.stage_outputs(silence, np.random.default_rng(0)))
        raw_dc = abs(np.mean(stages["mixer"].samples))
        blocked = abs(np.mean(stages["dc_block"].samples[8192:]))
        assert raw_dc > 1e-4
        assert blocked < raw_dc / 10.0

    def test_dc_block_disable(self):
        cfg = ZeroIfConfig(
            noise_enabled=False, flicker_power_dbm=None,
            dc_block_cutoff_hz=0.0,
        )
        fe = ZeroIfReceiver(cfg)
        assert fe.dc_block is None
        silence = Signal(np.zeros(4096, complex), 80e6, 5.2e9)
        stages = dict(fe.stage_outputs(silence, np.random.default_rng(0)))
        assert abs(np.mean(stages["dc_block"].samples)) > 1e-4

    def test_wrong_rate_rejected(self):
        fe = ZeroIfReceiver(ZeroIfConfig())
        with pytest.raises(ValueError):
            fe.process(Signal(np.zeros(64, complex), 20e6, 5.2e9))


class TestSystemLevel:
    def test_decodes_clean_packet(self):
        bench = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=40,
                thermal_floor=True,
                frontend=ZeroIfConfig(),
                input_level_dbm=-55.0,
            )
        )
        m = bench.measure_ber(n_packets=2, seed=0)
        assert m.ber == 0.0

    def test_dc_block_cutoff_tradeoff(self):
        """Zero-IF dilemma: no DC block fails at 54 Mbps with LO error; an
        over-wide DC block erodes the first subcarriers."""

        def ber(cutoff):
            cfg = ZeroIfConfig(
                dc_block_cutoff_hz=cutoff,
                dc_block_order=2,
                lo_error_ppm=10.0,
            )
            bench = WlanTestbench(
                TestbenchConfig(
                    rate_mbps=54,
                    psdu_bytes=40,
                    thermal_floor=True,
                    frontend=cfg,
                    input_level_dbm=-76.0,  # near 54 Mbps sensitivity
                )
            )
            return bench.measure_ber(n_packets=3, seed=1).ber

        none = ber(0.0)
        nominal = ber(600e3)
        excessive = ber(5e6)
        assert none > 0.1           # raw DC offset breaks QAM64
        assert nominal < 0.01       # a proper notch fixes it
        assert excessive > nominal  # a wide notch bites the subcarriers
