"""Tests for the WLAN system test bench (repro.core.testbench)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.fading import FadingChannel
from repro.channel.interference import InterferenceScenario
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.frontend import FrontendConfig, ideal_frontend_config
from repro.scenario import Scenario


class TestDspOnlyBench:
    def test_high_snr_error_free(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=24, psdu_bytes=40, snr_db=25.0)
        )
        m = tb.measure_ber(n_packets=3, seed=0)
        assert m.ber == 0.0
        assert m.packets == 3

    def test_low_snr_errors(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=54, psdu_bytes=40, snr_db=5.0)
        )
        m = tb.measure_ber(n_packets=3, seed=1)
        assert m.ber > 0.1

    def test_ber_monotone_in_snr(self):
        bers = []
        for snr in (6.0, 10.0, 14.0):
            tb = WlanTestbench(
                TestbenchConfig(rate_mbps=24, psdu_bytes=40, snr_db=snr)
            )
            bers.append(tb.measure_ber(n_packets=4, seed=2).ber)
        assert bers[0] >= bers[1] >= bers[2]

    def test_early_stop(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=54, psdu_bytes=40, snr_db=0.0)
        )
        m = tb.measure_ber(n_packets=50, seed=3, max_bit_errors=100)
        assert m.packets < 50

    def test_fading_channel_configured(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=6,
                psdu_bytes=40,
                snr_db=25.0,
                scenario=Scenario(
                    fading=FadingChannel(rms_delay_spread_s=50e-9)
                ),
            )
        )
        m = tb.measure_ber(n_packets=4, seed=4)
        # Most packets decode over a benign 50 ns channel at 6 Mbps.
        assert m.packets_lost <= 1


class TestEvmBench:
    @pytest.mark.parametrize("snr", [15.0, 25.0])
    def test_evm_tracks_snr(self, snr):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24, psdu_bytes=40, snr_db=snr, genie_rx=True
            )
        )
        e = tb.measure_evm(n_packets=3, seed=5)
        expected = 100.0 * 10 ** (-snr / 20.0)
        assert e.evm_percent == pytest.approx(expected, rel=0.2)

    def test_evm_db_property(self):
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=24, psdu_bytes=30, snr_db=20.0,
                            genie_rx=True)
        )
        e = tb.measure_evm(n_packets=2, seed=6)
        assert e.evm_db == pytest.approx(20 * np.log10(e.evm_rms))
        assert e.n_symbols > 0

    def test_evm_through_practical_receiver(self):
        # Our receiver exposes equalized symbols, so EVM also works on the
        # practical (synchronized) receiver -- beyond what the paper could
        # capture from the SPW demo model.
        tb = WlanTestbench(
            TestbenchConfig(rate_mbps=24, psdu_bytes=40, snr_db=22.0)
        )
        e = tb.measure_evm(n_packets=2, seed=7)
        assert 3.0 < e.evm_percent < 20.0


class TestRfBench:
    def test_clean_through_frontend(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=40,
                thermal_floor=True,
                frontend=FrontendConfig(),
                input_level_dbm=-55.0,
            )
        )
        m = tb.measure_ber(n_packets=2, seed=8)
        assert m.ber == 0.0

    def test_weak_signal_degrades(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=54,
                psdu_bytes=40,
                thermal_floor=True,
                frontend=FrontendConfig(),
                input_level_dbm=-85.0,
            )
        )
        m = tb.measure_ber(n_packets=3, seed=9)
        assert m.ber > 0.05

    def test_ideal_frontend_better_than_impaired(self):
        level = -78.0
        impaired = WlanTestbench(
            TestbenchConfig(
                rate_mbps=54, psdu_bytes=40, thermal_floor=True,
                frontend=FrontendConfig(), input_level_dbm=level,
            )
        ).measure_ber(n_packets=4, seed=10)
        ideal = WlanTestbench(
            TestbenchConfig(
                rate_mbps=54, psdu_bytes=40, thermal_floor=True,
                frontend=ideal_frontend_config(), input_level_dbm=level,
            )
        ).measure_ber(n_packets=4, seed=10)
        assert ideal.ber <= impaired.ber

    def test_adjacent_channel_oversampling_chosen(self):
        tb = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=40,
                snr_db=25.0,
                interference=InterferenceScenario.adjacent(),
            )
        )
        # No front end: the bench must oversample on its own ("to fulfill
        # the sampling theorem").
        assert tb.oversample >= 4

    def test_interference_scenario_none_native_rate(self):
        tb = WlanTestbench(TestbenchConfig(rate_mbps=24, snr_db=20.0))
        assert tb.oversample == 1


class TestConfigValidation:
    """Invalid traffic fails when the config is built, not at a packet."""

    @pytest.mark.parametrize("rate", [7, 0, 11])
    def test_unknown_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate_mbps"):
            TestbenchConfig(rate_mbps=rate)

    @pytest.mark.parametrize("length", [0, -1, 4096, 5000])
    def test_psdu_length_out_of_range_rejected(self, length):
        with pytest.raises(ValueError, match="psdu_bytes"):
            TestbenchConfig(psdu_bytes=length)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError, match="guard_samples"):
            TestbenchConfig(guard_samples=-1)

    def test_limits_accepted(self):
        TestbenchConfig(rate_mbps=6, psdu_bytes=1, guard_samples=0)
        TestbenchConfig(rate_mbps=54, psdu_bytes=4095)

    def test_genie_rx_with_frontend_rejected(self):
        with pytest.raises(ValueError, match="genie_rx"):
            TestbenchConfig(genie_rx=True, frontend=FrontendConfig())
        TestbenchConfig(genie_rx=True)
        TestbenchConfig(frontend=FrontendConfig())
