"""Tests for the simulation-manager sweeps (repro.core.sweep)."""

import numpy as np
import pytest

from repro import perf
from repro.core.sweep import ParameterSweep, SimulationManager, SweepResult
from repro.core.testbench import TestbenchConfig
from repro.rf.frontend import FrontendConfig


def _dsp_config(**kw):
    return TestbenchConfig(rate_mbps=24, psdu_bytes=30, snr_db=20.0, **kw)


class TestParameterSweep:
    def test_snr_sweep_monotone(self):
        sweep = ParameterSweep(
            base_config=_dsp_config(),
            parameter="snr_db",
            values=[6.0, 12.0, 20.0],
            n_packets=3,
        )
        result = sweep.run()
        assert result.parameter == "snr_db"
        assert result.values.tolist() == [6.0, 12.0, 20.0]
        bers = result.bers
        assert bers[0] >= bers[-1]

    def test_frontend_parameter_addressing(self):
        cfg = TestbenchConfig(
            rate_mbps=24,
            psdu_bytes=30,
            thermal_floor=True,
            frontend=FrontendConfig(),
            input_level_dbm=-55.0,
        )
        sweep = ParameterSweep(
            base_config=cfg,
            parameter="frontend.lna_p1db_dbm",
            values=[-12.0],
            n_packets=1,
        )
        result = sweep.run()
        assert result.points[0].measurement.packets == 1

    def test_frontend_param_without_frontend_rejected(self):
        sweep = ParameterSweep(
            base_config=_dsp_config(),
            parameter="frontend.lna_p1db_dbm",
            values=[-12.0],
            n_packets=1,
        )
        with pytest.raises(ValueError):
            sweep.run()

    def test_unknown_parameter_rejected(self):
        sweep = ParameterSweep(
            base_config=_dsp_config(),
            parameter="bogus",
            values=[1.0],
            n_packets=1,
        )
        with pytest.raises(AttributeError):
            sweep.run()

    def test_invalid_point_raises_before_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("parallel_map reached")

        monkeypatch.setattr(perf, "parallel_map", no_pool)
        sweep = ParameterSweep(
            base_config=_dsp_config(),
            parameter="psdu_bytes",
            values=[60, 0],
            n_packets=1,
        )
        with pytest.raises(ValueError, match="psdu_bytes"):
            sweep.run()

    def test_invalid_filter_edge_raises_before_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("parallel_map reached")

        monkeypatch.setattr(perf, "parallel_map", no_pool)
        sweep = ParameterSweep(
            base_config=_dsp_config(frontend=FrontendConfig()),
            parameter="frontend.lpf_edge_hz",
            values=[8.6e6, 70e6],
            n_packets=1,
        )
        with pytest.raises(ValueError, match="lpf_edge_hz"):
            sweep.run()

    def test_progress_callback(self):
        lines = []
        ParameterSweep(
            base_config=_dsp_config(),
            parameter="snr_db",
            values=[15.0, 20.0],
            n_packets=1,
        ).run(progress=lines.append)
        assert len(lines) == 2
        assert "snr_db" in lines[0]

    def test_as_table_renders(self):
        result = ParameterSweep(
            base_config=_dsp_config(),
            parameter="snr_db",
            values=[20.0],
            n_packets=1,
        ).run()
        table = result.as_table()
        assert "snr_db" in table
        assert "BER" in table


class TestSimulationManager:
    def test_run_all_and_report(self):
        manager = SimulationManager()
        manager.add(
            "a",
            ParameterSweep(_dsp_config(), "snr_db", [20.0], n_packets=1),
        )
        manager.add(
            "b",
            ParameterSweep(_dsp_config(), "snr_db", [25.0], n_packets=1),
        )
        results = manager.run_all()
        assert set(results) == {"a", "b"}
        report = manager.report()
        assert "== a ==" in report
        assert "== b ==" in report

    def test_duplicate_name_rejected(self):
        manager = SimulationManager()
        sweep = ParameterSweep(_dsp_config(), "snr_db", [20.0], n_packets=1)
        manager.add("x", sweep)
        with pytest.raises(ValueError):
            manager.add("x", sweep)

    def test_single_run(self):
        manager = SimulationManager()
        manager.add(
            "only",
            ParameterSweep(_dsp_config(), "snr_db", [18.0], n_packets=1),
        )
        result = manager.run("only")
        assert isinstance(result, SweepResult)
        assert "only" in manager.results
