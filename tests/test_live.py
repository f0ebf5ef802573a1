"""Tests for the live telemetry layer (repro.obs.live).

The contracts under test: Wilson-CI convergence classification, the
flight recorder's determinism rules (volatile fields stripped, serial
and parallel runs produce equivalent records, failed attempts never
double-count), worker heartbeat/stall detection and the ETA model, the
OpenMetrics exposition round-tripping through a strict parser, the
flight.jsonl store round-trip with its report section, and the
cross-run KPI trend walker.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs, perf
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig
from repro.obs.live import (
    ConvergenceConfig,
    LiveMonitor,
    MetricsServer,
    _kind_selected,
    classify_point,
    kpi_trend,
    openmetrics_text,
    parse_openmetrics,
    render_dashboard,
    sparkline,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressEvent, printer
from repro.perf import parse_fault_spec


# -- helpers ------------------------------------------------------------
def _square(x):
    return x * x


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def _event(stage="sweep", current=1, total=4, message="m", **data):
    return ProgressEvent(stage=stage, current=current, total=total,
                         message=message, data=data)


def _ber_event(current, errors, bits, parameter="snr_db", value=4.0,
               total=4):
    return _event(
        current=current, total=total,
        message=f"{parameter}={value}: BER={errors / max(bits, 1):.3g}",
        parameter=parameter, value=value,
        bit_errors=errors, bits_total=bits,
    )


def _small_sweep(seed=7):
    return ParameterSweep(
        TestbenchConfig(rate_mbps=6, psdu_bytes=20, snr_db=10.0),
        "snr_db", [0.0, 2.0, 4.0, 6.0], n_packets=1, seed=seed,
    )


@pytest.fixture
def ambient_monitor():
    """A fresh monitor installed as the ambient one."""
    monitor = LiveMonitor(clock=FakeClock())
    previous = obs.set_live_monitor(monitor)
    yield monitor
    obs.set_live_monitor(previous)


# -- convergence classification -----------------------------------------
class TestClassifyPoint:
    def test_no_bits_is_pending(self):
        out = classify_point(0, 0)
        assert out["state"] == "pending"
        assert out["ci_width"] == 1.0

    def test_few_errors_is_starved(self):
        assert classify_point(3, 10_000)["state"] == "starved"

    def test_wide_interval_is_running(self):
        assert classify_point(15, 1_000)["state"] == "running"

    def test_tight_interval_is_converged(self):
        assert classify_point(500, 1_000_000)["state"] == "converged"

    def test_zero_errors_with_many_bits_converges_absolutely(self):
        # BER == 0 can never satisfy the relative-width rule; the
        # absolute-width floor lets clean points settle too.
        out = classify_point(0, 10_000_000,
                             ConvergenceConfig(min_errors=0.0))
        assert out["state"] == "converged"

    def test_returns_plain_floats(self):
        out = classify_point(50, 10_000)
        assert type(out["ci_lo"]) is float
        assert type(out["ci_hi"]) is float
        json.dumps(out)  # must serialise without a numpy encoder

    def test_interval_brackets_the_estimate(self):
        out = classify_point(50, 10_000)
        assert out["ci_lo"] < 50 / 10_000 < out["ci_hi"]


# -- flight recorder ----------------------------------------------------
class TestFlightRecorder:
    def test_point_keyed_by_parameter_value(self):
        monitor = LiveMonitor(clock=FakeClock())
        monitor.on_event(_ber_event(1, errors=20, bits=1_000))
        (record,) = monitor.flight_records()
        assert record["convergence"]["point"] == "snr_db=4"
        assert record["convergence"]["state"] == "running"

    def test_volatile_data_keys_stripped(self):
        monitor = LiveMonitor(clock=FakeClock())
        monitor.on_event(_event(duration_s=1.25, wall_s=9.0, verdict="ok"))
        (record,) = monitor.flight_records()
        assert record["data"] == {"verdict": "ok"}

    def test_bound_drops_oldest_and_counts(self):
        monitor = LiveMonitor(max_flight=2, clock=FakeClock())
        for i in range(5):
            monitor.on_event(_event(current=i + 1, total=5))
        summary = monitor.flight_summary()
        assert summary["events"] == 5
        assert summary["recorded"] == 2
        assert summary["dropped"] == 3
        assert [r["seq"] for r in monitor.flight_records()] == [3, 4]

    def test_replay_reproduces_summary(self):
        monitor = LiveMonitor(clock=FakeClock())
        for i in range(3):
            monitor.on_event(_ber_event(i + 1, errors=20 * (i + 1),
                                        bits=1_000 * (i + 1),
                                        value=2.0 * i, total=3))
        replayed = LiveMonitor.replay(monitor.flight_records())
        assert replayed.flight_summary() == monitor.flight_summary()
        assert replayed.flight_records() == monitor.flight_records()

    def test_bits_per_s_from_task_roundtrip(self):
        monitor = LiveMonitor(clock=FakeClock())
        monitor.note_task("sweep", 0, 2.0, worker_pid=111)
        monitor.on_event(_ber_event(1, errors=100, bits=10_000))
        (point,) = monitor.snapshot()["points"]
        assert point["bits_per_s"] == pytest.approx(5_000.0)

    def test_spool_mirrors_records(self, tmp_path):
        spool = tmp_path / "live" / "fig5.jsonl"
        monitor = LiveMonitor(clock=FakeClock())
        monitor.open_spool(spool)
        monitor.on_event(_event(current=1))
        monitor.on_event(_event(current=2))
        lines = spool.read_text().splitlines()
        assert [json.loads(line)["current"] for line in lines] == [1, 2]
        monitor.close_spool(remove=True)
        assert not spool.exists()


# -- heartbeats, stalls, ETA --------------------------------------------
class TestWorkerHealth:
    def test_stall_flagged_after_factor_times_median(self):
        clock = FakeClock()
        monitor = LiveMonitor(clock=clock, stall_factor=4.0)
        monitor.on_event(_event(current=1, total=8))
        monitor.note_task("sweep", 0, 1.0, worker_pid=42)
        clock.t = 3.0
        (worker,) = monitor.snapshot()["workers"]
        assert not worker["stalled"]
        clock.t = 10.0  # 10 s silence vs 4 x 1 s median
        (worker,) = monitor.snapshot()["workers"]
        assert worker["stalled"]

    def test_no_stall_once_stage_complete(self):
        clock = FakeClock()
        monitor = LiveMonitor(clock=clock, stall_factor=4.0)
        monitor.note_task("sweep", 0, 1.0, worker_pid=42)
        monitor.on_event(_event(current=8, total=8))
        clock.t = 100.0
        (worker,) = monitor.snapshot()["workers"]
        assert not worker["stalled"]

    def test_eta_from_trailing_median_and_jobs(self):
        monitor = LiveMonitor(clock=FakeClock())
        monitor.note_region("sweep", 8, jobs=2)
        for i in range(2):
            monitor.note_task("sweep", i, 2.0, worker_pid=1)
        monitor.on_event(_event(current=2, total=8))
        # 6 remaining x 2 s median / 2 workers
        assert monitor.eta_seconds() == pytest.approx(6.0)

    def test_eta_none_when_complete(self):
        monitor = LiveMonitor(clock=FakeClock())
        monitor.note_task("sweep", 0, 2.0, worker_pid=1)
        monitor.on_event(_event(current=8, total=8))
        assert monitor.eta_seconds() is None

    def test_failed_attempt_excluded_from_counts_and_eta(self):
        monitor = LiveMonitor(clock=FakeClock())
        monitor.note_region("sweep", 4, jobs=1)
        monitor.note_task("sweep", 0, 50.0, worker_pid=7, ok=False,
                          attempt=0)
        monitor.note_task("sweep", 0, 2.0, worker_pid=7)
        monitor.on_event(_event(current=1, total=4))
        summary = monitor.flight_summary()
        assert summary["stages"]["sweep"]["done"] == 1
        assert summary["stages"]["sweep"]["failed"] == 1
        # The 50 s failed attempt must not pollute the ETA median.
        assert monitor.eta_seconds() == pytest.approx(3 * 2.0)
        (worker,) = monitor.snapshot()["workers"]
        assert worker["tasks"] == 2
        assert worker["failures"] == 1


# -- progress printer regression (zero total) ---------------------------
class TestPrinterZeroTotal:
    def collect(self, *events):
        lines = []
        listener = printer(lines.append)
        for event in events:
            listener.on_event(event)
        return lines

    def test_percent_prefix_with_total(self):
        (line,) = self.collect(_event(current=1, total=4, message="p1"))
        assert line == "[1/4  25%] p1"

    def test_zero_total_prints_bare_message(self):
        # Regression: a zero total must not reach the percent division
        # (ZeroDivisionError used to drop the event entirely).
        (line,) = self.collect(
            _event(current=0, total=0, message="empty sweep")
        )
        assert line == "empty sweep"

    def test_none_total_prints_bare_message(self):
        (line,) = self.collect(
            _event(current=3, total=None, message="open-ended")
        )
        assert line == "open-ended"


# -- ambient monitor gating ---------------------------------------------
class TestAmbientGating:
    def test_observe_event_noop_without_monitor(self):
        assert obs.get_live_monitor() is None
        obs.live_note_task("s", 0, 1.0, 1)  # must not raise

    def test_set_returns_previous(self, ambient_monitor):
        other = LiveMonitor(clock=FakeClock())
        assert obs.set_live_monitor(other) is ambient_monitor
        assert obs.set_live_monitor(ambient_monitor) is other

    def test_suspended_suppresses_and_nests(self, ambient_monitor):
        with obs.live_suspended():
            with obs.live_suspended():
                obs.live_note_task("s", 0, 1.0, 1)
            obs.live_note_task("s", 1, 1.0, 1)
        assert not ambient_monitor.has_data()
        obs.live_note_task("s", 2, 1.0, 1)
        assert ambient_monitor.has_data()


# -- determinism: serial vs parallel, retries ---------------------------
class TestFlightDeterminism:
    def _run_sweep(self, jobs):
        monitor = LiveMonitor(clock=FakeClock())
        previous = obs.set_live_monitor(monitor)
        try:
            result = _small_sweep().run(jobs=jobs)
        finally:
            obs.set_live_monitor(previous)
        return result, monitor

    def test_serial_and_parallel_flights_equal(self):
        serial_result, serial = self._run_sweep(jobs=1)
        pooled_result, pooled = self._run_sweep(jobs=2)
        assert list(serial_result.bers) == list(pooled_result.bers)
        assert serial.flight_records() == pooled.flight_records()
        assert serial.flight_summary() == pooled.flight_summary()
        # Monitoring observed real work on both sides.
        assert serial.flight_summary()["events"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_attempt_does_not_double_count(self, jobs):
        # A fault on one attempt, retried clean: flight records and
        # convergence must match the fault-free run exactly; only the
        # failure tally differs (mirroring the probe-merge discard rule).
        _, clean = self._run_sweep(jobs=jobs)
        monitor = LiveMonitor(clock=FakeClock())
        previous = obs.set_live_monitor(monitor)
        plan = parse_fault_spec("sweep/fail:1@0")
        try:
            with perf.use_context(retries=1, fault_plan=plan):
                result = _small_sweep().run(jobs=jobs)
        finally:
            obs.set_live_monitor(previous)
        assert list(result.bers) == list(self._run_sweep(jobs=jobs)[0].bers)
        assert monitor.flight_records() == clean.flight_records()
        faulted = monitor.flight_summary()
        reference = clean.flight_summary()
        assert faulted["points"] == reference["points"]
        assert faulted["stages"]["sweep"]["done"] == \
            reference["stages"]["sweep"]["done"]
        assert faulted["stages"]["sweep"]["failed"] == 1
        assert reference["stages"]["sweep"]["failed"] == 0

    def test_parallel_map_feeds_heartbeats(self, ambient_monitor):
        perf.parallel_map(_square, range(6), jobs=2, stage="hb")
        summary = ambient_monitor.flight_summary()
        assert summary["stages"]["hb"]["done"] == 6
        assert summary["stages"]["hb"]["failed"] == 0
        assert len(ambient_monitor.snapshot()["workers"]) >= 1


# -- dashboard rendering ------------------------------------------------
class TestDashboard:
    def test_renders_points_workers_and_stall(self):
        clock = FakeClock()
        monitor = LiveMonitor(clock=clock, stall_factor=2.0)
        monitor.note_region("sweep", 4, jobs=2)
        monitor.note_task("sweep", 0, 1.0, worker_pid=101)
        monitor.on_event(_ber_event(1, errors=20, bits=1_000))
        clock.t = 60.0
        text = render_dashboard(monitor.snapshot())
        assert "snr_db=4" in text
        assert "running" in text
        assert "pid 101" in text
        assert "STALLED" in text
        assert "eta" in text

    def test_empty_snapshot_renders(self):
        text = render_dashboard(LiveMonitor(clock=FakeClock()).snapshot())
        assert text.startswith("live: 0 events")


# -- flight.jsonl store round-trip --------------------------------------
class TestFlightStore:
    def _store_run(self, tmp_path, with_flight):
        store = obs.RunStore(tmp_path / "runs")
        writer = store.create(kind="sweep", name="t", seed=1,
                              config={}, command="test")
        writer.add_kpis({"ber": 0.25})
        if with_flight:
            monitor = LiveMonitor(clock=FakeClock())
            monitor.on_event(_ber_event(1, errors=25, bits=100, total=1))
            writer.add_flight(monitor.flight_records())
        record = writer.finalize(tracer=None, registry=None)
        return store, record

    def test_round_trip_and_integrity(self, tmp_path):
        store, record = self._store_run(tmp_path, with_flight=True)
        loaded = store.load_run(record.run_id)
        assert loaded.flight == record.flight
        assert loaded.flight[0]["convergence"]["point"] == "snr_db=4"
        assert loaded.digest == loaded.stored_digest
        path = tmp_path / "runs" / record.run_id / "flight.jsonl"
        assert path.exists()
        assert json.loads(path.read_text().splitlines()[0])["seq"] == 0

    def test_no_flight_no_file_and_digest_unchanged(self, tmp_path):
        store, record = self._store_run(tmp_path, with_flight=False)
        assert not (tmp_path / "runs" / record.run_id
                    / "flight.jsonl").exists()
        loaded = store.load_run(record.run_id)
        assert loaded.flight == []
        assert loaded.digest == loaded.stored_digest

    def test_report_gains_run_timeline_section(self, tmp_path):
        from repro.obs.report import run_sections

        store, record = self._store_run(tmp_path, with_flight=True)
        titles = [s.title for s in run_sections(store.load_run(record.run_id))]
        assert "Run timeline" in titles
        store, record = self._store_run(tmp_path / "b", with_flight=False)
        titles = [s.title for s in run_sections(store.load_run(record.run_id))]
        assert "Run timeline" not in titles


# -- OpenMetrics exposition ---------------------------------------------
class TestOpenMetrics:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("events", "event count").inc(3, stage="sweep")
        registry.gauge("ber", "bit error rate").set(1e-3, point="snr=4")
        hist = registry.histogram("task_s", "task seconds")
        for value in (0.1, 0.2, 0.3, 0.4):
            hist.observe(value)
        return registry

    def test_round_trips_through_strict_parser(self):
        text = openmetrics_text(self._registry())
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)
        assert families["events"]["type"] == "counter"
        (sample,) = families["events"]["samples"]
        assert sample["name"] == "events_total"
        assert sample["labels"] == {"stage": "sweep"}
        assert sample["value"] == 3.0
        assert families["ber"]["samples"][0]["value"] == pytest.approx(1e-3)

    def test_histogram_exports_as_summary_quantiles(self):
        families = parse_openmetrics(openmetrics_text(self._registry()))
        assert families["task_s"]["type"] == "summary"
        names = {s["name"] for s in families["task_s"]["samples"]}
        assert {"task_s", "task_s_count", "task_s_sum"} <= names
        quantiles = {
            s["labels"]["quantile"] for s in families["task_s"]["samples"]
            if "quantile" in s["labels"]
        }
        assert quantiles == {"0.5", "0.9", "0.99"}

    def test_monitor_gauges_merged_without_mutating_registry(self):
        registry = self._registry()
        monitor = LiveMonitor(clock=FakeClock())
        monitor.on_event(_ber_event(1, errors=25, bits=100))
        families = parse_openmetrics(openmetrics_text(registry, monitor))
        assert families["live_flight_events"]["samples"][0]["value"] == 1.0
        assert "live_flight_events" not in registry.as_dict()

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.gauge("g", "h").set(1.0, name='quo"te\\back\nline')
        (sample,) = parse_openmetrics(
            openmetrics_text(registry)
        )["g"]["samples"]
        assert sample["labels"]["name"] == 'quo"te\\back\nline'

    @pytest.mark.parametrize("text,why", [
        ("g 1\n", "EOF"),
        ("# TYPE g gauge\ng 1\n", "EOF"),
        ("orphan 1\n# EOF\n", "undeclared"),
        ("# TYPE c counter\nc 1\n# EOF\n", "_total"),
        ("# TYPE g widget\ng 1\n# EOF\n", "type"),
        ("# TYPE g gauge\ng notafloat\n# EOF\n", "float"),
    ])
    def test_strict_parser_rejects(self, text, why):
        with pytest.raises(ValueError):
            parse_openmetrics(text)


class TestMetricsServer:
    def test_serves_parseable_exposition(self):
        registry = MetricsRegistry()
        registry.gauge("up", "liveness").set(1.0)
        monitor = LiveMonitor(clock=FakeClock())
        monitor.on_event(_event(current=1))
        server = MetricsServer(
            port=0, registry_fn=lambda: registry,
            monitor_fn=lambda: monitor,
        ).start()
        try:
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "application/openmetrics-text"
                )
                families = parse_openmetrics(resp.read().decode())
            assert families["up"]["samples"][0]["value"] == 1.0
            assert families["live_flight_events"]["samples"][0]["value"] \
                == 1.0
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=5
                )
        finally:
            server.stop()


# -- cross-run KPI trends -----------------------------------------------
class TestKpiTrend:
    def _store(self, tmp_path):
        store = obs.RunStore(tmp_path / "runs")
        for i, value in enumerate((0.3, 0.2, 0.1)):
            writer = store.create(
                kind="bench" if i == 1 else "sweep", name=f"r{i}",
                seed=i, config={}, command="test",
            )
            writer.add_kpis({"ber": value, "wall_s": float(i)})
            writer.finalize(tracer=None, registry=None)
        return store

    def test_trajectory_in_chronological_order(self, tmp_path):
        trend = kpi_trend(self._store(tmp_path), "ber")
        assert [s["value"] for s in trend["ber"]] == [0.3, 0.2, 0.1]

    def test_glob_and_kind_filters(self, tmp_path):
        store = self._store(tmp_path)
        assert set(kpi_trend(store, "*")) == {"ber", "wall_s"}
        only_sweep = kpi_trend(store, "ber", kinds=["sweep"])
        assert [s["value"] for s in only_sweep["ber"]] == [0.3, 0.1]
        excluded = kpi_trend(store, "ber", kinds=["!bench"])
        assert [s["value"] for s in excluded["ber"]] == [0.3, 0.1]

    def test_last_trims_series(self, tmp_path):
        trend = kpi_trend(self._store(tmp_path), "ber", last=2)
        assert [s["value"] for s in trend["ber"]] == [0.2, 0.1]

    def test_kind_selected(self):
        assert _kind_selected("sweep", ["sweep"])
        assert not _kind_selected("point", ["sweep"])
        assert not _kind_selected("point", ["!point"])
        assert _kind_selected("sweep", ["!point"])

    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert len(sparkline([1.0, 2.0, 3.0])) == 3
        flat = sparkline([5.0, 5.0])
        assert len(set(flat)) == 1


# -- CLI integration ----------------------------------------------------
class TestCliLive:
    def test_live_run_stores_flight_and_watch_trend(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        store = str(tmp_path / "runs")
        assert main(["--live", "--store", store, "--seed", "7",
                     "fig5", "--packets", "1"]) == 0
        err = capsys.readouterr().err
        assert "live:" in err
        run_dirs = [
            p for p in (tmp_path / "runs").iterdir()
            if p.is_dir() and p.name.startswith("fig5")
        ]
        assert any((d / "flight.jsonl").exists() for d in run_dirs)
        # The spool is cleaned up after a successful run.
        assert not list((tmp_path / "runs" / "live").glob("*.jsonl"))

        assert main(["watch", "latest", "--store", store, "--once"]) == 0
        out = capsys.readouterr().out
        assert "live:" in out and "converged" in out

        assert main(["runs", "trend", "*ber_max", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "ber_max" in out and "1 run(s)" in out

    def test_openmetrics_file_export(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "om.txt"
        assert main(["--live", "--openmetrics", str(path),
                     "fig5", "--packets", "1"]) == 0
        capsys.readouterr()
        families = parse_openmetrics(path.read_text())
        assert any(name.startswith("live_") for name in families)

    def test_live_gauges_ignored_by_regression_default(self):
        assert any(
            pattern.startswith("live_")
            for pattern in obs.RegressionConfig().metric_ignore
        )
