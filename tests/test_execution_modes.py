"""Every execution mode records the same run.

Serial, pooled (``jobs``), batched, probed and faulted-then-retried runs
must agree on the results and on the telemetry the tasks emit: each
task attempt runs under one ``obs.capture`` and only successful
attempts merge into the parent, in task order, whichever path ran them.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro import obs, perf
from repro.channel.interference import InterferenceScenario
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig
from repro.rf.frontend import FrontendConfig


# -- picklable task functions (module level for the process pool) ------
def _with_attempt(task, attempt):
    return (task[0], attempt)


def _flaky_work(task):
    """Emit a counter, a span and a probe tap; task 1 fails attempt 0."""
    x, attempt = task
    obs.get_registry().counter("work_done").inc()
    with obs.span("work", x=x):
        obs.get_probes().tap("work", np.full(16, 1e-3 * (x + 1), complex),
                             20e6)
    if x == 1 and attempt == 0:
        raise RuntimeError("first attempt of task 1 fails after its work")
    return x * x


def _context_seen(_):
    ctx = perf.current_context()
    return (ctx.batch_size, ctx.memoize, ctx.retries, ctx.task_timeout,
            ctx.resume, ctx.in_worker)


def _timeout_seen(_):
    return perf.resolve_task_timeout(None)


def _task_spans(tracer):
    """Multiset of span names the tasks emitted (no pool bookkeeping)."""
    return Counter(
        s.name for s in tracer.spans()
        if not s.name.startswith("parallel:") and not s.name.endswith(":task")
    )


def _metrics(registry):
    """The registry snapshot minus the gauge that labels the job count."""
    snapshot = registry.snapshot()
    snapshot.pop("parallel_efficiency", None)
    return snapshot


def _run_flaky(jobs):
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer()
    probes = obs.ProbeRegistry(obs.probe_preset("full"))
    with obs.installed(registry=registry, tracer=tracer, probes=probes):
        out = perf.parallel_map(
            _flaky_work, [(x, 0) for x in range(4)], jobs=jobs,
            stage="work", retries=1, reseed=_with_attempt,
        )
    probe_state = json.dumps(probes.export(), sort_keys=True)
    return list(out), _metrics(registry), _task_spans(tracer), probe_state


class TestFailedAttemptTelemetry:
    def test_serial_matches_pooled(self):
        serial = _run_flaky(jobs=1)
        pooled = _run_flaky(jobs=2)
        assert serial[0] == pooled[0] == [0, 1, 4, 9]
        assert serial[1] == pooled[1]
        assert serial[2] == pooled[2]
        assert serial[3] == pooled[3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_attempt_leaves_no_trace(self, jobs):
        _, metrics, spans, _ = _run_flaky(jobs)
        work_done = dict(
            (tuple(sorted(labels.items())), value)
            for labels, value in metrics["work_done"]["series"]
        )
        assert work_done == {(): 4.0}
        assert spans["work"] == 4


class TestRunContextCrossesPool:
    def test_spawned_worker_sees_run_context(self, monkeypatch):
        # A spawned worker inherits nothing from the parent's memory:
        # every setting has to arrive with the context itself.
        import multiprocessing

        from repro.perf import pool

        monkeypatch.setattr(
            pool, "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        with perf.use_context(batch_size=4, memoize=True, retries=2,
                              task_timeout=30.0, resume=True):
            out = perf.parallel_map(_context_seen, range(2), jobs=2)
        assert list(out) == [(4, True, 2, 30.0, True, True)] * 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_region_timeout_stays_with_region(self, jobs):
        # A region's own task_timeout guards its attempts; code nested
        # in a task resolves against the installed context, in every
        # mode.
        out = perf.parallel_map(
            _timeout_seen, range(2), jobs=jobs, task_timeout=30.0
        )
        assert list(out) == [None, None]

    def test_use_context_restores_previous(self):
        before = perf.current_context()
        with perf.use_context(jobs=3, retries=1) as ctx:
            assert perf.current_context() is ctx
            assert perf.resolve_jobs(None) == 3
            assert perf.resolve_retries(None) == 1
        assert perf.current_context() is before

    def test_context_is_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            perf.current_context().jobs = 4


# -- the mode matrix -----------------------------------------------------
def _fig5_sweep():
    """Two points, two packets each, of the fig5 filter-edge sweep."""
    return ParameterSweep(
        base_config=TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=60,
            thermal_floor=True,
            frontend=FrontendConfig(),
            interference=InterferenceScenario.adjacent(),
            input_level_dbm=-60.0,
        ),
        parameter="frontend.lpf_edge_hz",
        values=[6e6, 10e6],
        n_packets=2,
        seed=7,
    )


#: A pairwise covering of jobs {1, 2} x batch {1, 8} x probes
#: {off, full} x (fault + one retry) {off, on}: every pair of factor
#: levels appears in at least one row.
MODES = [
    (1, 1, False, False),
    (1, 8, True, True),
    (2, 1, True, True),
    (2, 8, False, True),
    (2, 8, True, False),
]


def _run_mode(jobs, batch_size, probes_on, faulted):
    registry = obs.MetricsRegistry()
    probes = obs.ProbeRegistry(
        obs.probe_preset("full") if probes_on else obs.ProbeConfig()
    )
    settings = {"batch_size": batch_size}
    if faulted:
        settings.update(
            retries=1, fault_plan=perf.parse_fault_spec("sweep/fail:1@0")
        )
    with perf.use_context(**settings), \
            obs.installed(registry=registry, probes=probes):
        result = _fig5_sweep().run(jobs=jobs)
    curve = [
        (p.value, p.measurement.bit_errors, p.measurement.bits_total,
         p.measurement.packets, p.measurement.packets_lost)
        for p in result.points
    ]
    # Execution telemetry (parallel_*) describes the mode itself; every
    # other counter and histogram is what the simulation emitted.
    counters = {
        name: entry for name, entry in registry.snapshot().items()
        if not name.startswith("parallel_")
    }
    probe_state = (
        json.dumps(probes.export(), sort_keys=True) if probes_on else None
    )
    return curve, counters, probe_state


class TestModeMatrix:
    @pytest.fixture(scope="class")
    def reference(self):
        return _run_mode(1, 1, True, False)

    @pytest.mark.parametrize(
        "jobs,batch_size,probes_on,faulted", MODES,
        ids=[
            f"jobs{j}-batch{b}-probes{'full' if p else 'off'}"
            f"-{'faulted' if f else 'clean'}"
            for j, b, p, f in MODES
        ],
    )
    def test_mode_matches_serial(
        self, reference, jobs, batch_size, probes_on, faulted
    ):
        curve, counters, probe_state = _run_mode(
            jobs, batch_size, probes_on, faulted
        )
        ref_curve, ref_counters, ref_probes = reference
        assert curve == ref_curve
        assert counters == ref_counters
        if probes_on:
            assert probe_state == ref_probes


# -- early stop: one answer at every batch size and job count ------------
#: 54 Mb/s at 14 dB with a 200-bit-error stop that fires at packet 4,
#: inside a batch of 16 (and at a batch boundary for batch 4).
STOP_CONFIG = TestbenchConfig(rate_mbps=54, snr_db=14.0)

#: estimator -> (measure_ber keywords, packets counted, BER).
STOP_EXPECTED = {
    "mc": ({}, 4, 0.095),
    "is": ({"estimator": "is", "boost_db": 0.1}, 4, 0.057786775322377),
}


class TestEarlyStopMatrix:
    @pytest.mark.parametrize("estimator", sorted(STOP_EXPECTED))
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_stop_is_per_packet(self, batch_size, jobs, estimator):
        from repro.core.testbench import WlanTestbench

        kwargs, packets, ber = STOP_EXPECTED[estimator]
        m = WlanTestbench(STOP_CONFIG).measure_ber(
            n_packets=64, seed=3, max_bit_errors=200,
            batch_size=batch_size, jobs=jobs, **kwargs,
        )
        assert m.packets == packets
        assert m.ber == ber
        assert m.bit_errors >= 200

    @staticmethod
    def _sweep():
        return ParameterSweep(
            STOP_CONFIG, "snr_db", [12.0, 14.0], n_packets=16, seed=3,
            max_bit_errors=200,
        )

    @staticmethod
    def _points(result):
        return [
            (p.measurement.packets, p.measurement.ber) for p in result.points
        ]

    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_sweep_stop_is_per_packet(self, batch_size):
        with perf.use_context(batch_size=batch_size):
            result = self._sweep().run()
        assert self._points(result) == [(1, 0.4125), (2, 0.144375)]

    @pytest.mark.parametrize("cached,fresh", [(16, 1), (1, 16)])
    def test_memo_entry_answers_other_batch_size(
        self, tmp_path, cached, fresh
    ):
        store = obs.RunStore(tmp_path / "runs")
        with perf.use_context(batch_size=cached):
            self._sweep().run(store=store, memoize=True)
        with perf.use_context(batch_size=fresh):
            memoized = self._sweep().run(store=store, memoize=True)
            direct = self._sweep().run()
        assert len(store.list_runs(kind="point")) == 2
        assert self._points(memoized) == self._points(direct)
