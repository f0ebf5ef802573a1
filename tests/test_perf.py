"""Tests for repro.perf — deterministic parallel execution.

The central claim under test: running any layer of the verification
flow with ``jobs > 1`` is *bit-identical* to running it serially,
because every unit of work derives its random stream from its
coordinates in the SeedSequence spawn tree rather than from execution
order.
"""

import time

import numpy as np
import pytest

from repro import obs, perf
from repro.core.sweep import ParameterSweep, SimulationManager
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.obs import RunStore


# -- picklable task functions (module level for the process pool) ------
def _square(x):
    return x * x


def _jobs_seen_inside_worker(_):
    return perf.resolve_jobs(8)


def _observe_some_metrics(x):
    registry = obs.get_registry()
    registry.counter("task_count").inc()
    registry.histogram("task_value").observe(float(x))
    with obs.span("inner:work", x=x):
        pass
    return x


def _fast_config(**overrides):
    base = dict(rate_mbps=24, psdu_bytes=40, snr_db=10.0)
    base.update(overrides)
    return TestbenchConfig(**base)


# -- seeding -----------------------------------------------------------
class TestSeeding:
    def test_spawn_is_stateless(self):
        a = perf.spawn(42, 3)
        b = perf.spawn(42, 3)
        for x, y in zip(a, b):
            assert (
                np.random.default_rng(x).random(4)
                == np.random.default_rng(y).random(4)
            ).all()

    def test_spawn_matches_numpy_first_spawn(self):
        ours = perf.spawn(7, 2)
        theirs = np.random.SeedSequence(7).spawn(2)
        for x, y in zip(ours, theirs):
            assert x.entropy == y.entropy
            assert x.spawn_key == y.spawn_key

    def test_no_collision_between_offset_base_seeds(self):
        # The retired ``seed + 1000 * i`` derivation made point 1 of a
        # seed-0 sweep reuse point 0's stream of a seed-1000 sweep.
        old_a = perf.stream(perf.spawn(0, 2)[1]).random(8)
        old_b = perf.stream(perf.spawn(1000, 1)[0]).random(8)
        assert not np.array_equal(old_a, old_b)

    def test_seed_entropy(self):
        assert perf.seed_entropy(11) == 11
        assert perf.seed_entropy(np.random.SeedSequence(11)) == 11
        assert perf.seed_entropy(perf.spawn(11, 1)[0]) is None

    def test_seed_fingerprint_is_lossless(self):
        # seed_entropy collapses spawned children to None; the
        # fingerprint must keep distinct streams distinct.
        assert perf.seed_fingerprint(11) == {
            "entropy": 11, "spawn_key": []
        }
        child = perf.spawn(42, 2)[1]
        assert perf.seed_fingerprint(child) == {
            "entropy": 42, "spawn_key": [1]
        }
        assert (
            perf.seed_fingerprint(perf.spawn(42, 1)[0])
            != perf.seed_fingerprint(perf.spawn(99, 1)[0])
        )

    def test_scheme_recorded_in_manifest(self):
        manifest = obs.build_manifest(seed=0)
        assert manifest.seeding == obs.SEEDING_SCHEME
        assert manifest.as_dict()["seeding"] == "seedseq-spawn-v2"


# -- the pool primitive ------------------------------------------------
class TestParallelMap:
    def test_results_in_task_order(self):
        result = perf.parallel_map(_square, range(10), jobs=2)
        assert list(result) == [x * x for x in range(10)]
        assert result.jobs == 2

    def test_serial_path_identical(self):
        assert list(perf.parallel_map(_square, range(10), jobs=1)) == [
            x * x for x in range(10)
        ]

    def test_on_result_called_in_order(self):
        seen = []
        perf.parallel_map(
            _square, range(8), jobs=2,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert seen == [(i, i * i) for i in range(8)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_early_stop_consumes_serial_prefix(self, jobs):
        result = perf.parallel_map(
            _square, range(20), jobs=jobs,
            stop=lambda i, r: r >= 9,
        )
        assert list(result) == [0, 1, 4, 9]
        assert result.stopped

    def test_no_stop_flag_when_exhausted(self):
        result = perf.parallel_map(_square, range(4), jobs=2)
        assert not result.stopped

    def test_nested_fanout_degrades_to_serial(self):
        inner = perf.parallel_map(_jobs_seen_inside_worker, [0, 1], jobs=2)
        assert list(inner) == [1, 1]  # workers refuse to nest pools

    def test_jobs_zero_means_cpu_count(self):
        assert perf.resolve_jobs(0) == perf.cpu_count()

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            perf.resolve_jobs(-1)

    def test_ambient_default(self):
        with perf.use_context(jobs=3):
            assert perf.resolve_jobs(None) == 3

    def test_worker_metrics_merged_into_parent(self):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            perf.parallel_map(
                _observe_some_metrics, range(6), jobs=2, stage="merge"
            )
        finally:
            obs.set_registry(previous)
        assert registry.counter("task_count").value() == 6.0
        assert sorted(registry.histogram("task_value").values()) == [
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0
        ]
        assert registry.gauge("parallel_efficiency").value(
            stage="merge", jobs=2, requested=2
        ) > 0.0

    def test_worker_spans_absorbed_under_task_spans(self):
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)
        try:
            perf.parallel_map(
                _observe_some_metrics, range(4), jobs=2, stage="absorb"
            )
        finally:
            obs.set_tracer(previous)
        tasks = tracer.spans("absorb:task")
        inner = tracer.spans("inner:work")
        assert len(tasks) == 4
        assert len(inner) == 4
        task_ids = {s.span_id for s in tasks}
        assert all(s.parent_id in task_ids for s in inner)

    def test_serial_path_emits_same_region_metrics(self):
        # A jobs=1 run must produce the same metric set as jobs=2 of
        # the same workload, so profiles line up across job counts.
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            perf.parallel_map(_square, range(3), jobs=1, stage="quiet")
        finally:
            obs.set_registry(previous)
        assert registry.gauge("parallel_efficiency").value(
            stage="quiet", jobs=1, requested=1
        ) == 1.0
        assert registry.counter("parallel_tasks").value(
            stage="quiet"
        ) == 3.0


# -- metrics / tracer transfer plumbing --------------------------------
class TestTelemetryTransfer:
    def test_registry_snapshot_merge_roundtrip(self):
        src = obs.MetricsRegistry()
        src.counter("c", "help").inc(2.0, mode="x")
        src.gauge("g").set(1.5)
        src.histogram("h").observe(1.0)
        src.histogram("h").observe(3.0)
        dst = obs.MetricsRegistry()
        dst.counter("c", "help").inc(1.0, mode="x")
        dst.merge(src.snapshot())
        assert dst.counter("c").value(mode="x") == 3.0
        assert dst.gauge("g").value() == 1.5
        assert sorted(dst.histogram("h").values()) == [1.0, 3.0]

    def test_tracer_absorb_remaps_and_reparents(self):
        worker = obs.Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        parent = obs.Tracer()
        anchor = parent.record_span("anchor", 0.0)
        parent.absorb(
            [r.as_dict() for r in worker.records],
            parent_id=anchor.span_id,
        )
        spans = {s.name: s for s in parent.spans()}
        assert spans["outer"].parent_id == anchor.span_id
        assert spans["inner"].parent_id == spans["outer"].span_id
        ids = [s.span_id for s in parent.spans()]
        assert len(ids) == len(set(ids))


# -- parallel == serial at every layer ---------------------------------
class TestBitIdentity:
    def test_measure_ber_parallel_identical(self):
        bench = WlanTestbench(_fast_config())
        serial = bench.measure_ber(n_packets=6, seed=3)
        pooled = bench.measure_ber(n_packets=6, seed=3, jobs=2)
        chunked = bench.measure_ber(
            n_packets=6, seed=3, jobs=2, batch_size=3
        )
        for other in (pooled, chunked):
            assert other.ber == serial.ber
            assert other.bit_errors == serial.bit_errors
            assert other.bits_total == serial.bits_total
            assert other.packets == serial.packets

    def test_measure_ber_seed_sequence_accepted(self):
        bench = WlanTestbench(_fast_config())
        m_int = bench.measure_ber(n_packets=3, seed=5)
        m_seq = bench.measure_ber(
            n_packets=3, seed=np.random.SeedSequence(5)
        )
        assert m_int.ber == m_seq.ber

    def test_sweep_parallel_identical(self):
        sweep = ParameterSweep(
            _fast_config(), "snr_db", [4.0, 8.0, 12.0],
            n_packets=4, seed=1,
        )
        serial = sweep.run()
        pooled = sweep.run(jobs=2)
        assert np.array_equal(serial.bers, pooled.bers)
        assert [p.measurement.bit_errors for p in serial.points] == [
            p.measurement.bit_errors for p in pooled.points
        ]

    def test_manager_parallel_identical(self):
        def build():
            manager = SimulationManager()
            manager.add("a", ParameterSweep(
                _fast_config(), "snr_db", [5.0, 10.0], n_packets=3, seed=0,
            ))
            manager.add("b", ParameterSweep(
                _fast_config(), "psdu_bytes", [20, 40], n_packets=3, seed=9,
            ))
            return manager

        serial = build().run_all()
        pooled = build().run_all(jobs=2)
        assert set(serial) == set(pooled)
        for name in serial:
            assert np.array_equal(serial[name].bers, pooled[name].bers)

    def test_characterize_parallel_identical(self):
        from repro.flow.rfsim import characterize
        from repro.rf.amplifier import Amplifier

        amp = Amplifier.spw_style(16.0, 3.0, -12.0)
        serial = characterize(amp, seed=2, jobs=1)
        pooled = characterize(amp, seed=2, jobs=2)
        assert np.array_equal(
            serial.compression.output_dbm, pooled.compression.output_dbm
        )
        assert serial.intermod.iip3_dbm == pooled.intermod.iip3_dbm
        assert serial.noise.noise_figure_db == pooled.noise.noise_figure_db

    def test_compression_sweep_parallel_identical(self):
        from repro.flow.rfsim import swept_power_compression
        from repro.rf.amplifier import Amplifier

        amp = Amplifier.spw_style(10.0, 0.0, -10.0)
        grid = np.arange(-30.0, -9.0, 3.0)
        serial = swept_power_compression(amp, input_dbm=grid, jobs=1)
        pooled = swept_power_compression(amp, input_dbm=grid, jobs=2)
        assert np.array_equal(serial.output_dbm, pooled.output_dbm)


# -- early stop under batching -----------------------------------------
class TestChunkedEarlyStop:
    """The stop is per packet, so a batch never overshoots it."""

    #: Low SNR: every packet is lost, so each contributes exactly
    #: ``n_bits / 2`` bit errors and the stop point is predictable.
    CONFIG = dict(rate_mbps=54, psdu_bytes=40, snr_db=-10.0)

    def test_serial_chunk1_matches_legacy_stop(self):
        bench = WlanTestbench(_fast_config(**self.CONFIG))
        m = bench.measure_ber(n_packets=12, seed=0, max_bit_errors=200)
        # 160 errors/packet: the threshold crosses during packet 2.
        assert m.packets == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunked_stop_overshoots_at_most_one_chunk(self, jobs):
        bench = WlanTestbench(_fast_config(**self.CONFIG))
        serial = bench.measure_ber(n_packets=12, seed=0, max_bit_errors=200)
        chunked = bench.measure_ber(
            n_packets=12, seed=0, max_bit_errors=200,
            jobs=jobs, batch_size=4,
        )
        # Packets of the batch after the crossing one are not counted.
        assert chunked == serial
        assert chunked.packets == 2
        assert chunked.bits_total == chunked.packets * 320

    def test_equal_chunk_sizes_identical_across_jobs(self):
        bench = WlanTestbench(_fast_config(**self.CONFIG))
        one = bench.measure_ber(
            n_packets=12, seed=0, max_bit_errors=200, jobs=1, batch_size=4
        )
        two = bench.measure_ber(
            n_packets=12, seed=0, max_bit_errors=200, jobs=2, batch_size=4
        )
        assert one.packets == two.packets
        assert one.ber == two.ber


# -- memoization -------------------------------------------------------
class TestMemoization:
    def _sweep(self):
        return ParameterSweep(
            _fast_config(), "snr_db", [6.0, 10.0], n_packets=3, seed=4,
        )

    def test_second_run_reuses_stored_points(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = self._sweep().run(store=store, memoize=True)
        assert len(store.list_runs(kind="point")) == 2

        class Recorder:
            def __init__(self):
                self.events = []

            def on_event(self, event):
                self.events.append(event)

        recorder = Recorder()
        second = self._sweep().run(
            store=store, memoize=True, progress=recorder,
        )
        assert np.array_equal(first.bers, second.bers)
        assert recorder.events
        assert all(e.data["memoized"] for e in recorder.events)
        assert len(store.list_runs(kind="point")) == 2

    def test_memoized_measurement_roundtrips_exactly(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = self._sweep().run(store=store, memoize=True)
        second = self._sweep().run(store=store, memoize=True)
        for a, b in zip(first.points, second.points):
            assert a.measurement.ber == b.measurement.ber
            assert a.measurement.bit_errors == b.measurement.bit_errors
            assert a.measurement.bits_total == b.measurement.bits_total
            assert a.measurement.packets == b.measurement.packets
            assert a.measurement.packets_lost == b.measurement.packets_lost

    def test_different_setup_misses_cache(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        self._sweep().run(store=store, memoize=True)
        other = ParameterSweep(
            _fast_config(), "snr_db", [6.0, 10.0], n_packets=4, seed=4,
        )
        other.run(store=store, memoize=True)
        assert len(store.list_runs(kind="point")) == 4

    def test_memo_key_depends_on_sweep_seed(self):
        # Regression: the key once hashed seed_entropy(child), which is
        # None for every spawned child, so sweeps with different base
        # seeds shared keys and --memoize served one seed's points to
        # another.
        from repro.core.sweep import _point_memo_key

        config = _fast_config()
        keys = {
            _point_memo_key(config, 3, perf.spawn(seed, 2)[0], 0, None)
            for seed in (42, 99)
        }
        assert len(keys) == 2

    def test_early_stop_key_tracks_batch_size(self, tmp_path):
        # With max_bit_errors set the stop is checked per packet, so a
        # batch-1 result answers a batch-16 run exactly and both share
        # one store entry per point.
        def sweep():
            return ParameterSweep(
                TestbenchConfig(rate_mbps=54, snr_db=12.0), "snr_db",
                [12.0, 14.0], n_packets=16, seed=3, max_bit_errors=200,
            )

        store = RunStore(tmp_path / "runs")
        with perf.use_context(batch_size=1):
            sweep().run(store=store, memoize=True)
        with perf.use_context(batch_size=16):
            memoized = sweep().run(store=store, memoize=True)
            fresh = sweep().run()
        assert [p.measurement.packets for p in memoized.points] == [
            p.measurement.packets for p in fresh.points
        ]
        assert np.array_equal(memoized.bers, fresh.bers)
        assert len(store.list_runs(kind="point")) == 2

    def test_memo_key_ignores_batch_size_without_early_stop(self):
        import inspect

        from repro.core.sweep import _point_memo_key

        config = _fast_config()
        child = perf.spawn(4, 1)[0]
        assert "batch_size" not in inspect.signature(
            _point_memo_key
        ).parameters
        for max_bit_errors in (None, 200):
            with perf.use_context(batch_size=1):
                one = _point_memo_key(config, 3, child, 0, max_bit_errors)
            with perf.use_context(batch_size=16):
                sixteen = _point_memo_key(config, 3, child, 0, max_bit_errors)
            assert one == sixteen

    def test_different_seed_misses_cache(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        self._sweep().run(store=store, memoize=True)
        reseeded = ParameterSweep(
            _fast_config(), "snr_db", [6.0, 10.0], n_packets=3, seed=5,
        )
        reseeded.run(store=store, memoize=True)
        assert len(store.list_runs(kind="point")) == 4

    def test_manager_parallel_populates_cache(self, tmp_path):
        # Workers cannot write to the store; their fresh points must
        # ride back on the SweepResult and be persisted by the parent,
        # so --jobs N --memoize warms the cache like a serial run.
        def build():
            manager = SimulationManager()
            manager.add("a", self._sweep())
            manager.add("b", ParameterSweep(
                _fast_config(), "snr_db", [6.0, 10.0], n_packets=3, seed=7,
            ))
            return manager

        store = RunStore(tmp_path / "runs")
        writer = store.create("sweep", name="ambient", seed=4)
        previous_writer = obs.set_current_writer(writer)
        try:
            with perf.use_context(memoize=True):
                first = build().run_all(jobs=2)
                assert len(store.list_runs(kind="point")) == 4

                second = build().run_all(jobs=2)
        finally:
            obs.set_current_writer(previous_writer)
        assert len(store.list_runs(kind="point")) == 4
        assert np.array_equal(first["a"].bers, second["a"].bers)
        assert np.array_equal(first["b"].bers, second["b"].bers)

    def test_memoize_off_stores_no_points(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        self._sweep().run(store=store)
        assert store.list_runs(kind="point") == []

    def test_ambient_memoize_default(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with perf.use_context(memoize=True):
            self._sweep().run(store=store)
        assert len(store.list_runs(kind="point")) == 2


# -- campaign ----------------------------------------------------------
class TestCampaignParallel:
    def test_fast_checks_identical_verdicts(self):
        from repro.core.campaign import VerificationCampaign

        campaign = VerificationCampaign(depth="quick", seed=0)
        only = ["phy_loopback", "transmit_mask"]
        serial = campaign.run(only=only)
        pooled = campaign.run(only=only, jobs=2)
        assert [r.name for r in serial.results] == [
            r.name for r in pooled.results
        ]
        assert [r.passed for r in serial.results] == [
            r.passed for r in pooled.results
        ]
        assert [r.detail for r in serial.results] == [
            r.detail for r in pooled.results
        ]
