"""Deterministic process-pool execution for the verification flow.

:func:`parallel_map` is the one fan-out primitive every parallel layer
uses — sweep points, packet chunks, campaign checks, characterization
analyses.  Its contract:

* **Order-preserving.**  Results are consumed strictly in task order,
  whatever order workers finish in, so accumulation is reproducible.
* **Bit-identical to serial.**  With per-task seed derivation
  (:mod:`repro.perf.seeding`) a task's output does not depend on which
  worker ran it; ``jobs=1`` runs the very same task function in-process.
* **Early-stop aware.**  An optional ``stop`` predicate is evaluated in
  task order; once it fires, no new tasks are dispatched, in-flight
  tasks drain, and their results are discarded — the consumed prefix is
  exactly what a serial run would have consumed.
* **Fault-tolerant.**  A task exception does not propagate raw out of
  ``future.result()``: the attempt is captured as a
  :class:`repro.perf.resilience.TaskError` (exception type, message,
  traceback, task index, worker pid), retried up to ``retries`` times
  with the *same* payload (so a retry that succeeds is bit-identical to
  a clean run), and only then surfaced — as a raised
  :class:`~repro.perf.resilience.TaskFailedError` (``on_error="raise"``)
  or as the task's result (``on_error="capture"``).  A per-task
  ``task_timeout`` turns runaway tasks into ordinary task errors, a
  dying worker (``BrokenProcessPool``) degrades the region to
  in-process serial execution of the remaining tasks, and on *every*
  exit path — clean, stopped, failed, aborted — in-flight futures are
  cancelled or drained and the region's metrics and ``parallel:{stage}``
  span are still emitted.
* **Observable.**  Each task becomes a span on the active tracer, the
  workers' own spans and metrics are re-absorbed into the parent
  tracer/registry (in task order, so merged metrics are deterministic),
  and every region — pooled or the in-process fast path — reports a
  ``parallel_efficiency`` gauge (``busy_time / (jobs * wall_time)``,
  1.0 in-process) labelled with both the *requested* and the
  *effective* job count, a ``parallel_tasks`` counter, and the
  resilience counters ``parallel_task_retries`` /
  ``parallel_task_failures`` / ``parallel_tasks_discarded`` /
  ``parallel_pool_broken``, so a ``repro profile`` comparison across
  job counts lines up metric for metric.  Only true pool regions wrap
  themselves in a ``parallel:{stage}`` span with per-task child spans;
  the in-process path records the task function's own spans inline
  instead.  A failed attempt's partial worker telemetry is *discarded*
  (only its wall-clock is accounted), so the merged metrics of a
  retried-then-clean run match a fault-free run exactly.

Nested parallelism is suppressed: a worker process resolves any
``jobs`` request to 1, so the outermost parallel layer wins and inner
layers run serially inside the workers.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.perf import faults as _faults
from repro.perf import resilience as _resilience
from repro.perf.resilience import TaskError, TaskFailedError

__all__ = [
    "ParallelResult",
    "cpu_count",
    "get_default_batch_size",
    "get_default_jobs",
    "get_default_memoize",
    "in_worker",
    "parallel_map",
    "resolve_batch_size",
    "resolve_jobs",
    "set_default_batch_size",
    "set_default_jobs",
    "set_default_memoize",
]

#: Ambient job count installed by the CLI's ``--jobs`` flag (1 = serial).
_default_jobs = 1

#: Ambient PHY batch size installed by the CLI's ``--batch-size`` flag
#: (1 = the batched chain run in groups of one).
_default_batch_size = 1

#: Ambient memoization default installed by the CLI's ``--memoize`` flag.
_default_memoize = False

#: Set in pool workers so nested fan-out degrades to serial.
_in_worker = False


def cpu_count() -> int:
    """Usable CPU count (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def set_default_jobs(jobs: Optional[int]) -> int:
    """Install the ambient job count (the CLI's ``--jobs``).

    Args:
        jobs: worker count; 0 or None means "auto" (one per CPU).

    Returns:
        The previous default.
    """
    global _default_jobs
    previous = _default_jobs
    _default_jobs = resolve_jobs(jobs if jobs is not None else 0)
    return previous


def get_default_jobs() -> int:
    """The ambient job count (1 unless ``--jobs``/``set_default_jobs``)."""
    return _default_jobs


def set_default_batch_size(batch_size: Optional[int]) -> int:
    """Install the ambient PHY batch size (the CLI's ``--batch-size``).

    Args:
        batch_size: packets per stacked PHY-chain evaluation; None or 1
            runs the chain one packet per batch.

    Returns:
        The previous default.
    """
    global _default_batch_size
    previous = _default_batch_size
    _default_batch_size = resolve_batch_size(
        batch_size if batch_size is not None else 1
    )
    return previous


def get_default_batch_size() -> int:
    """The ambient PHY batch size (1 unless ``--batch-size`` was given)."""
    return _default_batch_size


def resolve_batch_size(batch_size: Optional[int]) -> int:
    """Turn a ``batch_size=`` argument into a concrete batch size.

    ``None`` defers to the ambient default; explicit values must be
    positive.  Batching is a pure throughput knob — results are
    bit-identical at every batch size.
    """
    if batch_size is None:
        return _default_batch_size
    batch_size = int(batch_size)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def set_default_memoize(memoize: bool) -> bool:
    """Install the ambient memoization default (the CLI's ``--memoize``).

    Returns:
        The previous default.
    """
    global _default_memoize
    previous = _default_memoize
    _default_memoize = bool(memoize)
    return previous


def get_default_memoize() -> bool:
    """The ambient memoization default (False unless ``--memoize``)."""
    return _default_memoize


def in_worker() -> bool:
    """Whether this process is a pool worker (nested fan-out disabled)."""
    return _in_worker


def resolve_jobs(jobs: Optional[int]) -> int:
    """Turn a ``jobs=`` argument into a concrete worker count.

    ``None`` defers to the ambient default, ``0`` means one worker per
    CPU, and anything is clamped to 1 inside a pool worker so parallel
    layers never nest.
    """
    if _in_worker:
        return 1
    if jobs is None:
        return _default_jobs
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = cpu_count()
    return max(1, jobs)


class ParallelResult(List[Any]):
    """The consumed results (a list), plus execution telemetry.

    Attributes:
        jobs: worker count the region actually ran with (1 =
            in-process; a single-task region always runs in-process).
        jobs_requested: worker count the caller's configuration asked
            for, before the single-task rewrite — ``repro profile``
            comparisons report both so the region's label always
            matches the requested configuration.
        wall_s: wall-clock of the whole region.
        busy_s: summed task execution time across workers, including
            failed attempts and drained-but-discarded tasks.
        efficiency: ``busy_s / (jobs * wall_s)`` — 1.0 is perfect
            scaling, ``1/jobs`` means the pool bought nothing.
        stopped: whether the ``stop`` predicate ended the region early.
        retries: task attempts re-run after a captured failure.
        failures: :class:`TaskError` of every task that exhausted its
            retries (at most one when ``on_error="raise"``).
        discarded: in-flight tasks that ran to completion after an
            early stop / failure but whose results were discarded.
        pool_broken: whether a dying worker broke the process pool and
            the region fell back to in-process serial execution.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs: int = 1
        self.jobs_requested: int = 1
        self.wall_s: float = 0.0
        self.busy_s: float = 0.0
        self.efficiency: float = 1.0
        self.stopped: bool = False
        self.retries: int = 0
        self.failures: List[TaskError] = []
        self.discarded: int = 0
        self.pool_broken: bool = False


def _init_worker(batch_size: int = 1) -> None:
    """Pool initializer: mark the process so nested fan-out is serial.

    A forked worker also inherits the parent's ambient live monitor;
    it is disabled here so events emitted inside tasks stay invisible
    to the parent-side flight recorder — the in-process fast path
    suppresses them symmetrically via ``obs.live_suspended``, which is
    what keeps serial and pooled flight records identical.  The ambient
    PHY batch size is forwarded explicitly so spawn-based platforms
    match fork-based ones.
    """
    global _in_worker, _default_batch_size
    _in_worker = True
    _default_batch_size = batch_size
    obs.set_live_monitor(None)


def _worker_call(payload):
    """Run one task attempt in a worker under capturable instrumentation.

    Returns ``(result, duration_s, pid, metrics_snapshot, span_dicts,
    probe_snapshot)``; ``result`` is a :class:`TaskError` when the
    attempt raised (fault injection, task exception, or timeout), in
    which case the metrics snapshot, spans and probe state are from the
    *failed* attempt and the parent discards them to keep merged
    telemetry identical to a clean run.
    """
    (fn, task, index, attempt, stage, want_spans, timeout_s, plan,
     probe_cfg) = payload
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer() if want_spans else None
    probes = obs.ProbeRegistry(probe_cfg) if probe_cfg is not None else None
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(tracer) if want_spans else None
    previous_probes = obs.set_probes(probes) if probes is not None else None
    start = time.perf_counter()
    try:
        try:
            # Faults run inside the guard so an injected delay is
            # subject to the same timeout as real task work.
            with _resilience.task_timeout_guard(timeout_s):
                _faults.apply_task_faults(
                    plan, stage, index, attempt, _in_worker
                )
                result = fn(task)
        except Exception as exc:  # structured capture, never raw
            result = _resilience.task_error_from(exc, index, attempt)
    finally:
        obs.set_registry(previous_registry)
        if want_spans:
            obs.set_tracer(previous_tracer)
        if probes is not None:
            obs.set_probes(previous_probes)
    duration = time.perf_counter() - start
    spans = (
        [r.as_dict() for r in tracer.records] if tracer is not None else None
    )
    probe_snap = probes.snapshot() if probes is not None else None
    return (result, duration, os.getpid(), registry.snapshot(), spans,
            probe_snap)


def _run_attempts_inprocess(
    fn: Callable[[Any], Any],
    task: Any,
    index: int,
    stage: str,
    retries: int,
    timeout_s: Optional[float],
    reseed: Optional[Callable[[Any, int], Any]],
    plan,
    out: "ParallelResult",
    first_attempt: int = 0,
) -> Any:
    """Run one task in-process with the full retry/timeout/fault stack.

    Returns the task's result, or the final attempt's
    :class:`TaskError` once retries are exhausted.  Used by the serial
    fast path and by the broken-pool fallback.
    """
    error: Optional[TaskError] = None
    ambient_probes = obs.get_probes()
    for attempt in range(first_attempt, retries + 1):
        attempt_task = (
            task if (reseed is None or attempt == 0) else reseed(task, attempt)
        )
        # Each attempt accumulates probe taps into its own scratch
        # registry, merged into the ambient one only on success — the
        # same snapshot/merge tree the pooled path builds, so serial,
        # pooled and faulted-then-retried probe state is bit-identical,
        # and a failed attempt's taps are discarded like its metrics.
        scratch = ambient_probes.spawn() if ambient_probes.enabled else None
        if scratch is not None:
            obs.set_probes(scratch)
        t0 = time.perf_counter()
        try:
            with _resilience.task_timeout_guard(timeout_s):
                _faults.apply_task_faults(
                    plan, stage, index, attempt, _in_worker
                )
                # Suspended so events the task emits internally stay
                # out of the live monitor, matching pooled workers
                # (whose monitor _init_worker disables).
                with obs.live_suspended():
                    result = fn(attempt_task)
            duration = time.perf_counter() - t0
            out.busy_s += duration
            if scratch is not None:
                ambient_probes.merge(scratch.snapshot())
            obs.live_note_task(
                stage, index, duration, os.getpid(), ok=True,
                attempt=attempt,
            )
            return result
        except Exception as exc:  # structured capture, never raw
            duration = time.perf_counter() - t0
            out.busy_s += duration
            error = _resilience.task_error_from(exc, index, attempt)
            _record_task_failure(error, stage)
            obs.live_note_task(
                stage, index, duration, os.getpid(), ok=False,
                attempt=attempt,
            )
            if attempt < retries:
                out.retries += 1
        finally:
            if scratch is not None:
                obs.set_probes(ambient_probes)
    return error


def _record_task_failure(error: TaskError, stage: str) -> None:
    """Emit the failure's telemetry: a counter tick and a trace event."""
    obs.get_registry().counter(
        "parallel_task_errors", "task attempts that raised"
    ).inc(stage=stage, exc_type=error.exc_type)
    obs.get_tracer().event(
        "task_error",
        stage=stage,
        index=error.index,
        attempt=error.attempt,
        exc_type=error.exc_type,
        message=error.message,
        worker_pid=error.worker_pid,
    )


def _emit_region_metrics(out: "ParallelResult", stage: str) -> None:
    """Report a region's scaling + resilience telemetry (every path)."""
    registry = obs.get_registry()
    registry.gauge(
        "parallel_efficiency",
        "busy / (jobs * wall) of a parallel region",
    ).set(out.efficiency, stage=stage, jobs=out.jobs,
          requested=out.jobs_requested)
    registry.counter(
        "parallel_tasks", "tasks executed by parallel regions"
    ).inc(len(out), stage=stage)
    registry.counter(
        "parallel_task_retries", "task attempts re-run after a failure"
    ).inc(out.retries, stage=stage)
    registry.counter(
        "parallel_task_failures", "tasks that exhausted their retries"
    ).inc(len(out.failures), stage=stage)
    registry.counter(
        "parallel_tasks_discarded",
        "in-flight tasks drained after an early stop, their work unused",
    ).inc(out.discarded, stage=stage)
    if out.pool_broken:
        registry.counter(
            "parallel_pool_broken",
            "regions that lost their pool and fell back to serial",
        ).inc(stage=stage)


def _drain_futures(
    futures: Dict[int, Any], out: "ParallelResult"
) -> None:
    """Cancel pending futures and drain running ones on region exit.

    ``Future.cancel`` only stops not-yet-started tasks; anything
    already executing runs to completion inside the executor, so its
    wall-clock is accounted into ``busy_s`` and counted as discarded
    work — ``efficiency`` stays honest about what the pool really did.
    """
    for index in sorted(futures):
        future = futures.pop(index)
        if future.cancel():
            continue
        try:
            result, duration = future.result()[:2]
        except Exception:  # broken pool / interpreter teardown
            continue
        out.busy_s += duration
        out.discarded += 1


def _finish_task(
    out: "ParallelResult",
    index: int,
    result: Any,
    on_result: Optional[Callable[[int, Any], None]],
    stop: Optional[Callable[[int, Any], bool]],
    on_error: str,
) -> bool:
    """Consume one final (post-retry) task result, in task order.

    Returns True when the region should stop dispatching.
    """
    if isinstance(result, TaskError):
        out.failures.append(result)
        if on_error == "raise":
            raise TaskFailedError(result)
    out.append(result)
    if on_result is not None:
        on_result(index, result)
    if stop is not None and stop(index, result):
        out.stopped = True
        return True
    return False


def _pool_context():
    """Prefer fork (cheap, inherits the loaded stack) where available."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    stage: str = "parallel",
    stop: Optional[Callable[[int, Any], bool]] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    window: Optional[int] = None,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    reseed: Optional[Callable[[Any, int], Any]] = None,
    on_error: str = "raise",
) -> ParallelResult:
    """Apply ``fn`` to every task, in order, optionally across processes.

    Args:
        fn: a picklable callable (module-level function) of one task.
        tasks: the work items, each picklable.
        jobs: worker processes; None defers to the ambient ``--jobs``
            default, 0 means one per CPU, 1 runs in-process.
        stage: label for spans/metrics (``"sweep"``, ``"ber"``, ...).
        stop: ``stop(index, result)`` evaluated strictly in task order
            after each result is consumed; True ends the region — no
            further task is dispatched and later in-flight results are
            discarded, mirroring a serial early-stop.
        on_result: ``on_result(index, result)`` called in task order for
            each consumed result (progress reporting).
        window: max in-flight tasks beyond the consumed front (default
            ``2 * jobs``); bounds wasted work after an early stop.
        retries: times a failed task is re-run before its error is
            surfaced; None defers to the ambient ``--retries`` default
            (0).  Retries re-run the *same* payload, so a retry that
            succeeds is bit-identical to a clean run; callers that want
            per-attempt entropy pass ``reseed``.
        task_timeout: per-task wall-clock budget in seconds (a timeout
            becomes an ordinary task error, retried like any other);
            None defers to the ambient ``--task-timeout`` default.
        reseed: ``reseed(task, attempt) -> task`` mapping a task to its
            attempt-``k`` payload (attempt 0 always uses the original);
            pair with :func:`repro.perf.seeding.attempt_seed` for
            reproducible per-attempt streams.
        on_error: ``"raise"`` (default) raises
            :class:`~repro.perf.resilience.TaskFailedError` once a task
            exhausts its retries — with in-flight work drained and
            region telemetry still emitted; ``"capture"`` appends the
            :class:`~repro.perf.resilience.TaskError` as the task's
            result and keeps going.

    Returns:
        A :class:`ParallelResult` with the consumed results (a prefix
        of ``tasks``'s results) and scaling + resilience telemetry.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f"unknown on_error mode {on_error!r}")
    jobs = resolve_jobs(jobs)
    retries = _resilience.resolve_retries(retries)
    task_timeout = _resilience.resolve_task_timeout(task_timeout)
    plan = _faults.get_fault_plan()
    out = ParallelResult()
    out.jobs_requested = jobs
    out.jobs = jobs
    tasks = list(tasks)
    tracer = obs.get_tracer()
    start = time.perf_counter()

    if jobs == 1 or len(tasks) <= 1:
        out.jobs = 1
        obs.live_note_region(stage, len(tasks), 1)
        try:
            for i, task in enumerate(tasks):
                _faults.check_abort(plan, stage, i)
                result = _run_attempts_inprocess(
                    fn, task, i, stage, retries, task_timeout, reseed,
                    plan, out,
                )
                if _finish_task(out, i, result, on_result, stop, on_error):
                    break
        finally:
            out.wall_s = time.perf_counter() - start
            out.efficiency = 1.0
            _emit_region_metrics(out, stage)
        return out

    ambient_probes = obs.get_probes()
    probe_cfg = ambient_probes.config if ambient_probes.enabled else None
    want_spans = bool(tracer.enabled)
    window = max(jobs, window if window is not None else 2 * jobs)
    obs.live_note_region(stage, len(tasks), jobs)
    try:
        with obs.span(f"parallel:{stage}", jobs=jobs, tasks=len(tasks)):
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(_default_batch_size,),
            ) as executor:
                futures: Dict[int, Any] = {}
                next_submit = 0

                def submit(index, attempt):
                    attempt_task = (
                        tasks[index]
                        if (reseed is None or attempt == 0)
                        else reseed(tasks[index], attempt)
                    )
                    futures[index] = executor.submit(
                        _worker_call,
                        (fn, attempt_task, index, attempt, stage,
                         want_spans, task_timeout, plan, probe_cfg),
                    )

                def submit_up_to(limit):
                    nonlocal next_submit
                    while next_submit < min(limit, len(tasks)):
                        submit(next_submit, 0)
                        next_submit += 1

                i = 0
                broken_at: Optional[int] = None
                try:
                    submit_up_to(window)
                    while i < len(tasks):
                        if i not in futures:
                            break
                        _faults.check_abort(plan, stage, i)
                        (result, duration, pid, metrics, spans,
                         probe_snap) = futures.pop(i).result()
                        out.busy_s += duration
                        failed = isinstance(result, TaskError)
                        if not failed:
                            # Failed attempts contribute wall-clock
                            # only: their partial telemetry is dropped
                            # so merged metrics match a clean run.
                            obs.get_registry().merge(metrics)
                            if probe_snap is not None:
                                ambient_probes.merge(probe_snap)
                        record = tracer.record_span(
                            f"{stage}:task", duration,
                            index=i, worker_pid=pid, jobs=jobs,
                            **(
                                {"error": result.exc_type,
                                 "attempt": result.attempt}
                                if failed else {}
                            ),
                        )
                        if spans and not failed:
                            tracer.absorb(
                                spans,
                                parent_id=(
                                    record.span_id if record else None
                                ),
                            )
                        obs.live_note_task(
                            stage, i, duration, pid, ok=not failed,
                            attempt=result.attempt if failed else 0,
                        )
                        if failed:
                            _record_task_failure(result, stage)
                            if result.attempt < retries:
                                out.retries += 1
                                submit(i, result.attempt + 1)
                                continue
                        if _finish_task(
                            out, i, result, on_result, stop, on_error
                        ):
                            break
                        i += 1
                        submit_up_to(i + window)
                except BrokenProcessPool:
                    # Raised from .result() of the crashed task's
                    # future *or* from a later submit; either way the
                    # tasks from ``i`` on have not been consumed.
                    broken_at = i
                finally:
                    _drain_futures(futures, out)
                if broken_at is not None:
                    # A worker died (SIGKILL, OOM...): the pool is
                    # unusable, so degrade gracefully — finish the
                    # remaining tasks in-process.  Seed derivation makes
                    # the results identical to an unbroken run; attempt
                    # numbering restarts for tasks the pool lost.
                    out.pool_broken = True
                    for i in range(broken_at, len(tasks)):
                        _faults.check_abort(plan, stage, i)
                        result = _run_attempts_inprocess(
                            fn, tasks[i], i, stage, retries, task_timeout,
                            reseed, plan, out,
                        )
                        if _finish_task(
                            out, i, result, on_result, stop, on_error
                        ):
                            break
    finally:
        out.wall_s = time.perf_counter() - start
        out.efficiency = (
            out.busy_s / (out.jobs * out.wall_s) if out.wall_s > 0 else 1.0
        )
        _emit_region_metrics(out, stage)
    return out
