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
* **Observable.**  Every task attempt — in a pool worker or
  in-process — runs under one :func:`repro.obs.capture` (fresh metrics
  registry, fresh tracer when tracing, spawned probe registry when
  probing, live capture suspended), and the parent merges each
  attempt's capture through one function on success only, in task
  order: a failed attempt contributes its wall-clock and nothing else,
  so serial, pooled and retried runs record the same metrics, spans
  and probes.  Pool regions additionally wrap themselves in a
  ``parallel:{stage}`` span with one ``{stage}:task`` span per attempt.
  Every region — pooled or the in-process fast path — reports a
  ``parallel_efficiency`` gauge (``busy_time / (jobs * wall_time)``,
  1.0 in-process) labelled with both the *requested* and the
  *effective* job count, a ``parallel_tasks`` counter, and the
  resilience counters ``parallel_task_retries`` /
  ``parallel_task_failures`` / ``parallel_tasks_discarded`` /
  ``parallel_pool_broken``, so a ``repro profile`` comparison across
  job counts lines up metric for metric.

Run settings come from the installed :class:`repro.perf.RunContext`
and cross the process boundary explicitly: the context is the pool
initializer argument and part of every task payload.  Inside a worker
it is marked ``in_worker``, so any ``jobs`` request resolves to 1 and
the outermost parallel layer wins.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.perf import context as _context
from repro.perf import faults as _faults
from repro.perf import resilience as _resilience
from repro.perf.context import RunContext
from repro.perf.resilience import TaskError, TaskFailedError

__all__ = [
    "ParallelResult",
    "parallel_map",
]


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


def _attempt_task(task: Any, attempt: int, reseed) -> Any:
    """The payload of attempt ``attempt`` (attempt 0 is ``task`` itself)."""
    if reseed is None or attempt == 0:
        return task
    return reseed(task, attempt)


def _worker_call(payload):
    """Run one task attempt under a telemetry capture.

    The attempt body of every execution path: pool workers run it on
    the payload the parent submitted, and the in-process path calls it
    directly.  The payload is ``(fn, task, index, attempt, stage, ctx,
    spec)`` — the :class:`RunContext` supplies the timeout and fault
    plan, the :class:`obs.CaptureSpec` what to record.

    Returns ``(result, duration_s, pid, captured)``; ``result`` is a
    :class:`TaskError` when the attempt raised (fault injection, task
    exception, or timeout).
    """
    fn, task, index, attempt, stage, ctx, spec = payload
    with obs.capture(spec) as captured:
        start = time.perf_counter()
        try:
            # Faults run inside the guard so an injected delay is
            # subject to the same timeout as real task work.
            with _resilience.task_timeout_guard(ctx.task_timeout):
                _faults.apply_task_faults(
                    ctx.fault_plan, stage, index, attempt, ctx.in_worker
                )
                result = fn(task)
        except Exception as exc:  # structured capture, never raw
            result = _resilience.task_error_from(exc, index, attempt)
        duration = time.perf_counter() - start
    return result, duration, os.getpid(), captured


def _settle(
    out: "ParallelResult",
    stage: str,
    index: int,
    outcome: Tuple[Any, float, int, "obs.Captured"],
    retries: int,
    pool_jobs: Optional[int] = None,
) -> bool:
    """Account one attempt in the parent; returns True to retry it.

    The single rule of every path: the attempt's wall-clock always
    counts toward ``busy_s``, and its captured telemetry merges into
    the installed sinks only when it succeeded — so a retried-then-
    clean run records exactly what a fault-free run does.  Pool
    regions (``pool_jobs`` set) also record a ``{stage}:task`` span
    per attempt and hang the attempt's own spans under it.
    """
    result, duration, pid, captured = outcome
    out.busy_s += duration
    failed = isinstance(result, TaskError)
    parent_id = None
    if pool_jobs is not None:
        record = obs.get_tracer().record_span(
            f"{stage}:task", duration,
            index=index, worker_pid=pid, jobs=pool_jobs,
            **(
                {"error": result.exc_type, "attempt": result.attempt}
                if failed else {}
            ),
        )
        parent_id = record.span_id if record else None
    if not failed:
        obs.merge_captured(captured, parent_id)
    obs.live_note_task(
        stage, index, duration, pid, ok=not failed,
        attempt=result.attempt if failed else 0,
    )
    if not failed:
        return False
    _record_task_failure(result, stage)
    if result.attempt < retries:
        out.retries += 1
        return True
    return False


def _run_attempts_inprocess(
    fn: Callable[[Any], Any],
    task: Any,
    index: int,
    stage: str,
    retries: int,
    reseed: Optional[Callable[[Any, int], Any]],
    ctx: RunContext,
    spec: "obs.CaptureSpec",
    out: "ParallelResult",
) -> Any:
    """Run one task in-process with the full retry/timeout/fault stack.

    Returns the task's result, or the final attempt's
    :class:`TaskError` once retries are exhausted.  Used by the serial
    fast path and by the broken-pool fallback.
    """
    for attempt in range(retries + 1):
        outcome = _worker_call((
            fn, _attempt_task(task, attempt, reseed), index, attempt,
            stage, ctx, spec,
        ))
        if not _settle(out, stage, index, outcome, retries):
            break
    return outcome[0]


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
        jobs: worker processes; None defers to the run context
            (``--jobs``), 0 means one per CPU, 1 runs in-process.
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
            surfaced; None defers to the run context (``--retries``).
            Retries re-run the *same* payload, so a retry that succeeds
            is bit-identical to a clean run; callers that want
            per-attempt entropy pass ``reseed``.
        task_timeout: per-task wall-clock budget in seconds (a timeout
            becomes an ordinary task error, retried like any other);
            None defers to the run context (``--task-timeout``).
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
    jobs = _context.resolve_jobs(jobs)
    retries = _context.resolve_retries(retries)
    installed = _context.current_context()
    # The attempts of this region run with its own timeout; code nested
    # inside a task still resolves against the installed context.
    ctx = replace(
        installed, task_timeout=_context.resolve_task_timeout(task_timeout)
    )
    plan = ctx.fault_plan
    spec = obs.capture_spec()
    out = ParallelResult()
    out.jobs_requested = jobs
    out.jobs = jobs
    tasks = list(tasks)
    start = time.perf_counter()

    def run_inprocess(first: int) -> None:
        for i in range(first, len(tasks)):
            _faults.check_abort(plan, stage, i)
            result = _run_attempts_inprocess(
                fn, tasks[i], i, stage, retries, reseed, ctx, spec, out,
            )
            if _finish_task(out, i, result, on_result, stop, on_error):
                break

    if jobs == 1 or len(tasks) <= 1:
        out.jobs = 1
        obs.live_note_region(stage, len(tasks), 1)
        try:
            run_inprocess(0)
        finally:
            out.wall_s = time.perf_counter() - start
            out.efficiency = 1.0
            _emit_region_metrics(out, stage)
        return out

    window = max(jobs, window if window is not None else 2 * jobs)
    obs.live_note_region(stage, len(tasks), jobs)
    try:
        with obs.span(f"parallel:{stage}", jobs=jobs, tasks=len(tasks)):
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=_pool_context(),
                # Workers install the parent's context, marked
                # in_worker, whatever the start method; every attempt
                # then runs under a capture that suspends live events.
                initializer=_context._install,
                initargs=(replace(installed, in_worker=True),),
            ) as executor:
                futures: Dict[int, Any] = {}
                next_submit = 0

                worker_ctx = replace(ctx, in_worker=True)

                def submit(index, attempt):
                    futures[index] = executor.submit(
                        _worker_call,
                        (fn, _attempt_task(tasks[index], attempt, reseed),
                         index, attempt, stage, worker_ctx, spec),
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
                        outcome = futures.pop(i).result()
                        if _settle(out, stage, i, outcome, retries, jobs):
                            submit(i, outcome[0].attempt + 1)
                            continue
                        if _finish_task(
                            out, i, outcome[0], on_result, stop, on_error
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
                    run_inprocess(broken_at)
    finally:
        out.wall_s = time.perf_counter() - start
        out.efficiency = (
            out.busy_s / (out.jobs * out.wall_s) if out.wall_s > 0 else 1.0
        )
        _emit_region_metrics(out, stage)
    return out
