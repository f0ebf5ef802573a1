"""The run context: every execution setting of a run, in one value.

A frozen :class:`RunContext` bundles what the CLI's execution flags
select (``--jobs``, ``--batch-size``, ``--memoize``, ``--retries``,
``--task-timeout``, ``--resume``, ``--inject-faults``) plus the
``in_worker`` mark that keeps parallel layers from nesting.
:func:`use_context` installs one for a ``with`` block, and
:func:`repro.perf.parallel_map` hands it to its pool workers
explicitly, whatever the process start method.  Library calls taking
``None`` (``jobs=None``, ``retries=None``...) resolve through it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.perf.faults import FaultPlan

__all__ = [
    "RunContext",
    "cpu_count",
    "current_context",
    "in_worker",
    "resolve_batch_size",
    "resolve_jobs",
    "resolve_retries",
    "resolve_task_timeout",
    "set_default_batch_size",
    "use_context",
]


def cpu_count() -> int:
    """Usable CPU count (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RunContext:
    """Execution settings of a run (validated and normalised on build).

    Attributes:
        jobs: worker processes of a parallel region (0 builds as one
            per CPU; 1 = in-process).
        batch_size: packets per stacked PHY-chain pass.
        memoize: reuse stored sweep-point results.
        retries: re-runs of a failed task before its error surfaces.
        task_timeout: per-task wall-clock budget in seconds (None = no
            budget).
        resume: resume interrupted sweeps/campaigns from checkpoints.
        fault_plan: injected faults (None = none, the common case).
        in_worker: set inside pool workers, where every ``jobs``
            request resolves to 1 so the outermost fan-out wins.
    """

    jobs: int = 1
    batch_size: int = 1
    memoize: bool = False
    retries: int = 0
    task_timeout: Optional[float] = None
    resume: bool = False
    fault_plan: Optional[FaultPlan] = None
    in_worker: bool = False

    def __post_init__(self):
        jobs, batch_size = int(self.jobs), int(self.batch_size)
        retries = int(self.retries)
        timeout = self.task_timeout
        timeout = float(timeout) if timeout is not None else None
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"task timeout must be > 0, got {timeout}")
        for name, value in (
            ("jobs", jobs or cpu_count()),
            ("batch_size", batch_size),
            ("memoize", bool(self.memoize)),
            ("retries", retries),
            ("task_timeout", timeout),
            ("resume", bool(self.resume)),
            ("in_worker", bool(self.in_worker)),
        ):
            object.__setattr__(self, name, value)


#: The installed context (the holder; change it through use_context).
_current = RunContext()


def current_context() -> RunContext:
    """The installed run context."""
    return _current


def _install(ctx: RunContext) -> RunContext:
    """Make ``ctx`` the installed context; returns the previous one."""
    global _current
    previous, _current = _current, ctx
    return previous


@contextmanager
def use_context(**changes) -> Iterator[RunContext]:
    """Install the current context with ``changes`` for a ``with`` block.

    ``changes`` are :class:`RunContext` fields; the previous context is
    restored on exit.  Yields the installed context.
    """
    ctx = replace(_current, **changes)
    previous = _install(ctx)
    try:
        yield ctx
    finally:
        _install(previous)


def set_default_batch_size(batch_size: Optional[int]) -> int:
    """Install a context with ``batch_size`` changed (None = 1).

    Kept for callers outside a ``with`` block; returns the previous
    batch size.
    """
    previous = _install(replace(
        _current, batch_size=batch_size if batch_size is not None else 1
    ))
    return previous.batch_size


def in_worker() -> bool:
    """Whether this process is a pool worker (nested fan-out disabled)."""
    return _current.in_worker


def _resolve(name: str, value):
    """``value`` validated as a context field, or the installed one."""
    if value is None:
        return getattr(_current, name)
    return getattr(RunContext(**{name: value}), name)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Turn a ``jobs=`` argument into a concrete worker count.

    ``None`` defers to the context, ``0`` means one worker per CPU, and
    anything is clamped to 1 inside a pool worker so parallel layers
    never nest.
    """
    return 1 if _current.in_worker else _resolve("jobs", jobs)


def resolve_batch_size(batch_size: Optional[int]) -> int:
    """Turn a ``batch_size=`` argument into a concrete batch size.

    ``None`` defers to the context; explicit values must be positive.
    Batching changes throughput, not results: an early-stop threshold
    is evaluated per packet, in packet order.
    """
    return _resolve("batch_size", batch_size)


def resolve_retries(retries: Optional[int]) -> int:
    """Turn a ``retries=`` argument into a concrete count (None=context)."""
    return _resolve("retries", retries)


def resolve_task_timeout(timeout_s: Optional[float]) -> Optional[float]:
    """Turn a ``task_timeout=`` argument into seconds (None=context)."""
    return _resolve("task_timeout", timeout_s)
