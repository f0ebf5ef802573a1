"""Structured task-failure capture for the parallel execution layer.

A long BER campaign must not lose hours of completed work because one
sweep point raised: this module gives :func:`repro.perf.parallel_map`
a *structured* failure model instead of a raw exception propagating out
of ``future.result()``:

* a worker exception is captured as a :class:`TaskError` — exception
  type, message, full traceback string, task index, attempt number and
  worker pid — and travels back to the parent as an ordinary result;
* the parent retries the task deterministically (attempt ``k`` of task
  ``i`` re-runs the same payload, and callers that *want* fresh
  entropy per attempt derive it from the reproducible
  :func:`repro.perf.seeding.attempt_seed` stream);
* a per-task wall-clock budget is enforced with
  :func:`task_timeout_guard` (SIGALRM on POSIX main threads; elsewhere
  the guard is a documented no-op);
* once retries are exhausted the region either raises
  :class:`TaskFailedError` (``on_error="raise"``, the default — with
  in-flight futures drained and region telemetry still emitted) or
  hands the :class:`TaskError` to the caller as the task's result
  (``on_error="capture"``).

The retry count and timeout a region uses by default come from the
installed :class:`repro.perf.RunContext` (the CLI's ``--retries`` and
``--task-timeout``).
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "TaskError",
    "TaskFailedError",
    "TaskTimeoutError",
    "task_error_from",
    "task_timeout_guard",
]


class TaskTimeoutError(Exception):
    """A task exceeded its per-task wall-clock budget."""


@dataclass
class TaskError:
    """Structured capture of one failed task attempt.

    Travels from a pool worker back to the parent as an ordinary
    (picklable) result, so a raised exception never tears down the
    region; the parent decides whether to retry, raise, or hand the
    error to the caller.

    Attributes:
        index: task index within the parallel region.
        attempt: zero-based attempt number that failed.
        exc_type: exception class name (e.g. ``"ValueError"``).
        message: ``str(exception)``.
        traceback: formatted traceback string of the failure site.
        worker_pid: pid of the process that ran the attempt.
    """

    index: int
    attempt: int
    exc_type: str
    message: str
    traceback: str
    worker_pid: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "attempt": self.attempt,
            "exc_type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback,
            "worker_pid": self.worker_pid,
        }

    def summary(self) -> str:
        """One line fit for a progress event or span attribute."""
        return (
            f"task {self.index} attempt {self.attempt}: "
            f"{self.exc_type}: {self.message}"
        )


class TaskFailedError(RuntimeError):
    """A task exhausted its retries (``on_error="raise"`` regions).

    Attributes:
        error: the :class:`TaskError` of the final failed attempt.
    """

    def __init__(self, error: TaskError):
        super().__init__(error.summary())
        self.error = error


def task_error_from(
    exc: BaseException, index: int, attempt: int
) -> TaskError:
    """Capture a live exception as a :class:`TaskError`."""
    return TaskError(
        index=index,
        attempt=attempt,
        exc_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        worker_pid=os.getpid(),
    )


@contextmanager
def task_timeout_guard(timeout_s: Optional[float]):
    """Raise :class:`TaskTimeoutError` if the body outlives its budget.

    Enforced with ``SIGALRM``, which requires a POSIX main thread (pool
    workers run tasks on their main thread, so the pooled path always
    enforces); anywhere else the guard is a no-op, documented rather
    than half-enforced.
    """
    if (
        timeout_s is None
        or timeout_s <= 0
        or os.name != "posix"
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise TaskTimeoutError(
            f"task exceeded its {timeout_s:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
