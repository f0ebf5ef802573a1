"""Per-attempt telemetry capture: one rule for every execution mode.

:func:`repro.perf.parallel_map` runs every task attempt — in a pool
worker or in-process — under :func:`capture`: a fresh metrics
registry, a fresh tracer when tracing is on, a spawned probe registry
when probes are on, and live capture suspended.  The parent folds an
attempt's :class:`Captured` telemetry into its own sinks with
:func:`merge_captured`, on success only and in task order, so a
failed attempt leaves no trace and serial, pooled and retried runs
record the same metrics, spans and probes.

:func:`installed` is the plain ``with``-style installer for the
ambient sinks (tracer, registry, probes, live monitor, run writer).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.live import set_live_monitor, suspended
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.probes import ProbeConfig, ProbeRegistry, get_probes, set_probes
from repro.obs.store import set_current_writer
from repro.obs.tracer import Tracer, get_tracer, set_tracer

__all__ = [
    "CaptureSpec",
    "Captured",
    "capture",
    "capture_spec",
    "installed",
    "merge_captured",
]

_SETTERS = {
    "tracer": set_tracer,
    "registry": set_registry,
    "probes": set_probes,
    "live_monitor": set_live_monitor,
    "writer": set_current_writer,
}


@contextmanager
def installed(**sinks) -> Iterator[None]:
    """Install ambient sinks for the ``with`` block, then restore them.

    Keywords are ``tracer``, ``registry``, ``probes``, ``live_monitor``
    and ``writer``; a sink not named stays as it is.
    """
    previous = {name: _SETTERS[name](sink) for name, sink in sinks.items()}
    try:
        yield
    finally:
        for name, sink in previous.items():
            _SETTERS[name](sink)


@dataclass(frozen=True)
class CaptureSpec:
    """What an attempt's capture records besides metrics (picklable).

    Attributes:
        spans: record spans and events (the parent is tracing).
        probes: probe configuration to tap with (None = probes off).
    """

    spans: bool = False
    probes: Optional[ProbeConfig] = None


def capture_spec() -> CaptureSpec:
    """The spec matching the installed tracer and probe registry."""
    probes = get_probes()
    return CaptureSpec(
        spans=bool(get_tracer().enabled),
        probes=probes.config if probes.enabled else None,
    )


@dataclass
class Captured:
    """Telemetry one attempt recorded (picklable, worker -> parent).

    Attributes:
        metrics: :meth:`MetricsRegistry.snapshot` of the attempt.
        spans: ``as_dict()`` records of its spans and events (None
            unless the spec asked for spans).
        probes: :meth:`ProbeRegistry.snapshot` (None with probes off).
    """

    metrics: Optional[Dict[str, Any]] = None
    spans: Optional[List[Dict[str, Any]]] = None
    probes: Optional[Dict[str, Any]] = None


@contextmanager
def capture(spec: CaptureSpec) -> Iterator[Captured]:
    """Run the block under fresh telemetry sinks, live capture suspended.

    Yields an empty :class:`Captured` that holds what the block recorded
    once the block has exited.  The live monitor itself stays installed
    (a metrics server reads it per request); only its capture is
    suspended, so events a task emits internally stay invisible to it
    in every execution mode.
    """
    registry = MetricsRegistry()
    tracer = Tracer() if spec.spans else None
    probes = ProbeRegistry(spec.probes) if spec.probes is not None else None
    sinks: Dict[str, Any] = {"registry": registry}
    if tracer is not None:
        sinks["tracer"] = tracer
    if probes is not None:
        sinks["probes"] = probes
    captured = Captured()
    try:
        with installed(**sinks), suspended():
            yield captured
    finally:
        captured.metrics = registry.snapshot()
        if tracer is not None:
            captured.spans = [r.as_dict() for r in tracer.records]
        if probes is not None:
            captured.probes = probes.snapshot()


def merge_captured(
    captured: Captured, parent_span_id: Optional[int] = None
) -> None:
    """Fold one successful attempt's telemetry into the installed sinks.

    Args:
        captured: what :func:`capture` recorded.
        parent_span_id: span to hang the attempt's root spans under;
            None uses the caller's active span.
    """
    get_registry().merge(captured.metrics)
    if captured.probes is not None:
        get_probes().merge(captured.probes)
    if captured.spans:
        get_tracer().absorb(captured.spans, parent_id=parent_span_id)
