"""``repro.obs`` — observability for the verification flow.

One package instruments the whole stack: structured tracing (nested
spans and events with a JSONL sink), a metrics registry (counters,
gauges, histograms with labels), run manifests (seed, config, versions,
source revision), unified progress events, and trace-profile analysis.

The instrumentation is **zero-cost when disabled**: the default tracer
is a no-op, so library code can be sprinkled with ``obs.span(...)``
without slowing down untraced runs.

Typical producer code::

    from repro import obs

    with obs.span("block:receiver", samples=baseband.size):
        result = receiver.receive(baseband)
    obs.get_registry().counter("packets_simulated").inc()

Typical consumer code::

    tracer = obs.Tracer()
    with obs.installed(tracer=tracer):
        run_experiment()
    tracer.write_jsonl("run.jsonl", header=obs.build_manifest().as_dict())
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.capture import (
    CaptureSpec,
    Captured,
    capture,
    capture_spec,
    installed,
    merge_captured,
)
from repro.obs.manifest import (
    SEEDING_SCHEME,
    RunManifest,
    build_manifest,
    source_revision,
)
from repro.obs.store import (
    RunEntry,
    RunRecord,
    RunStore,
    RunWriter,
    config_key,
    contribute,
    current_writer,
    set_current_writer,
)
from repro.obs.regress import (
    Delta,
    RegressionConfig,
    RegressionVerdict,
    compare_runs,
    flatten_metrics,
)
from repro.obs.report import (
    chrome_trace,
    render_html,
    render_markdown,
    render_run_markdown,
    render_timeline,
    run_sections,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.probes import (
    PROBE_PRESETS,
    ProbeConfig,
    ProbeRegistry,
    get_probes,
    probe_preset,
    set_probes,
)
from repro.obs.profile import SpanSummary, aggregate_spans, profile_rows
from repro.obs.live import (
    ConvergenceConfig,
    LiveDashboard,
    LiveMonitor,
    MetricsServer,
    classify_point,
    get_live_monitor,
    kpi_trend,
    openmetrics_text,
    parse_openmetrics,
    render_dashboard,
    set_live_monitor,
    sparkline,
)
from repro.obs.live import note_region as live_note_region
from repro.obs.live import note_task as live_note_task
from repro.obs.live import suspended as live_suspended
from repro.obs.progress import ProgressEvent, ProgressListener, as_listener, printer
from repro.obs.tracer import (
    EventRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    event,
    get_tracer,
    read_jsonl,
    set_tracer,
    span,
)

__all__ = [
    "CaptureSpec",
    "Captured",
    "ConvergenceConfig",
    "Counter",
    "Delta",
    "EventRecord",
    "Gauge",
    "Histogram",
    "LiveDashboard",
    "LiveMonitor",
    "MetricsRegistry",
    "MetricsServer",
    "NullTracer",
    "PROBE_PRESETS",
    "ProbeConfig",
    "ProbeRegistry",
    "ProgressEvent",
    "ProgressListener",
    "RegressionConfig",
    "RegressionVerdict",
    "RunEntry",
    "RunManifest",
    "RunRecord",
    "RunStore",
    "RunWriter",
    "SEEDING_SCHEME",
    "SpanRecord",
    "SpanSummary",
    "Timed",
    "Tracer",
    "aggregate_spans",
    "as_listener",
    "build_manifest",
    "capture",
    "capture_spec",
    "chrome_trace",
    "classify_point",
    "compare_runs",
    "config_key",
    "contribute",
    "current_writer",
    "event",
    "flatten_metrics",
    "get_live_monitor",
    "get_probes",
    "get_registry",
    "get_tracer",
    "installed",
    "kpi_trend",
    "live_note_region",
    "live_note_task",
    "live_suspended",
    "merge_captured",
    "openmetrics_text",
    "parse_openmetrics",
    "printer",
    "render_dashboard",
    "probe_preset",
    "profile_rows",
    "read_jsonl",
    "render_html",
    "render_markdown",
    "render_run_markdown",
    "render_timeline",
    "run_sections",
    "set_current_writer",
    "set_live_monitor",
    "set_probes",
    "set_registry",
    "set_tracer",
    "source_revision",
    "span",
    "sparkline",
    "timed",
    "write_chrome_trace",
]


class Timed:
    """A context manager that always measures, and traces when enabled.

    Unlike :func:`span` — which is free when tracing is off and
    therefore measures nothing — ``Timed`` always reads the monotonic
    clock, so callers that *need* the duration (the campaign's
    ``CheckResult.duration_s``, the co-simulation's wall times) get it
    identically whether or not a tracer is active.

    Attributes:
        elapsed: monotonic seconds; live while open, frozen after exit.
    """

    def __init__(self, name: str, **attributes):
        self._name = name
        self._attributes = attributes
        self._span = None
        self._start = 0.0
        self._elapsed: Optional[float] = None

    @property
    def elapsed(self) -> float:
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self._start

    def set(self, **attributes) -> "Timed":
        """Attach attributes to the underlying span (if tracing)."""
        self._span.set(**attributes)
        return self

    def __enter__(self) -> "Timed":
        self._span = span(self._name, **self._attributes)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._elapsed = time.perf_counter() - self._start
        self._span.__exit__(exc_type, exc, tb)


def timed(name: str, **attributes) -> Timed:
    """Open a :class:`Timed` region (the campaign's timing primitive)."""
    return Timed(name, **attributes)
