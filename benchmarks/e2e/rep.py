"""One benchmark repetition, in a fresh interpreter (started by run.py).

The process sets up (imports, sweep construction and one warm-up batch on
a seed the timed run never uses), then runs the timed pass.  Its last line
of standard output is one JSON object: the CPU seconds set-up took, and
the timed pass's packets, wall and CPU seconds, BER-curve digest, exact
counts and pool telemetry.  With ``--trace 1`` a second, traced pass
follows in the same process: its per-layer self times are added under
``"trace"`` and its spans are written to
``out/<workload>-seed<n>.trace.jsonl`` and ``.chrome.json``.

Set-up is timed in CPU seconds, not wall seconds: on a shared VM the host
can take the CPU away for a large share of the wall time, and that share
drifts from minute to minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import sys
import time

from layers import COUNTS, Instrumentation, self_times
from workloads import WARMUP_SEED_OFFSET, WORKLOADS, build_sweeps

from repro import obs, perf
from repro.core.testbench import WlanTestbench

#: Where a traced pass writes its span trace and Chrome trace.
TRACE_DIR = pathlib.Path(__file__).resolve().parent / "out"


def curve_digest(results) -> str:
    """sha256 of every point's (bit_errors, bits_total, packets, lost)."""
    points = [
        [m.bit_errors, m.bits_total, m.packets, m.packets_lost]
        for result in results
        for m in (p.measurement for p in result.points)
    ]
    return hashlib.sha256(json.dumps(points).encode()).hexdigest()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _probes(workload):
    if workload.probes is None:
        return obs.get_probes()
    return obs.ProbeRegistry(obs.probe_preset(workload.probes))


def run_pass(workload, sweeps, instrumentation, tracer=None) -> dict:
    """Run every sweep of the workload once and measure it."""
    registry = obs.MetricsRegistry()
    previous = (
        obs.set_registry(registry),
        obs.set_probes(_probes(workload)),
        obs.set_tracer(tracer),
    )
    instrumentation.regions.clear()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        results = [sweep.run(jobs=workload.jobs) for sweep in sweeps]
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        obs.set_registry(previous[0])
        obs.set_probes(previous[1])
        obs.set_tracer(previous[2])
    regions = instrumentation.regions
    return {
        "packets": sum(p.measurement.packets for r in results for p in r.points),
        "timed_s": wall,
        "cpu_s": cpu,
        "digest": curve_digest(results),
        "counts": {
            name: registry.counter(name).value() for name in COUNTS
        },
        "perf": {
            "tasks": sum(len(r) for r in regions),
            "retries": sum(r.retries for r in regions),
            "failures": sum(len(r.failures) for r in regions),
            "jobs_wall_s": sum(r.jobs * r.wall_s for r in regions),
            "wall_s": sum(r.wall_s for r in regions),
            "busy_s": sum(r.busy_s for r in regions),
        },
    }


def traced_pass(workload, sweeps, instrumentation, seed) -> dict:
    """A second pass with every layer span on; adds per-layer self times."""
    instrumentation.install_spans()
    tracer = obs.Tracer()
    result = run_pass(workload, sweeps, instrumentation, tracer)
    records = tracer.records
    seconds = self_times(records)
    pool = result["perf"]
    # Pool workers overlap: the layers can cover the parent's own time
    # plus the workers' busy time, not jobs x the region's wall time.
    reference_s = result["timed_s"] - pool["wall_s"] + pool["busy_s"]
    result["trace"] = {
        "layer_s": seconds,
        "coverage": sum(seconds.values()) / reference_s,
    }
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    stem = TRACE_DIR / f"{workload.name}-seed{seed}"
    header = {"type": "manifest", "workload": workload.name, "seed": seed}
    tracer.write_jsonl(f"{stem}.trace.jsonl", header=header)
    obs.write_chrome_trace(f"{stem}.chrome.json", records, metadata=header)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    perf.set_default_batch_size(workload.batch_size)
    sweeps = build_sweeps(workload, args.seed)
    instrumentation = Instrumentation()
    instrumentation.install_counters()
    first = sweeps[0]
    previous = obs.set_probes(_probes(workload))
    try:
        # Two packets take the batched path when batch_size > 1, one the
        # per-packet path otherwise: every code path the pass will use.
        WlanTestbench(first._configured(first.values[0])).measure_ber(
            n_packets=min(workload.batch_size, 2),
            seed=args.seed + WARMUP_SEED_OFFSET,
            jobs=1,
        )
    finally:
        obs.set_probes(previous)
    setup_s = _cpu_s()

    result = run_pass(workload, sweeps, instrumentation)
    result["setup_s"] = setup_s
    if args.trace:
        result["traced"] = traced_pass(
            workload, sweeps, instrumentation, args.seed
        )
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
