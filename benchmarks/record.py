#!/usr/bin/env python
"""Record benchmark wall-clock and KPIs into ``BENCH_obs.json``.

Runs a small, fixed set of representative workloads — the quick-start BER
measurement, a miniature figure-5 sweep, the table-2 co-simulation timing
comparison and a sensitivity search — and writes one JSON document with
per-benchmark wall-clock and key KPIs.  With ``--store`` each benchmark
also persists a run in a :class:`repro.obs.RunStore`, so successive
recordings can be gated with ``repro runs diff``.

``--perf-out PATH`` additionally runs the parallel-scaling benchmark
(:mod:`benchmarks.bench_parallel_scaling`: the fixed 8-point sweep,
serial vs ``jobs=2`` and ``jobs=4``), the signal-probe overhead
benchmark (:mod:`benchmarks.bench_probes`: off vs basic vs full
presets), the batched PHY-engine throughput benchmark
(:mod:`benchmarks.bench_phy_throughput`: packets/s per rate and batch
size, KPI-identity checked against serial), the filter-design cost
benchmark (:mod:`benchmarks.bench_filter_design`: fig5 CPU ms and scipy
designs per steady-state packet) and the Viterbi cost benchmark
(:mod:`benchmarks.bench_viterbi`: µs per trellis step against row
count, bit-identity checked against the reference decoder) and the
real-row IQ filter benchmark (:mod:`benchmarks.bench_iq_filter`: µs per
resampling/zero-phase call at the workload shapes against scipy's
complex call, bit-identity checked) and writes their combined document
there.  It exits 1 if parallel results diverge from serial, a Viterbi
decode diverges from the reference or an IQ filter output diverges from
scipy's complex call.

Usage::

    PYTHONPATH=src python benchmarks/record.py --out BENCH_obs.json \
        --store benchmarks/results/runs --packets 2 \
        --perf-out BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.sensitivity import find_sensitivity  # noqa: E402
from repro.core.sweep import ParameterSweep  # noqa: E402
from repro.core.testbench import TestbenchConfig, WlanTestbench  # noqa: E402
from repro.flow.cosim import CoSimConfig, CoSimulation  # noqa: E402
from repro.obs.store import RunStore  # noqa: E402
from repro.rf.frontend import FrontendConfig  # noqa: E402


def bench_quickstart(packets: int) -> dict:
    """Default-bench BER at a fixed SNR (the README quick start)."""
    bench = WlanTestbench(TestbenchConfig(rate_mbps=24, snr_db=20.0))
    m = bench.measure_ber(n_packets=packets, seed=0)
    return {"ber": m.ber, "per": m.per, "packets": float(m.packets)}


def bench_fig5_sweep(packets: int) -> dict:
    """Three-point slice of the figure-5 filter-bandwidth sweep."""
    from repro.channel.interference import InterferenceScenario

    cfg = TestbenchConfig(
        rate_mbps=36,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(),
        interference=InterferenceScenario.adjacent(),
        input_level_dbm=-60.0,
    )
    sweep = ParameterSweep(
        cfg, "frontend.lpf_edge_hz", [5e6, 8.6e6, 14e6], n_packets=packets
    )
    result = sweep.run()
    return {
        f"ber[lpf={p.value:.3g}]": p.measurement.ber for p in result.points
    }


def bench_table2_cosim(packets: int) -> dict:
    """Table-2 timing comparison at small packet counts."""
    cosim = CoSimulation(
        FrontendConfig(),
        CoSimConfig(rate_mbps=24, psdu_bytes=60, analog_substeps=1),
    )
    rows = cosim.compare(packet_counts=(1, min(2, max(packets, 1))), seed=0)
    kpis = {}
    for row in rows:
        n = row["packets"]
        kpis[f"slowdown[packets={n}]"] = row["slowdown"]
        kpis[f"system_time_s[packets={n}]"] = row["system_time_s"]
        kpis[f"cosim_time_s[packets={n}]"] = row["cosim_time_s"]
    return kpis


def bench_sensitivity(packets: int) -> dict:
    """Coarse 24 Mbps sensitivity search."""
    result = find_sensitivity(
        24,
        frontend=FrontendConfig(),
        n_packets=max(packets, 2),
        psdu_bytes=60,
        step_db=4.0,
        start_dbm=-66.0,
        seed=0,
    )
    return {
        "sensitivity_dbm": result.sensitivity_dbm,
        "meets_standard": 1.0 if result.meets_standard else 0.0,
    }


BENCHES = (
    ("quickstart", bench_quickstart),
    ("fig5_sweep", bench_fig5_sweep),
    ("table2_cosim", bench_table2_cosim),
    ("sensitivity_24", bench_sensitivity),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_obs.json", metavar="PATH",
                        help="output JSON path (default BENCH_obs.json)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="also persist each benchmark as a stored run")
    parser.add_argument("--packets", type=int, default=2,
                        help="packets per measurement (default 2)")
    parser.add_argument("--only", default=None,
                        help="comma-separated benchmark names to run")
    parser.add_argument("--perf-out", default=None, metavar="PATH",
                        help="also run the parallel-scaling benchmark and "
                             "write its document (e.g. BENCH_perf.json)")
    args = parser.parse_args(argv)

    selected = None if args.only is None else set(args.only.split(","))
    store = RunStore(args.store) if args.store else None

    results = []
    for name, fn in BENCHES:
        if selected is not None and name not in selected:
            continue
        print(f"[{name}] running ...", flush=True)
        t0 = time.perf_counter()
        kpis = fn(args.packets)
        wall_s = time.perf_counter() - t0
        entry = {"name": name, "wall_s": round(wall_s, 4), "kpis": kpis}
        if store is not None:
            writer = store.create(
                kind="bench",
                name=name,
                seed=0,
                config={"packets": args.packets},
                command=f"benchmarks/record.py --only {name}",
            )
            writer.add_kpis(kpis)
            writer.add_kpis({"wall_s": wall_s})
            record = writer.finalize(tracer=None, registry=None)
            entry["run_id"] = record.run_id
        results.append(entry)
        print(f"[{name}] {wall_s:.2f}s  "
              + " ".join(f"{k}={v:.4g}" for k, v in sorted(kpis.items())),
              flush=True)

    doc = {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "packets": args.packets,
        "benchmarks": results,
    }
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(results)} benchmarks)")

    if args.perf_out:
        from bench_filter_design import run_filter_design
        from bench_iq_filter import run_iq_filter
        from bench_parallel_scaling import run_scaling, warn_if_single_core
        from bench_phy_throughput import run_phy_throughput
        from bench_probes import run_probe_overhead
        from bench_viterbi import run_viterbi

        perf_doc = run_scaling(packets=args.packets)
        perf_doc["probes"] = run_probe_overhead(packets=args.packets)
        perf_doc["phy_throughput"] = run_phy_throughput(
            packets=max(32, 16 * args.packets)
        )
        perf_doc["filter_design"] = run_filter_design(
            packets=max(32, 16 * args.packets)
        )
        perf_doc["viterbi"] = run_viterbi()
        perf_doc["iq_filter"] = run_iq_filter()
        perf_doc["single_core_recording"] = warn_if_single_core(perf_doc)
        perf_out = Path(args.perf_out)
        perf_out.write_text(
            json.dumps(perf_doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {perf_out} ({len(perf_doc['scaling'])} settings)")
        if not all(
            e["identical_to_serial"] for e in perf_doc["scaling"]
        ):
            print("ERROR: parallel results diverged from serial",
                  file=sys.stderr)
            return 1
        if not perf_doc["viterbi"]["identical_to_reference"]:
            print("ERROR: Viterbi decode diverged from the reference",
                  file=sys.stderr)
            return 1
        if not perf_doc["iq_filter"]["identical_to_scipy"]:
            print("ERROR: an IQ filter diverged from scipy's complex call",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
