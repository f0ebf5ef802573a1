"""End-to-end benchmark of the WLAN system simulator.

Runs one workload (or ``all`` four) as a series of fresh-process
repetitions until ``--seconds`` of timed work are done, and at least one
repetition per 2.5 s of ``--seconds`` (five at 12 s).  Each repetition
imports the simulator, builds the workload's sweeps and runs one warm-up
batch (set-up, timed in CPU seconds), then runs the whole workload once
(timed).  Every repetition's BER curve is checked against
``golden.json``.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported;
with ``--trace 1`` each repetition follows its untraced pass with a
traced one, and the per-layer metrics are reported instead.  Each value
is the median over the repetitions.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload fig5-adjacent --seed 0 \\
        --seconds 12 --trace 0 [--out results.jsonl]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from layers import COUNTS, LAYER_METRICS
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"

#: A run stops starting repetitions after this many seconds, so that it
#: always ends well inside the 180 s a run may take.
RUN_CAP_S = 150.0

#: The workloads are sized for a timed pass of about this long, so a run
#: makes at least one repetition per this many seconds asked for: five at
#: ``--seconds 12``, even while the host runs slow.
REP_TARGET_S = 2.5


def load_spec() -> dict:
    """Metric names, units and bounds, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
    }


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_rep(workload, seed: int, trace: bool, timeout_s: float) -> dict:
    """Run one repetition process; returns its parsed result or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload.name, "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    # A session of its own, so that a timeout or an interrupt can stop the
    # repetition together with its pool workers.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout_s:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        return {"error": f"exit code {proc.returncode}"}
    return json.loads(out.splitlines()[-1])


def check_rep(rep: dict, workload, digest: str, counts) -> str:
    """Why a repetition is wrong, or '' when its outputs are correct.

    ``digest`` is the expected BER-curve digest and ``counts`` the exact
    counts every pass must repeat (None to accept this repetition's).
    """
    if "error" in rep:
        return rep["error"]
    counts = counts or exact_counts(rep)
    for result in [rep] + ([rep["traced"]] if "traced" in rep else []):
        if result["packets"] != workload.packets_per_pass:
            return (f"{result['packets']} packets, expected "
                    f"{workload.packets_per_pass}")
        if result["digest"] != digest:
            return (f"BER-curve digest {result['digest'][:16]}, expected "
                    f"{digest[:16]}")
        if result["perf"]["failures"]:
            return f"{result['perf']['failures']} pool tasks failed"
        if exact_counts(result) != counts:
            return f"exact counts {exact_counts(result)}, expected {counts}"
    return ""


def end_to_end(rep: dict) -> dict:
    """One repetition's end-to-end values.  Wall-clock ``packets_per_s`` is
    kept in the result record but has no bound: on a shared VM it follows
    the host's steal time more than the simulator."""
    return {
        "packets_per_s": rep["packets"] / rep["timed_s"],
        "cpu_ms_per_packet": 1e3 * rep["cpu_s"] / rep["packets"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def exact_counts(rep: dict) -> dict:
    """The deterministic counts of one untraced pass, per packet."""
    counts = {
        metric: rep["counts"][name] / rep["packets"]
        for name, metric in COUNTS.items()
    }
    counts["perf.tasks"] = rep["perf"]["tasks"]
    counts["perf.retries"] = rep["perf"]["retries"]
    return counts


def per_layer(rep: dict) -> dict:
    traced = rep["traced"]
    pool = rep["perf"]
    values = {
        name: 1e6 * traced["trace"]["layer_s"][name] / traced["packets"]
        for name in LAYER_METRICS
    }
    values["obs.trace_overhead_pct"] = 100.0 * (
        traced["timed_s"] / rep["timed_s"] - 1.0
    )
    values["perf.efficiency"] = pool["busy_s"] / pool["jobs_wall_s"]
    values["perf.wait_s"] = pool["jobs_wall_s"] - pool["busy_s"]
    values.update(exact_counts(rep))
    values["coverage"] = traced["trace"]["coverage"]
    return values


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 golden: dict) -> dict:
    """All repetitions of one workload and their result record.

    Repetitions run until ``seconds`` of timed work and at least one
    repetition per :data:`REP_TARGET_S` of them are done, or until the
    first wrong one or the run's time cap.  Without a golden digest for
    the seed, the first repetition's digest is the one the others must
    match.
    """
    deadline = time.monotonic() + RUN_CAP_S
    digest = golden.get(workload.name, {}).get(str(seed))
    has_golden = digest is not None
    min_reps = math.ceil(seconds / REP_TARGET_S)
    reps, samples, problems = [], [], []
    counts = None
    timed = longest = 0.0
    while not reps or (
        (timed < seconds or len(reps) < min_reps) and not problems
    ):
        left = deadline - time.monotonic()
        if reps and left < 2 * longest:
            break
        started = time.monotonic()
        rep = run_rep(workload, seed, trace, timeout_s=max(left, 5.0))
        longest = max(longest, time.monotonic() - started)
        reps.append(rep)
        digest = digest or rep.get("digest")
        problem = check_rep(rep, workload, digest, counts)
        if problem:
            problems.append(f"repetition {len(reps)}: {problem}")
            continue
        counts = exact_counts(rep)
        samples.append(per_layer(rep) if trace else end_to_end(rep))
        timed += rep["timed_s"] + rep.get("traced", {}).get("timed_s", 0.0)
    ops = workload.ops_per_pass * (2 if trace else 1)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(),
        "has_golden": has_golden,
        "digest": digest,
        "counts": counts,
        "attempted": ops * len(reps),
        "failed": ops * len(problems),
        "problems": problems,
        "reps": samples,
    }


def summarize(record: dict, spec_metrics) -> dict:
    """``{name: {"value", "unit", "q1", "q3", "n"}}`` over repetitions."""
    summary = {}
    for metric in spec_metrics:
        values = [rep[metric["name"]] for rep in record["reps"]]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        summary[metric["name"]] = {
            "value": median, "unit": metric["unit"],
            "q1": q1, "q3": q3, "n": len(values),
        }
    return summary


def print_report(record: dict, summary: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{len(record['reps'])} repetitions) ==")
    width = max(len(name) for name in summary) if summary else 0
    for name, m in summary.items():
        print(f"  {name:<{width}}  {m['value']:>12.4f} {m['unit']:<9} "
              f"[q1 {m['q1']:.4f}, q3 {m['q3']:.4f}]")
    if record["trace"] and record["reps"]:
        coverage = statistics.median(r["coverage"] for r in record["reps"])
        print(f"  coverage: layer self times sum to {100 * coverage:.1f}% of "
              f"the traced run's time")
    print(f"  exact counts: {json.dumps(record['counts'])}")
    note = (
        "golden.json checked" if record["has_golden"]
        else "seed has no golden entry; repetitions checked against each other"
    )
    print(f"  BER-curve digest {str(record['digest'])[:16]}: {note}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the WLAN system simulator."
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed work per workload, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="append each workload's result record to this "
                             "JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        record = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), golden
        )
        summary = summarize(record, spec_metrics)
        record["metrics"] = summary
        print_report(record, summary)
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        correct &= not record["problems"] and len(summary) == len(spec_metrics)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}:"
        metrics.update({
            prefix + key: {"value": m["value"], "unit": m["unit"]}
            for key, m in summary.items()
        })
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
