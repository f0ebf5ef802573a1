"""Compare two sets of benchmark results against the benchmark's bounds.

A set is the JSON-lines file ``run.py --out`` appends to: one record per
untraced workload run, typically one run per seed.  For every workload
and end-to-end metric this prints each set's median and interquartile
range over its runs, the change from set A to set B, and a verdict:

* ``ok``: B is no worse than A by more than the metric's bound;
* ``REGRESSED``: B is worse by more than the bound;
* ``unresolved``: the spread within a set is wider than the bound, so
  the runs cannot tell;
* ``FAILED``: a run of either set reported no value for the metric,
  because every repetition of it crashed or failed a check.

``error_rate`` (failed over attempted operations) may not rise at all.
Exact counts and BER-curve digests must be identical for every
(workload, seed) run in both sets.  Exits 1 unless every verdict is ok.

Usage::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict

from run import load_spec, quartiles


def load_set(path) -> dict:
    """``{workload: [record, ...]}`` for the untraced records of a file."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def median_iqr(values):
    """Median and interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return median, (q3 - q1) / abs(median)


def error_rate(records) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def metric_row(workload, metric, records_a, records_b) -> list:
    """``[workload, name, med A, IQR A, med B, IQR B, delta, bound, verdict]``."""
    name, bound = metric["name"], metric["bound"]
    values_a = [r["metrics"][name]["value"] for r in records_a
                if name in r["metrics"]]
    values_b = [r["metrics"][name]["value"] for r in records_b
                if name in r["metrics"]]
    if len(values_a) < len(records_a) or len(values_b) < len(records_b):
        return [workload, name, None, None, None, None, None, bound, "FAILED"]
    med_a, iqr_a = median_iqr(values_a)
    med_b, iqr_b = median_iqr(values_b)
    delta = (med_b - med_a) / med_a
    worse = -delta if metric["better"] == "higher" else delta
    if max(iqr_a, iqr_b) > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    else:
        verdict = "ok"
    return [workload, name, med_a, iqr_a, med_b, iqr_b, delta, bound, verdict]


def compare(a: dict, b: dict, metrics) -> list:
    """One row per workload x metric, plus any consistency failures."""
    rows, failures = [], []
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            failures.append(f"{workload}: only in one set")
            continue
        rows += [metric_row(workload, m, a[workload], b[workload])
                 for m in metrics]
        rate_a, rate_b = error_rate(a[workload]), error_rate(b[workload])
        rows.append([workload, "error_rate", rate_a, 0.0, rate_b, 0.0,
                     rate_b - rate_a, 0.0,
                     "REGRESSED" if rate_b > rate_a else "ok"])
        by_seed = {r["seed"]: r for r in a[workload]}
        for record in b[workload]:
            other = by_seed.get(record["seed"])
            if other is None:
                continue
            for key in ("digest", "counts"):
                if record[key] != other[key]:
                    failures.append(
                        f"{workload} seed {record['seed']}: {key} differs"
                    )
    return rows, failures


def _cell(value, spec: str, width: int) -> str:
    return ("-" if value is None else format(value, spec)).rjust(width)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two benchmark result sets."
    )
    parser.add_argument("a", type=pathlib.Path, help="baseline set")
    parser.add_argument("b", type=pathlib.Path, help="candidate set")
    args = parser.parse_args(argv)
    metrics = load_spec()["end_to_end"]
    rows, failures = compare(load_set(args.a), load_set(args.b), metrics)
    header = ("workload", "metric", "median A", "IQR A", "median B",
              "IQR B", "delta", "bound", "verdict")
    print("{:<20} {:<18} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  {}".format(
        *header))
    for w, name, med_a, iqr_a, med_b, iqr_b, delta, bound, verdict in rows:
        print(f"{w:<20} {name:<18} {_cell(med_a, '.4f', 12)} "
              f"{_cell(iqr_a, '.2%', 7)} {_cell(med_b, '.4f', 12)} "
              f"{_cell(iqr_b, '.2%', 7)} {_cell(delta, '+.2%', 8)} "
              f"{bound:>6.0%}  {verdict}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures or any(row[-1] != "ok" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
