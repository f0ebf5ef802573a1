"""Smoke test of the end-to-end benchmark: one repetition per workload.

Runs ``run.py`` the way the benchmark is driven, with ``--seconds`` so
small that each workload stops after a single repetition, and checks the
result line's schema, the metric names and units against BENCHMARK.json,
and the seed-0 BER-curve digest against ``golden.json``.  Takes well under
a minute on two cores::

    python3 -m pytest benchmarks/e2e/test_smoke.py
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


def run(workload, trace, out):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(out.read_text().splitlines()[-1])
    return result, record


def check_result(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_repetition_matches_spec_and_golden(workload, tmp_path):
    result, record = run(workload, 0, tmp_path / "set.jsonl")
    check_result(result, SPEC["end_to_end"])
    assert len(record["reps"]) == 1
    assert record["has_golden"]
    assert record["digest"] == GOLDEN[workload]["0"]


def test_traced_run_reports_every_layer_and_covers_its_time(tmp_path):
    result, record = run("fig5-adjacent", 1, tmp_path / "set.jsonl")
    check_result(result, SPEC["per_layer"])
    assert record["digest"] == GOLDEN["fig5-adjacent"]["0"]
    assert abs(record["reps"][0]["coverage"] - 1.0) < 0.05
