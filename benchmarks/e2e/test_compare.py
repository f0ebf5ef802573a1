"""Tests of the set comparison in ``compare.py``, on hand-made records.

    python3 -m pytest benchmarks/e2e/test_compare.py
"""

import json

import compare

SPEC_METRICS = compare.load_spec()["end_to_end"]
NAMES = [m["name"] for m in SPEC_METRICS]


def record(workload, seed, scale=1.0, crashed=False):
    """An untraced result record as ``run.py --out`` writes it."""
    attempted = 6
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "digest": f"digest-{seed}",
        "counts": None if crashed else {"perf.tasks": 6, "perf.retries": 0},
        "attempted": attempted, "failed": attempted if crashed else 0,
        "metrics": {} if crashed else {
            name: {"value": 10.0 * scale, "unit": "-"}
            for name in NAMES + ["throughput"]
        },
    }


def write_set(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def verdicts(rows, workload):
    return {row[1]: row[-1] for row in rows if row[0] == workload}


def test_identical_sets_are_ok(tmp_path, capsys):
    runs = [record("w", seed, scale=1 + seed / 100) for seed in range(4)]
    a = write_set(tmp_path / "a.jsonl", runs)
    b = write_set(tmp_path / "b.jsonl", runs)
    assert compare.main([str(a), str(b)]) == 0
    assert "FAILED" not in capsys.readouterr().out


def test_verdict_follows_the_metric_direction_and_bound():
    metrics = [
        {"name": "throughput", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.1},
    ]
    a = {"w": [record("w", seed) for seed in range(4)]}
    b = {"w": [record("w", seed, scale=2.0) for seed in range(4)]}
    rows, failures = compare.compare(a, b, metrics)
    assert verdicts(rows, "w") == {
        "throughput": "ok", "setup_s": "REGRESSED", "error_rate": "ok",
    }
    assert not failures

    noisy = {"w": [record("w", seed, scale=1 + seed / 2) for seed in range(4)]}
    rows, _ = compare.compare(a, noisy, metrics)
    assert verdicts(rows, "w")["setup_s"] == "unresolved"


def test_crashed_candidate_fails_without_a_traceback(tmp_path, capsys):
    a = write_set(tmp_path / "a.jsonl",
                  [record(w, 0) for w in ("healthy", "broken")])
    b = write_set(tmp_path / "b.jsonl",
                  [record("healthy", 0), record("broken", 0, crashed=True)])
    assert compare.main([str(a), str(b)]) == 1

    rows, failures = compare.compare(
        compare.load_set(a), compare.load_set(b), SPEC_METRICS
    )
    broken = verdicts(rows, "broken")
    assert {broken[name] for name in NAMES} == {"FAILED"}
    assert broken["error_rate"] == "REGRESSED"
    assert set(verdicts(rows, "healthy").values()) == {"ok"}
    assert failures == ["broken seed 0: counts differs"]

    out = capsys.readouterr().out
    assert "FAILED broken seed 0: counts differs" in out
    error_line = next(line for line in out.splitlines()
                      if line.startswith("broken") and "error_rate" in line)
    assert error_line.endswith("REGRESSED")
