#!/usr/bin/env python
"""Measure a fresh process's start-up cost and whether it loads scipy.signal.

``scipy.signal`` is imported on first use through
:func:`repro.scipy_signal.sps`, so a process that only runs the DSP path
never loads it.  This script starts one fresh interpreter per case and
records its CPU seconds (user + system, from ``os.wait4``), its peak
RSS (``ru_maxrss``) and whether ``scipy.signal`` was in ``sys.modules``
at the end:

* ``dsp_packet``: ``import repro.core.testbench`` and one DSP-only
  packet (6 Mb/s, 100-byte PSDU, 17 dB AWGN), the ``dsp-awgn`` path;
* ``fig5_rf_packet``: the same import and one fig5 packet through the
  RF front end (36 Mb/s, 60-byte PSDU at -60 dBm, adjacent channel);
* ``cli_help``: ``python -m repro --help``.

Each value is the median over ``--repeats`` rounds, the cases
alternating within a round.  ``benchmarks/record.py --perf-out`` stores
the row under the ``startup`` key of ``BENCH_perf.json``; ``before`` is
the row this script printed in a checkout of commit ``0797e1f``, where
every ``import repro.core`` loaded ``scipy.signal``.

Usage::

    python benchmarks/bench_startup.py            # time and check
    python benchmarks/bench_startup.py --check    # exit 1 if a DSP-only
                                                  # process loads scipy.signal
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests.test_startup import CLI_HELP, DSP_PACKET, RF_PACKET  # noqa: E402

#: name -> (DSP-only, code run in a fresh interpreter).
CASES = {
    "dsp_packet": (True, DSP_PACKET),
    "fig5_rf_packet": (False, RF_PACKET),
    "cli_help": (True, CLI_HELP),
}

#: The row this script printed (``--repeats 9``) in a checkout of
#: ``0797e1f`` on a 2-CPU x86_64 container.
BEFORE = {
    "commit": "0797e1f",
    "repeats": 9,
    "cases": {
        "cli_help": {"cpu_s": 1.57, "peak_rss_mb": 109.0,
                     "scipy_signal_imported": True},
        "dsp_packet": {"cpu_s": 1.678, "peak_rss_mb": 110.8,
                       "scipy_signal_imported": True},
        "fig5_rf_packet": {"cpu_s": 1.705, "peak_rss_mb": 112.1,
                           "scipy_signal_imported": True},
    },
}


def run_case(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its CPU, peak RSS and imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    probe = code + "\nimport sys\nprint('scipy.signal' in sys.modules)\n"
    proc = subprocess.Popen(
        [sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE,
        text=True,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"start-up probe exited {proc.returncode}")
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "scipy_signal_imported": out.splitlines()[-1] == "True",
    }


def check() -> dict:
    """DSP-only case name -> True when it ran without ``scipy.signal``."""
    return {
        name: not run_case(code)["scipy_signal_imported"]
        for name, (dsp_only, code) in CASES.items()
        if dsp_only
    }


def run_startup(repeats: int = 5) -> dict:
    """Median start-up cost of every case; the ledger row."""
    samples = {name: [] for name in CASES}
    for _ in range(repeats):
        for name, (_, code) in CASES.items():
            samples[name].append(run_case(code))
    cases = {}
    for name, runs in samples.items():
        cases[name] = {
            "cpu_s": round(statistics.median(r["cpu_s"] for r in runs), 3),
            "peak_rss_mb": round(
                statistics.median(r["peak_rss_mb"] for r in runs), 1
            ),
            "scipy_signal_imported": any(
                r["scipy_signal_imported"] for r in runs
            ),
        }
    return {
        "repeats": repeats,
        "what": "fresh process: CPU s (user + sys) and ru_maxrss, "
                "median over repeats, cases alternating",
        "cases": cases,
        "before": BEFORE,
        "dsp_only_without_scipy_signal": not any(
            cases[name]["scipy_signal_imported"]
            for name, (dsp_only, _) in CASES.items()
            if dsp_only
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that DSP-only processes never "
                             "import scipy.signal")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds of fresh processes (default 5)")
    args = parser.parse_args(argv)
    if args.check:
        checks = check()
        print(json.dumps(checks, indent=2, sort_keys=True))
        return 0 if all(checks.values()) else 1
    row = run_startup(args.repeats)
    print(json.dumps(row, indent=2, sort_keys=True))
    return 0 if row["dsp_only_without_scipy_signal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
