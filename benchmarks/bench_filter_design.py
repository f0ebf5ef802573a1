#!/usr/bin/env python
"""Measure per-packet filter-design cost on the figure-5 RF path.

Runs the fig5 adjacent-channel bench (36 Mb/s, 60-byte PSDU at -60 dBm
through the double-conversion front end) in batches of 16 after one
warm-up pass, and records the best-of-3 CPU ms per packet and the scipy
filter designs (``iirfilter`` and ``firwin`` calls) per steady-state
packet.  ``benchmarks/record.py --perf-out`` stores the row under the
``filter_design`` key of ``BENCH_perf.json``; the committed ledger also
keeps, under ``before``, the row this script printed in a checkout of
the commit before filter designs were memoized.

Usage::

    PYTHONPATH=src python benchmarks/bench_filter_design.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.signal import _filter_design, _fir_filter_design

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.channel.interference import InterferenceScenario  # noqa: E402
from repro.core.testbench import TestbenchConfig, WlanTestbench  # noqa: E402
from repro.rf.frontend import FrontendConfig  # noqa: E402

BATCH = 16
DESIGNERS = (_filter_design.iirfilter, _fir_filter_design.firwin)


def _patch_designers(counts: dict) -> list:
    """Count calls to every binding of the designers; return the undo list."""
    undo = []
    for func in DESIGNERS:
        def counted(*args, _func=func, **kwargs):
            counts[_func.__name__] += 1
            return _func(*args, **kwargs)

        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                if value is func:
                    setattr(module, name, counted)
                    undo.append((module, name, func))
    return undo


def run_filter_design(packets: int = 32, repeats: int = 3) -> dict:
    """Time and count the steady-state fig5 packets; return the ledger row."""
    bench = WlanTestbench(TestbenchConfig(
        rate_mbps=36, psdu_bytes=60, thermal_floor=True,
        frontend=FrontendConfig(),
        interference=InterferenceScenario.adjacent(),
        input_level_dbm=-60.0,
    ))
    packets = BATCH * max(1, packets // BATCH)

    def run(seed):
        for start in range(0, packets, BATCH):
            keys = range(start, start + BATCH)
            bench.run_packet_batch([np.random.default_rng([seed, k]) for k in keys])

    run(0)  # warm-up: lazy tables and design caches fill here
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        run(1)
        best = min(best, time.process_time() - t0)
    counts = {func.__name__: 0 for func in DESIGNERS}
    undo = _patch_designers(counts)
    try:
        run(1)
    finally:
        for module, name, func in undo:
            setattr(module, name, func)
    return {
        "workload": {"bench": "fig5-adjacent", "lpf_edge_hz": 8.6e6,
                     "batch_size": BATCH, "packets": packets},
        "repeats": repeats,
        "cpu_ms_per_packet": round(1e3 * best / packets, 3),
        "designs_per_packet": {k: v / packets for k, v in counts.items()},
    }


if __name__ == "__main__":
    print(json.dumps(run_filter_design(), indent=2, sort_keys=True))
