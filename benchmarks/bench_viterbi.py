#!/usr/bin/env python
"""Measure the Viterbi decoder's cost per trellis step against row count.

Decodes 1, 4, 16, 32 and 64 rows of 840-step streams (a 100-byte PSDU at
6 Mb/s: 35 OFDM symbols of 24 data bits, 1680 LLRs per row) and records,
per row count, the best-of-N ``process_time`` of the whole
``decode_soft`` call and of each of its two tracebacks alone, in µs per
trellis step.  The two traceback columns are what
``repro.dsp.viterbi._TRACEBACK_ROW_CUTOVER`` is chosen from.  Every row
count is checked bit-for-bit against the per-step reference decoder of
``tests/test_viterbi.py``, through ``decode_soft`` and through each
traceback; ``benchmarks/record.py --perf-out`` stores the row under the
``viterbi`` key of ``BENCH_perf.json`` and exits 1 if any check fails.
The committed ledger also keeps, under ``before``, the ``decode_us_per_step``
column this script printed in a checkout of the commit before the
per-step overhead was removed.

Usage::

    PYTHONPATH=src python benchmarks/bench_viterbi.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.dsp.convcode import ConvolutionalEncoder  # noqa: E402
from repro.dsp.viterbi import ViterbiDecoder  # noqa: E402

ROWS = (1, 4, 16, 32, 64)
#: Trellis steps of a 100-byte PSDU at 6 Mb/s.
N_STEPS = 840


def llr_rows(n_rows: int, seed: int = 0) -> np.ndarray:
    """Noisy LLRs of ``n_rows`` terminated random codewords."""
    rng = np.random.default_rng([seed, n_rows])
    data = rng.integers(0, 2, (n_rows, N_STEPS), dtype=np.uint8)
    data[:, -6:] = 0
    coded = np.stack([ConvolutionalEncoder().encode(row) for row in data])
    return (1.0 - 2.0 * coded) * 2.0 + rng.normal(0.0, 2.0, coded.shape)


def best_us_per_step(fn, repeats: int) -> float:
    """Best-of-``repeats`` CPU time of ``fn()``, in µs per trellis step."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return round(1e6 * best / N_STEPS, 3)


def time_decode(repeats: int = 5) -> dict:
    """``decode_soft`` µs per trellis step for each row count."""
    decoder = ViterbiDecoder()
    out = {}
    for n_rows in ROWS:
        llr = llr_rows(n_rows)
        decoder.decode_soft(llr)  # warm-up: cached tables fill here
        out[str(n_rows)] = best_us_per_step(
            lambda: decoder.decode_soft(llr), repeats
        )
    return out


def run_viterbi(repeats: int = 5) -> dict:
    """Time the decoder and both tracebacks; return the ledger row."""
    from repro.dsp.viterbi import (
        _TRACEBACK_ROW_CUTOVER,
        _acs,
        _traceback_per_row,
        _traceback_vectorized,
    )
    from tests.test_viterbi import _reference_decode_soft

    per_row = {}
    vectorized = {}
    identical = True
    for n_rows in ROWS:
        llr = llr_rows(n_rows)
        want = np.stack([_reference_decode_soft(row) for row in llr])
        decisions, _ = _acs(llr)
        state = np.zeros(n_rows, dtype=np.int64)
        identical &= bool(
            np.array_equal(ViterbiDecoder().decode_soft(llr), want)
            and np.array_equal(_traceback_per_row(decisions, state), want)
            and np.array_equal(_traceback_vectorized(decisions, state), want)
        )
        per_row[str(n_rows)] = best_us_per_step(
            lambda: _traceback_per_row(decisions, state), repeats
        )
        vectorized[str(n_rows)] = best_us_per_step(
            lambda: _traceback_vectorized(decisions, state), repeats
        )
    return {
        "workload": {"rate_mbps": 6, "psdu_bytes": 100, "n_steps": N_STEPS,
                     "rows": list(ROWS)},
        "repeats": repeats,
        "traceback_row_cutover": _TRACEBACK_ROW_CUTOVER,
        "decode_us_per_step": time_decode(repeats),
        "traceback_us_per_step": {"per_row": per_row,
                                  "vectorized": vectorized},
        "identical_to_reference": identical,
    }


if __name__ == "__main__":
    row = run_viterbi()
    print(json.dumps(row, indent=2, sort_keys=True))
    sys.exit(0 if row["identical_to_reference"] else 1)
