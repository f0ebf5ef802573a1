#!/usr/bin/env python
"""Time the real-row IQ filters against scipy's complex calls.

``repro.dsp.iqfilter`` runs the transmit up-sampler, the zero-phase
shaping filter and the decimators on float64 rows instead of complex
arrays.  This script times each function at the shapes the benchmark
workloads use, as best-of-N ``process_time`` in µs per call, and times
scipy's complex call on the same input as ``before`` (with the memoized
resampling FIR, as the callers passed it before):

* emitter: ×6 up-sampling of 1 × 2,160 and shaping of 1 × 12,960 (the
  fig5/fig6 adjacent-channel interferer, a 256-byte packet at 24 Mb/s);
* wanted TX: ×6 up-sampling of 16 × 720 and shaping of 16 × 4,320 (a
  batch of 16 60-byte packets at 36 Mb/s);
* ADC: ÷6 of 6,120 (the fig5 window, with the ADC's ideal anti-alias);
* hostile: ÷4 of 4,720 (the ``hostile-coexistence`` decimator, which
  runs at ×4).

Every output is compared bit for bit (``uint64`` views, so signed
zeros count) with scipy's complex call: the timed inputs plus rows with
runs of zeros, ``-0.0`` parts, 1e-300 values, stacks on both sides of
the zero-phase row-block size and a length just above the pad length.
``benchmarks/record.py --perf-out`` stores the result under the
``iq_filter`` key of ``BENCH_perf.json`` and exits 1 on a divergence.

Usage::

    python benchmarks/bench_iq_filter.py            # time and check
    python benchmarks/bench_iq_filter.py --check    # check only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.signal as sps

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.dsp.designs import iir_sos, resample_window  # noqa: E402
from repro.dsp.iqfilter import (  # noqa: E402
    _ZERO_PHASE_BLOCK_SAMPLES,
    _pad_length,
    resample,
    zero_phase,
)
from tests.test_iqfilter import (  # noqa: E402
    SHAPING_X6 as SHAPING,
    _edge_rows,
    _noise,
)

#: name -> (kind, shape, factor): ``kind`` is "up", "down" or "shape".
WORKLOADS = {
    "emitter_upsample_x6_1x2160": ("up", (1, 2160), 6),
    "emitter_shaping_1x12960": ("shape", (1, 12960), None),
    "wanted_tx_upsample_x6_16x720": ("up", (16, 720), 6),
    "wanted_tx_shaping_16x4320": ("shape", (16, 4320), None),
    "adc_decimate_6_6120": ("down", (6120,), 6),
    "hostile_decimate_4_4720": ("down", (4720,), 4),
}


def _calls(kind: str, factor):
    """``(ours, scipy's complex call)`` for one workload kind."""
    if kind == "shape":
        sos = iir_sos(*SHAPING)
        return (lambda x: zero_phase(x, *SHAPING),
                lambda x: sps.sosfiltfilt(sos, x, axis=-1))
    up, down = (factor, 1) if kind == "up" else (1, factor)
    window = resample_window(up, down)
    return (lambda x: resample(x, up, down),
            lambda x: sps.resample_poly(x, up, down, axis=-1,
                                        window=window))


def identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two complex arrays, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and bool(
        np.array_equal(a.view(np.uint64), b.view(np.uint64))
    )


def check_identity() -> dict:
    """Case name -> bit-identical to scipy's complex call."""
    pad = _pad_length(iir_sos(*SHAPING))
    block_rows = _ZERO_PHASE_BLOCK_SAMPLES // 4320
    inputs = {
        name: (kind, factor, _noise(shape, 1))
        for name, (kind, shape, factor) in WORKLOADS.items()
    }
    for kind, factor in (("up", 6), ("up", 8), ("down", 6), ("down", 8),
                         ("shape", None)):
        tag = kind + ("" if factor is None else str(factor))
        inputs[f"edge_rows_{tag}"] = (kind, factor, _edge_rows(600))
    for rows in (block_rows, block_rows + 1, 4):
        inputs[f"shape_{rows}x4320"] = ("shape", None,
                                        _noise((rows, 4320), rows))
    inputs["shape_4x12960"] = ("shape", None, _noise((4, 12960), 2))
    inputs["shape_pad_plus_1"] = ("shape", None, _noise((3, pad + 1), 3))
    out = {}
    for name, (kind, factor, x) in inputs.items():
        ours, theirs = _calls(kind, factor)
        out[name] = identical(ours(x), theirs(x))
    return out


def best_us(fns, repeats: int) -> list:
    """Best-of-``repeats`` CPU time of each of ``fns``, in µs.

    The calls alternate within each repeat, so a noisy stretch of the
    host slows both sides alike.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.process_time()
            fn()
            best[i] = min(best[i], time.process_time() - t0)
    return [round(1e6 * b, 1) for b in best]


def run_iq_filter(repeats: int = 9) -> dict:
    """Time every workload both ways and check identity; the ledger row."""
    after, before = {}, {}
    for name, (kind, shape, factor) in WORKLOADS.items():
        x = _noise(shape, 0)
        ours, theirs = _calls(kind, factor)
        ours(x)  # warm-up: cached designs fill here
        after[name], before[name] = best_us(
            [lambda: ours(x), lambda: theirs(x)], repeats
        )
    checks = check_identity()
    return {
        "repeats": repeats,
        "zero_phase_block_samples": _ZERO_PHASE_BLOCK_SAMPLES,
        "us_per_call": after,
        "before": {"what": "scipy complex call, same input and run",
                   "us_per_call": before},
        "speedup": {k: round(before[k] / after[k], 2) for k in after},
        "checks": checks,
        "identical_to_scipy": all(checks.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="run only the bit-identity checks")
    args = parser.parse_args(argv)
    if args.check:
        checks = check_identity()
        for name, ok in checks.items():
            print(f"{'ok  ' if ok else 'DIFF'} {name}")
        return 0 if all(checks.values()) else 1
    row = run_iq_filter()
    print(json.dumps(row, indent=2, sort_keys=True))
    return 0 if row["identical_to_scipy"] else 1


if __name__ == "__main__":
    sys.exit(main())
