"""Real filters on complex IQ, run as float64 rows.

The transmit up-sampler, its zero-phase shaping filter and the
decimators apply *real* filters to complex baseband.  scipy filters a
complex array in complex arithmetic: every real coefficient is cast to
``c + 0j`` and each tap costs a complex multiply.  The functions here
split a complex ``(..., n)`` stack into float64 rows (the real parts,
then the imaginary parts), make one scipy call on the row stack and
write the result back into a new complex array.

The output is bitwise identical to scipy's complex call, signed zeros
included: the extra ``0 * part`` products of a complex multiply are
exact zeros, so they change no nonzero value.
``tests/test_iqfilter.py`` and ``benchmarks/bench_iq_filter.py
--check`` compare the two as ``uint64`` views against the installed
scipy.

Causal RF filters (:class:`repro.rf.filters.AnalogFilter`) stay
complex: at 6,120 samples the 1-biquad high-pass was slower as real
rows (107 → 166 µs), and the 4-section low-pass measured anywhere from
even to 20 % faster, too little to justify a second path chosen by
section count.
"""

from __future__ import annotations

from math import prod

import numpy as np

from repro.dsp.designs import Critical, iir_sos, iir_zi, resample_window
from repro.scipy_signal import sps

__all__ = ["resample", "zero_phase"]

#: Complex samples per block of zero-phase rows.  Whole stacks of long
#: rows lost to scipy's complex call (4 x 12,960 ran at 1.06x its time);
#: blocks this size keep the row working set in cache (see the
#: ``iq_filter`` row of ``BENCH_perf.json``).
_ZERO_PHASE_BLOCK_SAMPLES = 16384


def _stack(x) -> np.ndarray:
    """``x`` as a complex ``(k, n)`` stack of its last-axis rows."""
    x = np.asarray(x, dtype=np.complex128)
    return x.reshape(prod(x.shape[:-1]), x.shape[-1])


def _rows(stack: np.ndarray, out: np.ndarray) -> None:
    """Write a complex ``(k, n)`` stack into ``out`` as ``2k`` real rows."""
    k = stack.shape[0]
    out[:k] = stack.real
    out[k:] = stack.imag


def _join(rows: np.ndarray, out: np.ndarray) -> None:
    """Write ``2k`` real rows back into the complex ``(k, n)`` ``out``."""
    k = out.shape[0]
    out.real = rows[:k]
    out.imag = rows[k:]


def resample(x, up: int, down: int) -> np.ndarray:
    """``resample_poly(x, up, down, axis=-1)`` with scipy's default FIR.

    Args:
        x: complex samples, ``(..., n)``; the last axis is resampled.
        up: up-sampling factor.
        down: down-sampling factor.

    Returns:
        A new complex array, ``(..., ceil(n * up / down))``.
    """
    x = np.asarray(x)
    stack = _stack(x)
    rows = np.empty((2 * stack.shape[0], stack.shape[1]))
    _rows(stack, rows)
    y = sps().resample_poly(
        rows, up, down, axis=-1, window=resample_window(up, down)
    )
    out = np.empty((stack.shape[0], y.shape[-1]), dtype=np.complex128)
    _join(y, out)
    return out.reshape(x.shape[:-1] + (y.shape[-1],))


def _pad_length(sos: np.ndarray) -> int:
    """``sosfiltfilt``'s default odd-extension length for ``sos``."""
    ntaps = 2 * sos.shape[0] + 1
    ntaps -= min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
    return 3 * ntaps


def zero_phase(
    x,
    family: str,
    order: int,
    critical: Critical,
    btype: str,
    ripple_db: float = 0.0,
) -> np.ndarray:
    """``sosfiltfilt(iir_sos(...), x, axis=-1)`` with a memoized ``zi``.

    The design arguments are those of :func:`repro.dsp.designs.iir_sos`.
    Each row gets scipy's odd extension and its forward and backward
    ``sosfilt`` passes, started from the cached :func:`iir_zi` state.

    Args:
        x: complex samples, ``(..., n)``; the last axis is filtered.

    Returns:
        A new complex array shaped like ``x``.

    Raises:
        ValueError: when ``n`` is not greater than the pad length
            (scipy's message).
    """
    # scipy's float64 sosfilt needs a writable sos; the memoized design
    # is read-only and stays that way.
    sos = np.array(iir_sos(family, order, critical, btype, ripple_db))
    zi = iir_zi(family, order, critical, btype, ripple_db)[:, None, :]
    edge = _pad_length(sos)
    x = np.asarray(x)
    stack = _stack(x)
    n = stack.shape[1]
    if n <= edge:
        raise ValueError(
            f"The length of the input vector x must be greater than "
            f"padlen, which is {edge}."
        )
    out = np.empty(stack.shape, dtype=np.complex128)
    block = max(1, _ZERO_PHASE_BLOCK_SAMPLES // n)
    ext = np.empty((2 * min(block, stack.shape[0]), n + 2 * edge))
    for start in range(0, stack.shape[0], block):
        part = stack[start : start + block]
        rows = ext[: 2 * part.shape[0]]
        mid = rows[:, edge : edge + n]
        _rows(part, mid)
        np.subtract(
            2 * mid[:, :1], mid[:, edge:0:-1], out=rows[:, :edge]
        )
        np.subtract(
            2 * mid[:, -1:], mid[:, -2 : -edge - 2 : -1],
            out=rows[:, edge + n :],
        )
        y, _ = sps().sosfilt(sos, rows, zi=zi * rows[:, :1])
        y, _ = sps().sosfilt(sos, y[:, ::-1], zi=zi * y[:, -1:])
        _join(y[:, ::-1][:, edge:-edge], out[start : start + block])
    return out.reshape(x.shape)
