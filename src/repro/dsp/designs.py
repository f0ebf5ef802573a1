"""Memoized filter designs.

Filter design is a pure function of its parameters, and the simulation
chain asks for the same transmit shaping filter, front-end channel and
DC-blocking filters and polyphase resampling FIRs on every packet.
These helpers design each parameter set once and share the result;
the caches fill lazily, on first use, and are bounded.  The
zero-phase filter's initial state (:func:`iir_zi`) is part of the
design too, keyed by the same arguments as its ``sos``.

The shared arrays are read-only, so no holder can corrupt another's
filter; scipy's filter functions only read them.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Tuple, Union

import numpy as np

from repro.scipy_signal import sps

#: A normalized critical frequency (fraction of Nyquist), or a band-pass
#: ``(low, high)`` pair.
Critical = Union[float, Tuple[float, float]]


@lru_cache(maxsize=64)
def iir_sos(
    family: str,
    order: int,
    critical: Critical,
    btype: str,
    ripple_db: float = 0.0,
) -> np.ndarray:
    """Second-order sections of a Butterworth or Chebyshev-I design.

    Args:
        family: ``"butter"`` or ``"cheby1"``.
        order: filter order.
        critical: critical frequency normalized to Nyquist, or a
            ``(low, high)`` tuple for band filters.
        btype: scipy band type (``"low"``, ``"high"``, ``"band"``).
        ripple_db: passband ripple (``"cheby1"`` only).

    Returns:
        The read-only ``sos`` array scipy designs for these arguments.
    """
    if family == "butter":
        sos = sps().butter(order, critical, btype=btype, output="sos")
    elif family == "cheby1":
        sos = sps().cheby1(order, ripple_db, critical, btype=btype, output="sos")
    else:
        raise ValueError(f"unknown IIR family {family!r}")
    sos.flags.writeable = False
    return sos


@lru_cache(maxsize=64)
def iir_zi(
    family: str,
    order: int,
    critical: Critical,
    btype: str,
    ripple_db: float = 0.0,
) -> np.ndarray:
    """``sosfilt_zi`` of the :func:`iir_sos` design with these arguments.

    The step-response initial state a zero-phase filter scales by each
    row's first sample; ``sosfiltfilt`` redesigns it on every call.

    Returns:
        The read-only ``(n_sections, 2)`` state array.
    """
    zi = sps().sosfilt_zi(iir_sos(family, order, critical, btype, ripple_db))
    zi.flags.writeable = False
    return zi


@lru_cache(maxsize=16)
def resample_window(up: int, down: int) -> np.ndarray:
    """The anti-imaging/anti-alias FIR ``resample_poly(x, up, down)`` uses.

    Passing it as ``window=`` gives output bit-identical to scipy's
    default (a Kaiser β=5 windowed sinc, 10 zero crossings per side at
    the larger of the gcd-reduced rates) without redesigning it per call.
    """
    g = gcd(up, down)
    max_rate = max(up // g, down // g)
    taps = sps().firwin(2 * 10 * max_rate + 1, 1.0 / max_rate,
                        window=("kaiser", 5.0))
    taps.flags.writeable = False
    return taps
