"""Deferred access to :mod:`scipy.signal`.

Importing ``scipy.signal`` costs over a second of start-up and tens of
megabytes (it pulls in ``scipy.stats``), and the DSP-only 802.11a link
never calls it.  Its users -- the transmit resampler and shaping filter
(:mod:`repro.dsp.iqfilter`), the filter designs, the RF front-end
filters, the PSD and the flow tools -- all reach it through
:func:`sps`, which imports it on the first call.  A process that only
runs the DSP path therefore never loads it.

Callers look names up on the returned module when they call them
(``sps().sosfilt(...)``), so an attribute patched on ``scipy.signal``
is seen at once.
"""

from __future__ import annotations

from types import ModuleType

__all__ = ["sps"]


def sps() -> ModuleType:
    """The :mod:`scipy.signal` module, imported on the first call."""
    # Not ``from scipy import signal``: run first, that form cost 0.45 s.
    import scipy.signal

    return scipy.signal
