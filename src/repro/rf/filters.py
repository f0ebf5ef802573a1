"""Analog filter models for the RF front-end.

The paper's receiver uses high-pass filtering between the mixer stages
(removing DC offsets and flicker noise) and Chebyshev low-pass channel
selection in the baseband section; figure 5 sweeps the Chebyshev passband
edge.  Filters are designed with scipy at the working sample rate
(once per parameter set, see :mod:`repro.dsp.designs`) and applied
causally (second-order sections), like the analog originals.

The module also reproduces the Spectre rflib limitation noted in section
4.2: "no bandpass filter model is available which allows a bandwidth
greater than 0.5 of the center frequency.  A high- and a low pass filter
was used instead" — :func:`chebyshev_bandpass` raises
:class:`BandwidthLimitError` for such requests, and
:func:`wideband_bandpass` builds the documented HP+LP composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.signal as sps

from repro.dsp.designs import iir_sos
from repro.rf.signal import Signal


class BandwidthLimitError(ValueError):
    """Raised when a bandpass request exceeds the library's validity range."""


@dataclass
class AnalogFilter:
    """A causal IIR filter applied to complex envelopes.

    Attributes:
        sos: second-order sections (scipy format); read-only when it
            comes from the shared design memo.
        description: human-readable summary for netlists and reports.
    """

    sos: np.ndarray
    description: str = "filter"

    def process(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Signal:
        """Filter the signal (zero initial state).  ``rng`` is unused."""
        y = sps.sosfilt(self.sos, signal.samples)
        return signal.with_samples(y)

    def frequency_response(
        self, sample_rate: float, n_points: int = 1024
    ) -> tuple:
        """Two-sided complex frequency response.

        Returns:
            ``(freqs_hz, response)`` with frequencies spanning
            ``[-fs/2, fs/2)``.
        """
        w = np.fft.fftshift(np.fft.fftfreq(n_points)) * 2 * np.pi
        _, h = sps.sosfreqz(self.sos, worN=w)
        freqs = w / (2 * np.pi) * sample_rate
        return freqs, h

    def group_delay_samples(self, at_frequency_hz: float, sample_rate: float) -> float:
        """Approximate group delay at a given frequency, in samples."""
        b, a = sps.sos2tf(self.sos)
        w = [2 * np.pi * at_frequency_hz / sample_rate]
        _, gd = sps.group_delay((b, a), w=w)
        return float(gd[0])


def chebyshev_lowpass(
    passband_edge_hz: float,
    sample_rate: float,
    order: int = 5,
    ripple_db: float = 0.5,
) -> AnalogFilter:
    """Chebyshev type-I low-pass (the channel-selection filter of fig. 2).

    The filter acts on the complex envelope, i.e. it is applied to both
    I and Q; the equivalent RF bandwidth is ``2 * passband_edge_hz``.

    Args:
        passband_edge_hz: passband edge frequency (the fig. 5 sweep
            parameter, expressed in the paper as a ratio of 1e8 Hz).
        sample_rate: envelope sample rate.
        order: filter order.
        ripple_db: passband ripple.
    """
    nyquist = sample_rate / 2.0
    if not 0 < passband_edge_hz < nyquist:
        raise ValueError(
            f"passband edge {passband_edge_hz:g} Hz outside (0, {nyquist:g})"
        )
    sos = iir_sos(
        "cheby1", order, passband_edge_hz / nyquist, "low", ripple_db
    )
    return AnalogFilter(
        sos=sos,
        description=(
            f"cheby1 lowpass order={order} ripple={ripple_db}dB "
            f"edge={passband_edge_hz:g}Hz"
        ),
    )


def check_filter_edge(
    name: str, edge_hz: float, sample_rate: float, allow_zero: bool = False
) -> None:
    """Reject a configured filter edge outside ``(0, sample_rate/2)``.

    Front-end configs call this from ``__post_init__``, so a bad edge
    fails when the config is built rather than later inside a pool
    task.  ``allow_zero`` widens the range to ``[0, sample_rate/2)``
    for edges where 0 disables the filter.
    """
    nyquist = sample_rate / 2.0
    above_low = edge_hz >= 0 if allow_zero else edge_hz > 0
    if not (above_low and edge_hz < nyquist):
        low = "[0" if allow_zero else "(0"
        raise ValueError(
            f"{name} {edge_hz:g} Hz outside {low}, {nyquist:g})"
        )


def butterworth_highpass(
    cutoff_hz: float, sample_rate: float, order: int = 2
) -> AnalogFilter:
    """Butterworth high-pass (the inter-stage DC/flicker blocking filter)."""
    nyquist = sample_rate / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz:g} Hz outside (0, {nyquist:g})"
        )
    sos = iir_sos("butter", order, cutoff_hz / nyquist, "high")
    return AnalogFilter(
        sos=sos,
        description=f"butter highpass order={order} cutoff={cutoff_hz:g}Hz",
    )


def chebyshev_bandpass(
    center_hz: float,
    bandwidth_hz: float,
    sample_rate: float,
    order: int = 4,
    ripple_db: float = 0.5,
    max_relative_bandwidth: float = 0.5,
) -> AnalogFilter:
    """Chebyshev band-pass with the Spectre rflib validity restriction.

    Raises:
        BandwidthLimitError: when ``bandwidth_hz > max_relative_bandwidth *
            center_hz`` (the library limitation reported in section 4.2).
    """
    if bandwidth_hz > max_relative_bandwidth * center_hz:
        raise BandwidthLimitError(
            f"bandpass bandwidth {bandwidth_hz:g} Hz exceeds "
            f"{max_relative_bandwidth} of the center frequency "
            f"{center_hz:g} Hz; compose a high-pass and a low-pass instead "
            f"(see wideband_bandpass)"
        )
    nyquist = sample_rate / 2.0
    lo = (center_hz - bandwidth_hz / 2.0) / nyquist
    hi = (center_hz + bandwidth_hz / 2.0) / nyquist
    if not 0 < lo < hi < 1:
        raise ValueError("bandpass corners outside the representable band")
    sos = iir_sos("cheby1", order, (lo, hi), "band", ripple_db)
    return AnalogFilter(
        sos=sos,
        description=(
            f"cheby1 bandpass order={order} center={center_hz:g}Hz "
            f"bw={bandwidth_hz:g}Hz"
        ),
    )


def wideband_bandpass(
    low_edge_hz: float,
    high_edge_hz: float,
    sample_rate: float,
    order: int = 3,
    ripple_db: float = 0.5,
) -> AnalogFilter:
    """The paper's workaround: cascade of high-pass and low-pass sections.

    Used when a band-pass wider than half its center frequency is needed
    (impossible with the restricted band-pass model).
    """
    if not 0 < low_edge_hz < high_edge_hz:
        raise ValueError("edges must satisfy 0 < low < high")
    hp = butterworth_highpass(low_edge_hz, sample_rate, order=order)
    lp = chebyshev_lowpass(
        high_edge_hz, sample_rate, order=order, ripple_db=ripple_db
    )
    sos = np.vstack([hp.sos, lp.sos])
    return AnalogFilter(
        sos=sos,
        description=(
            f"HP+LP composite bandpass [{low_edge_hz:g}, {high_edge_hz:g}]Hz"
        ),
    )
