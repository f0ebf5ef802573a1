"""Filter design program (SPW ships one: "a waveform viewer SigCalc and a
filter design program is also provided").

Given a passband/stopband specification, estimate the minimum Chebyshev-I
order, design the filter, and verify the result against the spec — the
workflow behind choosing the figure-5 channel filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.rf.filters import AnalogFilter
from repro.scipy_signal import sps


@dataclass(frozen=True)
class FilterSpec:
    """A low-pass filter requirement.

    Attributes:
        passband_edge_hz: edge of the (envelope) passband.
        stopband_edge_hz: frequency where the attenuation must be reached.
        passband_ripple_db: maximum passband ripple.
        stopband_atten_db: minimum stopband attenuation.
        sample_rate: simulation rate the filter will run at.
    """

    passband_edge_hz: float
    stopband_edge_hz: float
    passband_ripple_db: float = 0.5
    stopband_atten_db: float = 40.0
    sample_rate: float = 80e6

    def __post_init__(self):
        nyq = self.sample_rate / 2.0
        if not 0 < self.passband_edge_hz < self.stopband_edge_hz < nyq:
            raise ValueError(
                "need 0 < passband < stopband < Nyquist "
                f"(got {self.passband_edge_hz:g}, {self.stopband_edge_hz:g}, "
                f"Nyquist {nyq:g})"
            )
        if self.passband_ripple_db <= 0 or self.stopband_atten_db <= 0:
            raise ValueError("ripple and attenuation must be positive")


@dataclass
class FilterDesignReport:
    """Outcome of a filter design run.

    Attributes:
        spec: the requested specification.
        order: the minimum order found.
        filter: the designed filter.
        measured_passband_ripple_db: worst passband deviation.
        measured_stopband_atten_db: attenuation at the stopband edge.
        meets_spec: whether the verification passed.
    """

    spec: FilterSpec
    order: int
    filter: AnalogFilter
    measured_passband_ripple_db: float
    measured_stopband_atten_db: float

    @property
    def meets_spec(self) -> bool:
        return (
            self.measured_passband_ripple_db
            <= self.spec.passband_ripple_db + 0.1
            and self.measured_stopband_atten_db
            >= self.spec.stopband_atten_db - 0.5
        )


def design_channel_filter(spec: FilterSpec) -> FilterDesignReport:
    """Design the minimum-order Chebyshev-I low-pass meeting ``spec``.

    Returns:
        A report with the designed filter and the verification
        measurements (worst passband ripple, stopband-edge attenuation).
    """
    nyq = spec.sample_rate / 2.0
    order, wn = sps().cheb1ord(
        spec.passband_edge_hz / nyq,
        spec.stopband_edge_hz / nyq,
        spec.passband_ripple_db,
        spec.stopband_atten_db,
    )
    sos = sps().cheby1(
        order, spec.passband_ripple_db, wn, btype="low", output="sos"
    )
    filt = AnalogFilter(
        sos=sos,
        description=(
            f"cheby1 lowpass order={order} designed for "
            f"pb={spec.passband_edge_hz:g}Hz "
            f"sb={spec.stopband_edge_hz:g}Hz "
            f"ripple={spec.passband_ripple_db}dB "
            f"atten={spec.stopband_atten_db}dB"
        ),
    )
    ripple, atten = _verify(filt, spec)
    return FilterDesignReport(
        spec=spec,
        order=order,
        filter=filt,
        measured_passband_ripple_db=ripple,
        measured_stopband_atten_db=atten,
    )


def _verify(filt: AnalogFilter, spec: FilterSpec) -> Tuple[float, float]:
    """Measure worst passband ripple and stopband-edge attenuation."""
    nyq = spec.sample_rate / 2.0
    pass_freqs = np.linspace(0.0, spec.passband_edge_hz, 256)
    w = pass_freqs / nyq * np.pi
    _, h_pass = sps().sosfreqz(filt.sos, worN=w)
    ripple = float(-20.0 * np.log10(np.abs(h_pass).min() + 1e-300))
    w_stop = np.array([spec.stopband_edge_hz / nyq * np.pi])
    _, h_stop = sps().sosfreqz(filt.sos, worN=w_stop)
    atten = float(-20.0 * np.log10(abs(h_stop[0]) + 1e-300))
    return ripple, atten
