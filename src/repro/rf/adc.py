"""Analog-to-digital converter model (the "ADC" block of figure 1).

Quantizes I and Q with full-scale clipping and optionally decimates the
oversampled front-end output down to the 20 MHz rate the DSP receiver
expects (the anti-alias decimation filter plays the DAC/ADC reconstruction
role in the level adaptation between the RF and DSP parts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.iqfilter import resample
from repro.rf.signal import Signal, dbm_to_watts


@dataclass
class Adc:
    """Quantizing, clipping, decimating ADC.

    The decimation is, by default, plain subsampling: a real ADC clocked at
    20 MHz has no brick-wall anti-alias of its own, so any adjacent-channel
    energy the *analog* channel filter failed to remove folds into the
    wanted band.  This is precisely why the paper oversamples the baseband
    "to fulfill the sampling theorem" and why the figure-5 BER rises again
    for too-wide channel filters.  Set ``anti_alias=True`` for an idealized
    filtered decimation instead.

    Attributes:
        n_bits: resolution per I/Q rail; None disables quantization
            (ideal ADC).
        full_scale_dbm: envelope power of a full-scale sine; the clip level
            per rail is the corresponding amplitude.
        decimation: integer decimation factor to reach the output rate.
        anti_alias: apply an ideal decimation filter before subsampling.
    """

    n_bits: Optional[int] = 10
    full_scale_dbm: float = 0.0
    decimation: int = 1
    anti_alias: bool = False

    def __post_init__(self):
        if self.n_bits is not None and self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")

    @property
    def clip_amplitude(self) -> float:
        """Per-rail clip amplitude corresponding to full scale."""
        return float(np.sqrt(dbm_to_watts(self.full_scale_dbm)))

    def process(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Signal:
        """Digitize the signal.  ``rng`` is unused (quantization is
        deterministic)."""
        x = signal.samples
        rate = signal.sample_rate
        if self.decimation > 1:
            if self.anti_alias:
                x = resample(x, 1, self.decimation)
            else:
                x = x[:: self.decimation]
            rate = rate / self.decimation
        if self.n_bits is not None:
            a = self.clip_amplitude
            levels = 2 ** (self.n_bits - 1)
            step = a / levels
            i = np.clip(np.round(x.real / step), -levels, levels - 1) * step
            q = np.clip(np.round(x.imag / step), -levels, levels - 1) * step
            x = i + 1j * q
        return Signal(
            samples=x,
            sample_rate=rate,
            carrier_frequency=signal.carrier_frequency,
        )
