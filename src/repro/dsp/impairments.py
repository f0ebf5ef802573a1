"""Standalone baseband impairment operators.

Utilities to inject the impairments the RF models produce — carrier
frequency offset, sample-clock offset, I/Q imbalance, DC offset — directly
onto a baseband waveform, for receiver robustness testing independent of
the full front-end models.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

import numpy as np

from repro.dsp.params import SAMPLE_RATE
from repro.scipy_signal import sps


def apply_frequency_offset(
    samples: np.ndarray, offset_hz: float, sample_rate: float = SAMPLE_RATE
) -> np.ndarray:
    """Rotate a waveform by a carrier frequency offset."""
    samples = np.asarray(samples, dtype=complex)
    n = np.arange(samples.size)
    return samples * np.exp(2j * np.pi * offset_hz * n / sample_rate)


def apply_sample_clock_offset(
    samples: np.ndarray, ppm: float, max_denominator: int = 2_000_000
) -> np.ndarray:
    """Resample a waveform as seen by a clock off by ``ppm`` parts/million.

    A receiver ADC clocked ``ppm`` too fast samples the waveform at a
    fractionally different rate; this is realized with a rational
    polyphase resampler approximating ``1 / (1 + ppm * 1e-6)``.

    Args:
        samples: input waveform.
        ppm: clock error in parts per million (positive = receiver clock
            fast, waveform appears stretched).
        max_denominator: bound of the rational approximation.

    Returns:
        The resampled waveform (length changes by ~ppm).
    """
    samples = np.asarray(samples, dtype=complex)
    if ppm == 0.0:
        return samples.copy()
    ratio = Fraction(1.0 / (1.0 + ppm * 1e-6)).limit_denominator(
        max_denominator
    )
    return sps().resample_poly(samples, ratio.numerator, ratio.denominator)


def apply_iq_imbalance(
    samples: np.ndarray, amplitude_db: float, phase_deg: float
) -> np.ndarray:
    """Apply receive-side I/Q amplitude and phase imbalance.

    Uses the standard ``y = mu * x + nu * conj(x)`` model.
    """
    samples = np.asarray(samples, dtype=complex)
    g = 10.0 ** (amplitude_db / 20.0)
    phi = np.deg2rad(phase_deg)
    mu = 0.5 * (1.0 + g * np.exp(1j * phi))
    nu = 0.5 * (1.0 - g * np.exp(1j * phi))
    return mu * samples + nu * np.conj(samples)


def apply_dc_offset(samples: np.ndarray, offset: complex) -> np.ndarray:
    """Add a complex DC offset."""
    return np.asarray(samples, dtype=complex) + offset


def image_rejection_from_imbalance(
    amplitude_db: float, phase_deg: float
) -> float:
    """IRR [dB] implied by an amplitude/phase imbalance pair."""
    g = 10.0 ** (amplitude_db / 20.0)
    phi = np.deg2rad(phase_deg)
    mu = 0.5 * (1.0 + g * np.exp(1j * phi))
    nu = 0.5 * (1.0 - g * np.exp(1j * phi))
    if abs(nu) == 0:
        return np.inf
    return float(20.0 * np.log10(abs(mu) / abs(nu)))
