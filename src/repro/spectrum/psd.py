"""Power spectral density estimation and channel-power measurements.

Supports the paper's figure 4 (an OFDM signal with its adjacent channel at
5.2 GHz) and general spectral verification: Welch PSD in dBm/Hz, band
powers, ACPR and the 802.11a transmit spectral mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.rf.signal import Signal, watts_to_dbm
from repro.scipy_signal import sps


@dataclass
class PowerSpectralDensity:
    """A two-sided PSD estimate of a complex envelope.

    Attributes:
        freqs_hz: frequency axis relative to the carrier reference
            (two-sided, ascending).
        psd_w_hz: PSD in watts/Hz.
        carrier_frequency: absolute carrier the offsets refer to.
    """

    freqs_hz: np.ndarray
    psd_w_hz: np.ndarray
    carrier_frequency: float = 0.0

    @property
    def psd_dbm_hz(self) -> np.ndarray:
        """PSD in dBm/Hz (floored at -250 dBm/Hz)."""
        floor = 1e-28
        return 10.0 * np.log10(np.maximum(self.psd_w_hz, floor) / 1e-3)

    @property
    def absolute_freqs_hz(self) -> np.ndarray:
        """Absolute frequency axis (figure 4 shows 5.2 GHz +/- offsets)."""
        return self.freqs_hz + self.carrier_frequency

    def band_power_watts(self, f_low: float, f_high: float) -> float:
        """Integrated power between two offset frequencies."""
        if f_high <= f_low:
            raise ValueError("f_high must exceed f_low")
        mask = (self.freqs_hz >= f_low) & (self.freqs_hz < f_high)
        if not np.any(mask):
            return 0.0
        integrate = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        return float(integrate(self.psd_w_hz[mask], self.freqs_hz[mask]))


def welch_psd(
    signal: Signal, nperseg: int = 1024, window: str = "hann"
) -> PowerSpectralDensity:
    """Welch PSD of a complex-envelope signal.

    Args:
        signal: the signal to analyze.
        nperseg: Welch segment length (reduced automatically for short
            signals).
        window: window name passed to scipy.

    Returns:
        A :class:`PowerSpectralDensity` with an ascending two-sided axis.
    """
    n = min(nperseg, signal.samples.size)
    if n < 8:
        raise ValueError("signal too short for PSD estimation")
    freqs, psd = sps().welch(
        signal.samples,
        fs=signal.sample_rate,
        window=window,
        nperseg=n,
        return_onesided=False,
        detrend=False,
    )
    order = np.argsort(freqs)
    return PowerSpectralDensity(
        freqs_hz=freqs[order],
        psd_w_hz=psd[order],
        carrier_frequency=signal.carrier_frequency,
    )


def band_power_dbm(
    signal: Signal, f_low: float, f_high: float, nperseg: int = 1024
) -> float:
    """Power in dBm within an offset-frequency band."""
    psd = welch_psd(signal, nperseg=nperseg)
    return watts_to_dbm(psd.band_power_watts(f_low, f_high))


def adjacent_channel_power_ratio_db(
    signal: Signal,
    channel_bandwidth_hz: float = 16.6e6,
    channel_spacing_hz: float = 20e6,
    nperseg: int = 2048,
) -> Tuple[float, float]:
    """ACPR of the envelope: (lower, upper) adjacent over in-band power.

    Returns:
        Tuple of lower/upper adjacent-channel power ratios in dB (negative
        values mean the adjacent channel is below the in-band power).
    """
    psd = welch_psd(signal, nperseg=nperseg)
    half = channel_bandwidth_hz / 2.0
    main = psd.band_power_watts(-half, half)
    if main <= 0:
        raise ValueError("no in-band power")
    lower = psd.band_power_watts(-channel_spacing_hz - half, -channel_spacing_hz + half)
    upper = psd.band_power_watts(channel_spacing_hz - half, channel_spacing_hz + half)
    tiny = 1e-30
    return (
        10.0 * np.log10(max(lower, tiny) / main),
        10.0 * np.log10(max(upper, tiny) / main),
    )


def occupied_bandwidth_hz(signal: Signal, fraction: float = 0.99) -> float:
    """Bandwidth containing ``fraction`` of the total power (centered)."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    psd = welch_psd(signal)
    df = np.diff(psd.freqs_hz, prepend=psd.freqs_hz[0] - (psd.freqs_hz[1] - psd.freqs_hz[0]))
    powers = psd.psd_w_hz * df
    total = powers.sum()
    if total <= 0:
        return 0.0
    # Grow a symmetric window around 0 offset until the fraction is reached.
    order = np.argsort(np.abs(psd.freqs_hz))
    cumulative = np.cumsum(powers[order])
    idx = np.searchsorted(cumulative, fraction * total)
    idx = min(idx, order.size - 1)
    return 2.0 * float(np.abs(psd.freqs_hz[order[idx]]))


def transmit_mask_802_11a_dbr(offset_hz: np.ndarray) -> np.ndarray:
    """The 802.11a transmit spectral mask in dBr vs. frequency offset.

    Breakpoints (17.3.9.2): 0 dBr inside +/-9 MHz, -20 dBr at 11 MHz,
    -28 dBr at 20 MHz, -40 dBr at 30 MHz and beyond (linear interpolation
    between breakpoints).
    """
    offset = np.abs(np.asarray(offset_hz, dtype=float))
    points_mhz = np.array([0.0, 9.0, 11.0, 20.0, 30.0, 1e6])
    values_dbr = np.array([0.0, 0.0, -20.0, -28.0, -40.0, -40.0])
    return np.interp(offset / 1e6, points_mhz, values_dbr)


def check_transmit_mask(
    signal: Signal, resolution_hz: float = 100e3
) -> Tuple[bool, float]:
    """Check a transmit signal against the 802.11a spectral mask.

    The PSD is normalized to its maximum in-band density (dBr) and compared
    with :func:`transmit_mask_802_11a_dbr`.

    Returns:
        ``(passes, worst_margin_db)`` where a positive margin means the
        spectrum is below the mask everywhere.
    """
    nperseg = max(int(signal.sample_rate / resolution_hz), 64)
    nperseg = min(nperseg, signal.samples.size)
    psd = welch_psd(signal, nperseg=nperseg)
    ref = psd.psd_w_hz.max()
    if ref <= 0:
        raise ValueError("signal has no power")
    dbr = 10.0 * np.log10(np.maximum(psd.psd_w_hz, 1e-30) / ref)
    mask = transmit_mask_802_11a_dbr(psd.freqs_hz)
    margin = mask - dbr
    worst = float(margin.min())
    return worst >= 0.0, worst
