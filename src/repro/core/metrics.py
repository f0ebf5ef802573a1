"""Transmission-quality metrics: BER and EVM (section 5 of the paper).

"The quality of a transmission system can be best determined by performing
a bit error rate measurement. [...] In contrast to a BER an error vector
magnitude (EVM) describes the error rate of the really received OFDM
symbols before they are estimated in the Viterbi decoder."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


@dataclass
class BerMeasurement:
    """A completed BER measurement.

    Attributes:
        ber: bit error rate estimate.
        per: packet error rate estimate.
        bit_errors: accumulated (possibly fractional, for lost packets)
            bit errors.
        bits_total: bits compared.
        packets: packets simulated.
        packets_lost: packets that failed to decode.
        ci95: 95% confidence interval of the BER (normal approximation).
    """

    ber: float
    per: float
    bit_errors: float
    bits_total: int
    packets: int
    packets_lost: int
    ci95: Tuple[float, float]


class BerCounter:
    """Accumulates bit errors over packets.

    Lost packets (no decode) count as half their bits in error — the
    expected error rate of guessing, which is why the paper's BER plots
    saturate around 0.4-0.5.
    """

    def __init__(self):
        self.bit_errors = 0.0
        self.bits_total = 0
        self.packets = 0
        self.packets_errored = 0
        self.packets_lost = 0

    def add_packet(self, ref_bits: np.ndarray, rx_bits: Optional[np.ndarray]):
        """Record one packet: ``rx_bits=None`` marks a lost packet."""
        ref_bits = np.asarray(ref_bits)
        n_bits = ref_bits.size
        if rx_bits is None or np.asarray(rx_bits).size != n_bits:
            self.add_outcome(n_bits / 2.0, n_bits, lost=True)
        else:
            self.add_outcome(
                int(np.count_nonzero(ref_bits != np.asarray(rx_bits))), n_bits
            )

    def add_outcome(self, bit_errors: float, n_bits: int, lost: bool = False):
        """Record one scored packet: its error count and size.

        A lost packet carries its half-bits guess as ``bit_errors``.
        """
        self.packets += 1
        self.bits_total += n_bits
        self.bit_errors += bit_errors
        if lost:
            self.packets_lost += 1
        if lost or bit_errors:
            self.packets_errored += 1

    @property
    def ber(self) -> float:
        """Current bit error rate estimate."""
        return self.bit_errors / self.bits_total if self.bits_total else 0.0

    def result(self) -> BerMeasurement:
        """Finalize the measurement."""
        ber = self.ber
        n = max(self.bits_total, 1)
        sigma = np.sqrt(max(ber * (1.0 - ber), 0.0) / n)
        ci = (max(ber - 1.96 * sigma, 0.0), min(ber + 1.96 * sigma, 1.0))
        per = self.packets_errored / self.packets if self.packets else 0.0
        return BerMeasurement(
            ber=ber,
            per=per,
            bit_errors=self.bit_errors,
            bits_total=self.bits_total,
            packets=self.packets,
            packets_lost=self.packets_lost,
            ci95=ci,
        )


def _wilson(p: float, trials: float, z: float) -> Tuple[float, float]:
    """Wilson score interval from a proportion and a (float) trial count."""
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        z
        * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    return (max(center - half, 0.0), min(center + half, 1.0))


def binomial_confidence(
    errors: float, trials: int, z: float = 4.5
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Used by the QA oracles to bound a Monte-Carlo BER estimate: the true
    error probability lies inside the returned interval with confidence
    set by ``z`` standard normal deviates (the default ~4.5 sigma keeps
    the false-alarm rate of a CI gate negligible).  The Wilson interval
    stays valid near 0 errors, where the normal approximation collapses.

    Args:
        errors: observed error count.
        trials: number of Bernoulli trials (must be positive).
        z: normal quantile of the desired confidence.

    Returns:
        ``(low, high)`` bounds on the underlying probability.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    return _wilson(errors / trials, trials, z)


def weighted_binomial_confidence(
    weighted_errors: float, effective_trials: float, z: float = 4.5
) -> Tuple[float, float]:
    """Wilson interval on importance-sampling *effective* counts.

    A weighted BER estimate does not come with an integer error count,
    but it does come with an effective trial count (variance-matched or
    ESS-based, see :class:`repro.perf.rare.WeightedBerState`) and the
    corresponding effective error mass ``ber * n_eff``.  Feeding those
    through the same Wilson score formula as
    :func:`binomial_confidence` keeps the interval's behavior near zero
    errors, and reduces to the unweighted interval exactly when the
    effective counts are the raw ones (all weights equal one).

    Args:
        weighted_errors: effective error mass (may be fractional).
        effective_trials: effective number of Bernoulli trials; a
            non-positive value yields the vacuous interval ``(0, 1)``.
        z: normal quantile of the desired confidence.

    Returns:
        ``(low, high)`` bounds on the underlying probability.
    """
    if effective_trials <= 0:
        return (0.0, 1.0)
    # The unnormalized weighted estimator can stray outside [0, 1] on
    # pathological weight draws; the proportion fed to Wilson is the
    # physical clip.
    p = min(max(weighted_errors / effective_trials, 0.0), 1.0)
    return _wilson(p, float(effective_trials), z)


def error_vector_magnitude(
    received: np.ndarray, reference: np.ndarray, normalize: bool = True
) -> float:
    """RMS error vector magnitude of received constellation points.

    ``EVM_rms = sqrt(mean |r - s|^2 / mean |s|^2)`` — "the distance between
    the complex point of a received symbol to the ideal complex point of a
    reference".

    Args:
        received: received (equalized) constellation points.
        reference: the ideal transmitted points, same shape.
        normalize: scale the received points by the least-squares complex
            gain first (removes any residual amplitude/phase offset, as a
            practical EVM analyzer does).

    Returns:
        The RMS EVM as a linear fraction (multiply by 100 for percent).
    """
    received = np.asarray(received, dtype=complex).ravel()
    reference = np.asarray(reference, dtype=complex).ravel()
    if received.shape != reference.shape:
        raise ValueError("received and reference shapes differ")
    if received.size == 0:
        raise ValueError("empty symbol arrays")
    if np.mean(np.abs(reference) ** 2) <= 0:
        raise ValueError("reference has no power")
    error_ratio, _ = normalized_error_power(received, reference, normalize)
    return float(np.sqrt(error_ratio))


def normalized_error_power(
    received: np.ndarray, reference: np.ndarray, normalize: bool = True
) -> Tuple[float, np.ndarray]:
    """Squared RMS EVM ``mean |r - s|^2 / mean |s|^2`` and its points.

    With ``normalize`` the received points are first divided by the
    least-squares complex gain; the (corrected) points are returned
    alongside the ratio.  The caller guarantees two equal-length,
    non-empty complex arrays and a reference with non-zero power.
    """
    work = received
    if normalize:
        gain = np.vdot(reference, received) / np.vdot(reference, reference)
        if gain != 0:
            work = received / gain
    error_ratio = float(
        np.mean(np.abs(work - reference) ** 2)
        / np.mean(np.abs(reference) ** 2)
    )
    return error_ratio, work


def subcarrier_error_profile(
    received: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Per-subcarrier RMS EVM profile across a burst of OFDM symbols.

    Diagnoses *where* in the band errors concentrate: a DC-block notch
    inflates the innermost subcarriers, adjacent-channel leakage the outer
    ones, phase noise all of them equally.

    Args:
        received: equalized data constellation points, shape
            ``(n_symbols, n_subcarriers)``.
        reference: transmitted points, same shape.

    Returns:
        RMS EVM per subcarrier column (length ``n_subcarriers``).
    """
    received = np.atleast_2d(np.asarray(received, dtype=complex))
    reference = np.atleast_2d(np.asarray(reference, dtype=complex))
    if received.shape != reference.shape:
        raise ValueError("received and reference shapes differ")
    if received.size == 0:
        raise ValueError("empty symbol arrays")
    ref_power = np.mean(np.abs(reference) ** 2)
    if ref_power <= 0:
        raise ValueError("reference has no power")
    error_power = np.mean(np.abs(received - reference) ** 2, axis=0)
    return np.sqrt(error_power / ref_power)


def evm_to_snr_db(evm_fraction: float) -> float:
    """Equivalent SNR of an EVM (noise-dominated approximation)."""
    if evm_fraction <= 0:
        return np.inf
    return -20.0 * np.log10(evm_fraction)


def snr_to_evm_percent(snr_db: float) -> float:
    """EVM (percent) expected from a given SNR."""
    return 100.0 * 10.0 ** (-snr_db / 20.0)
