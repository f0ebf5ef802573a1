"""Multipath fading channel (the SPW demo system's "fading channel").

Two operating regimes:

* **Block-static** (``max_doppler_hz == 0``, the default and the SPW
  demo's behavior): taps are complex Gaussian with an exponential
  power-delay profile, drawn once per packet — indoor WLAN channels are
  quasi-static over a packet duration.  The RMS delay spread
  parameterization matches the common 802.11a evaluation channels
  (50-150 ns).
* **Time-varying** (``max_doppler_hz > 0``): each tap evolves as a
  Clarke/Jakes process synthesized by a sum of sinusoids — ``M``
  complex exponentials per tap at Doppler shifts ``f_d * cos(alpha_m)``
  with independent uniform arrival angles and phases, whose power
  spectrum converges on the classic Jakes U-shape.  The channel is then
  genuinely frequency- *and* time-selective, so scenarios are no longer
  forced block-static.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rf.signal import Signal


def exponential_power_delay_profile(
    rms_delay_spread_s: float, sample_rate: float, cutoff_db: float = 30.0
) -> np.ndarray:
    """Tap powers of an exponential PDP, normalized to unit total power.

    Args:
        rms_delay_spread_s: RMS delay spread in seconds.
        sample_rate: tap spacing is one sample.
        cutoff_db: taps below the first tap by more than this are dropped.

    Returns:
        Array of tap powers summing to 1 (length >= 1).
    """
    if rms_delay_spread_s < 0:
        raise ValueError("delay spread must be non-negative")
    if rms_delay_spread_s == 0:
        return np.array([1.0])
    ts = 1.0 / sample_rate
    n_taps = max(int(np.ceil(cutoff_db / 10.0 * np.log(10.0)
                             * rms_delay_spread_s / ts)), 1)
    k = np.arange(n_taps + 1)
    powers = np.exp(-k * ts / rms_delay_spread_s)
    powers /= powers.sum()
    return powers


@dataclass
class FadingChannel:
    """Rayleigh/Rician tapped-delay-line channel, block-static or Doppler.

    Attributes:
        rms_delay_spread_s: RMS delay spread (0 gives a single Rayleigh
            tap, i.e. flat fading).
        rice_factor_db: K-factor of the first tap; -inf for pure Rayleigh.
        normalize: block-static — scale each realization to exactly unit
            power so BER curves condition on the average channel gain;
            time-varying — the sum-of-sinusoids taps carry unit
            *expected* power by construction (a per-sample exact
            normalization would distort the Doppler statistics).
        max_doppler_hz: maximum Doppler shift ``f_d = v/c * f_carrier``;
            0 keeps the legacy block-static behavior bit for bit.
        n_sinusoids: sum-of-sinusoids order of the Jakes synthesis per
            tap (only used when ``max_doppler_hz > 0``).

    Raises:
        ValueError: when ``rms_delay_spread_s`` or ``max_doppler_hz`` is
            negative or ``n_sinusoids`` is below 1.
    """

    rms_delay_spread_s: float = 50e-9
    rice_factor_db: float = -np.inf
    normalize: bool = True
    max_doppler_hz: float = 0.0
    n_sinusoids: int = 16

    def __post_init__(self):
        if self.rms_delay_spread_s < 0:
            raise ValueError(
                f"rms_delay_spread_s {self.rms_delay_spread_s!r} is negative"
            )
        if self.max_doppler_hz < 0:
            raise ValueError(
                f"max_doppler_hz {self.max_doppler_hz!r} is negative"
            )
        if self.n_sinusoids < 1:
            raise ValueError(
                f"n_sinusoids {self.n_sinusoids!r} must be >= 1"
            )

    def realize(
        self, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one block-static channel impulse response (complex taps)."""
        powers = exponential_power_delay_profile(
            self.rms_delay_spread_s, sample_rate
        )
        taps = np.sqrt(powers / 2.0) * (
            rng.standard_normal(powers.size)
            + 1j * rng.standard_normal(powers.size)
        )
        if np.isfinite(self.rice_factor_db):
            k = 10.0 ** (self.rice_factor_db / 10.0)
            los = np.sqrt(powers[0] * k / (k + 1.0))
            taps[0] = los + taps[0] / np.sqrt(k + 1.0)
        if self.normalize:
            norm = np.sqrt(np.sum(np.abs(taps) ** 2))
            if norm > 0:
                taps = taps / norm
        return taps

    def realize_time_varying(
        self,
        n_samples: int,
        sample_rate: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw one Jakes-spectrum tap trajectory, shape ``(n_taps, n)``.

        Tap ``k`` is ``sqrt(P_k / M) * sum_m exp(j(2 pi f_d cos(a_m) t
        + phi_m))`` with ``a_m``, ``phi_m`` independent uniform — the
        Clarke sum-of-sinusoids model, whose spectrum approaches the
        Jakes U-shape as ``M`` grows and whose expected power is exactly
        ``P_k`` at every instant.  A finite Rician K-factor replaces
        part of the first tap with a line-of-sight phasor at Doppler
        ``f_d * cos(theta_0)`` for a random arrival angle ``theta_0``.
        """
        if self.max_doppler_hz <= 0:
            raise ValueError("realize_time_varying needs max_doppler_hz > 0")
        powers = exponential_power_delay_profile(
            self.rms_delay_spread_s, sample_rate
        )
        m = int(self.n_sinusoids)
        t = np.arange(int(n_samples)) / float(sample_rate)
        fd = float(self.max_doppler_hz)
        k_factor = (
            10.0 ** (self.rice_factor_db / 10.0)
            if np.isfinite(self.rice_factor_db)
            else 0.0
        )
        taps = np.empty((powers.size, int(n_samples)), dtype=complex)
        for k, power in enumerate(powers):
            angles = rng.uniform(0.0, 2.0 * np.pi, m)
            phases = rng.uniform(0.0, 2.0 * np.pi, m)
            # (m, n) phase ramps summed down to one trajectory per tap.
            ramps = (
                2.0 * np.pi * fd * np.cos(angles)[:, None] * t[None, :]
                + phases[:, None]
            )
            diffuse = np.exp(1j * ramps).sum(axis=0) * np.sqrt(power / m)
            if k == 0 and k_factor > 0.0:
                theta0 = rng.uniform(0.0, 2.0 * np.pi)
                phi0 = rng.uniform(0.0, 2.0 * np.pi)
                los = np.sqrt(power * k_factor / (k_factor + 1.0)) * np.exp(
                    1j * (2.0 * np.pi * fd * np.cos(theta0) * t + phi0)
                )
                diffuse = diffuse / np.sqrt(k_factor + 1.0) + los
            taps[k] = diffuse
        return taps

    def process(self, signal: Signal, rng: np.random.Generator) -> Signal:
        """Convolve the signal with one channel realization.

        Block-static (``max_doppler_hz == 0``): one tap draw, linear
        convolution truncated to the input length (the convolution tail
        — the last ``n_taps - 1`` smeared samples — falls outside the
        simulated window by the quasi-static packet convention).

        Time-varying: per-sample tap trajectories applied as
        ``y[n] = sum_k g_k[n] x[n-k]``, same output-length convention.
        """
        if self.max_doppler_hz > 0.0:
            x = signal.samples
            taps = self.realize_time_varying(
                x.size, signal.sample_rate, rng
            )
            y = np.zeros(x.size, dtype=complex)
            for k in range(taps.shape[0]):
                if k == 0:
                    y += taps[0] * x
                elif k < x.size:
                    y[k:] += taps[k, k:] * x[: x.size - k]
            return signal.with_samples(y)
        taps = self.realize(signal.sample_rate, rng)
        y = np.convolve(signal.samples, taps)[: signal.samples.size]
        return signal.with_samples(y)
