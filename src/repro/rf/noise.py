"""Noise generation: thermal floor, white and flicker (1/f) sources.

The AMS-Designer limitation the paper reports — the ``white_noise`` and
``flicker_noise`` Verilog-A functions are unavailable in transient
(large-signal) co-simulation — is modeled by making every RF block's noise
injection conditional; see :mod:`repro.flow.cosim`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Standard noise reference temperature [K].
T0 = 290.0


def thermal_noise_power(bandwidth_hz: float, temperature_k: float = T0) -> float:
    """Thermal noise power kTB in watts over ``bandwidth_hz``."""
    if bandwidth_hz < 0:
        raise ValueError("bandwidth must be non-negative")
    return BOLTZMANN * temperature_k * bandwidth_hz


def check_noise_figures(config) -> None:
    """Reject a front-end config with a negative ``*_nf_db`` field.

    A noise figure below 0 dB is physically impossible; the amplifier
    and mixer models would silently simulate such a stage as noiseless.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name.endswith("_nf_db") and value < 0:
            raise ValueError(f"{f.name} must be >= 0 dB, got {value}")


def thermal_noise_psd_dbm_hz(temperature_k: float = T0) -> float:
    """Thermal noise density in dBm/Hz (-174 dBm/Hz at 290 K)."""
    return 10.0 * np.log10(BOLTZMANN * temperature_k / 1e-3)


def white_noise(
    n: int, power_watts: float, rng: np.random.Generator
) -> np.ndarray:
    """Complex white Gaussian noise with total average power ``power_watts``."""
    if power_watts < 0:
        raise ValueError("noise power must be non-negative")
    sigma = np.sqrt(power_watts / 2.0)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def flicker_noise(
    n: int,
    power_watts: float,
    corner_hz: float,
    sample_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Complex 1/f ("flicker") noise.

    The PSD follows ``corner_hz / |f|`` below the corner and is flat above
    DC-adjacent bins (the DC bin itself is zeroed); the total power over the
    full band is normalized to ``power_watts``.

    Args:
        n: number of samples.
        power_watts: total average noise power.
        corner_hz: 1/f corner frequency.
        sample_rate: sample rate of the generated sequence.
        rng: random generator.
    """
    if n == 0:
        return np.zeros(0, dtype=complex)
    if power_watts < 0:
        raise ValueError("noise power must be non-negative")
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    shape = np.zeros(n)
    nonzero = freqs != 0
    # PSD ~ corner/|f|, capped at the level of the first non-DC bin so the
    # synthesis does not diverge near DC.
    cap = corner_hz / max(sample_rate / n, 1e-9)
    shape[nonzero] = np.minimum(corner_hz / np.abs(freqs[nonzero]), cap)
    spectrum = np.sqrt(shape) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    noise = np.fft.ifft(spectrum)
    current = np.mean(np.abs(noise) ** 2)
    if current > 0:
        noise *= np.sqrt(power_watts / current)
    return noise


@dataclass
class NoiseSource:
    """A block-level additive noise source.

    Combines a white component (e.g. the input-referred thermal noise of an
    amplifier stage) and an optional flicker component (e.g. mixer 1/f
    noise).

    Attributes:
        white_power_watts: average white noise power over the simulation
            bandwidth.
        flicker_power_watts: average 1/f noise power.
        flicker_corner_hz: corner frequency of the 1/f component.
    """

    white_power_watts: float = 0.0
    flicker_power_watts: float = 0.0
    flicker_corner_hz: float = 1e6

    def generate(
        self, n: int, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Generate ``n`` samples of the combined noise waveform."""
        total = np.zeros(n, dtype=complex)
        if self.white_power_watts > 0:
            total += white_noise(n, self.white_power_watts, rng)
        if self.flicker_power_watts > 0:
            total += flicker_noise(
                n, self.flicker_power_watts, self.flicker_corner_hz,
                sample_rate, rng,
            )
        return total


def noise_figure_to_added_power(
    noise_figure_db: float, bandwidth_hz: float, temperature_k: float = T0
) -> float:
    """Input-referred added noise power of a stage with the given NF.

    A noise figure F adds ``(F - 1) * kTB`` of input-referred noise power on
    top of the source thermal noise.
    """
    if noise_figure_db < 0:
        raise ValueError("noise figure must be >= 0 dB")
    factor = 10.0 ** (noise_figure_db / 10.0)
    return (factor - 1.0) * thermal_noise_power(bandwidth_hz, temperature_k)
