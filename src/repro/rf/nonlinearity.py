"""Memoryless nonlinearity models for RF amplifiers and mixers.

Two model families are provided, mirroring the two behavioral libraries the
paper contrasts:

* :class:`CubicNonlinearity` — the classic third-order polynomial envelope
  model used by the SPW ``rflib`` blocks, parameterized by gain and either
  the input 1-dB compression point or the input third-order intercept.
* :class:`RappNonlinearity` — a smooth saturation (Rapp) AM/AM model with a
  parametric AM/PM characteristic, matching the "extended functionality
  including AM/PM conversion" of the SpectreRF baseband models.

Power convention: envelope power is ``|x|**2`` watts (see
:mod:`repro.rf.signal`); intercept/compression points refer to that
envelope power (two-tone quantities are per tone).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rf.signal import dbm_to_watts, watts_to_dbm

#: Gain-compression ratio at the 1 dB compression point: 1 - 10**(-1/20).
_ONE_DB_FRACTION = 1.0 - 10.0 ** (-1.0 / 20.0)

#: Classical P1dB/IIP3 offset of a cubic nonlinearity in dB (~9.64 dB).
P1DB_IIP3_OFFSET_DB = -10.0 * np.log10(_ONE_DB_FRACTION)


def iip3_from_p1db(p1db_dbm: float) -> float:
    """IIP3 [dBm] of a cubic nonlinearity with the given input P1dB."""
    return p1db_dbm + P1DB_IIP3_OFFSET_DB


def p1db_from_iip3(iip3_dbm: float) -> float:
    """Input P1dB [dBm] of a cubic nonlinearity with the given IIP3."""
    return iip3_dbm - P1DB_IIP3_OFFSET_DB


@dataclass
class CubicNonlinearity:
    """Third-order compressive envelope nonlinearity.

    The envelope transfer is ``y = g*x - c*|x|^2*x`` for small/medium
    envelopes; beyond the amplitude where the cubic characteristic peaks the
    output is held at its maximum (hard saturation), which keeps the model
    monotone.

    The derivations (envelope power convention, per-tone two-tone IM3):

    * input IIP3 power:  ``P_IIP3 = g_lin / c`` with ``g_lin`` the *linear
      power gain* and per-tone fundamental/IM3 equality at the intercept;
    * input P1dB power:  ``P_1dB = (1 - 10^(-1/20)) * g/c`` so that
      ``P1dB = IIP3 - 9.64 dB``.

    Attributes:
        gain_db: small-signal power gain in dB.
        iip3_dbm: input-referred third-order intercept point in dBm.
    """

    gain_db: float
    iip3_dbm: float

    @classmethod
    def from_p1db(cls, gain_db: float, p1db_dbm: float) -> "CubicNonlinearity":
        """Construct from gain and input 1-dB compression point."""
        return cls(gain_db=gain_db, iip3_dbm=iip3_from_p1db(p1db_dbm))

    @property
    def p1db_dbm(self) -> float:
        """Input 1-dB compression point implied by the IIP3."""
        return p1db_from_iip3(self.iip3_dbm)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Apply the nonlinearity to complex envelope samples."""
        samples = np.asarray(samples, dtype=complex)
        g = 10.0 ** (self.gain_db / 20.0)  # amplitude gain
        p_iip3 = dbm_to_watts(self.iip3_dbm)
        # y = g*x*(1 - |x|^2 / P_IIP3); cubic term coefficient c = g/P_IIP3.
        p_env = np.abs(samples) ** 2
        # The characteristic g*A*(1 - A^2/P) peaks at A^2 = P/3; clamp there.
        p_clamped = np.minimum(p_env, p_iip3 / 3.0)
        scale = g * (1.0 - p_clamped / p_iip3)
        # For envelopes beyond the peak, hold the peak output amplitude.
        out = samples * scale
        over = p_env > p_iip3 / 3.0
        if np.any(over):
            peak_amp = g * np.sqrt(p_iip3 / 3.0) * (2.0 / 3.0)
            phase = np.where(
                np.abs(samples[over]) > 0,
                samples[over] / np.abs(samples[over]),
                0,
            )
            out[over] = peak_amp * phase
        return out


@dataclass
class RappNonlinearity:
    """Rapp AM/AM model with parametric AM/PM conversion.

    AM/AM: ``A_out = g*A / (1 + (g*A/A_sat)^(2p))^(1/(2p))`` where ``A_sat``
    is the output saturation amplitude and ``p`` the smoothness.

    AM/PM: phase shift ``phi(A) = phi_max * (A^2/P_sat_in) /
    (1 + A^2/P_sat_in)`` — zero for small signals and approaching
    ``phi_max`` in saturation (a Saleh-style characteristic).

    Attributes:
        gain_db: small-signal power gain in dB.
        osat_dbm: output saturation power in dBm.
        smoothness: Rapp smoothness parameter p (>= 0.5).
        am_pm_deg: maximum AM/PM phase deviation in degrees.
    """

    gain_db: float
    osat_dbm: float
    smoothness: float = 2.0
    am_pm_deg: float = 0.0

    def __post_init__(self):
        if self.smoothness < 0.5:
            raise ValueError("Rapp smoothness must be >= 0.5")

    @property
    def input_p1db_dbm(self) -> float:
        """Numerically determined input 1-dB compression point."""
        g = 10.0 ** (self.gain_db / 20.0)
        a_sat = np.sqrt(dbm_to_watts(self.osat_dbm))
        # Solve (1 + r^(2p))^(1/(2p)) = 10^(1/20) with r = g*A/a_sat.
        target = 10.0 ** (1.0 / 20.0)
        r = (target ** (2 * self.smoothness) - 1.0) ** (
            1.0 / (2 * self.smoothness)
        )
        a_in = r * a_sat / g
        return watts_to_dbm(a_in**2)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Apply AM/AM and AM/PM to complex envelope samples."""
        samples = np.asarray(samples, dtype=complex)
        g = 10.0 ** (self.gain_db / 20.0)
        a_sat = np.sqrt(dbm_to_watts(self.osat_dbm))
        amp_in = np.abs(samples)
        driven = g * amp_in
        denom = (1.0 + (driven / a_sat) ** (2 * self.smoothness)) ** (
            1.0 / (2 * self.smoothness)
        )
        am_am = np.where(amp_in > 0, driven / np.maximum(denom, 1e-300), 0.0)
        out = np.where(amp_in > 0, samples / np.where(amp_in > 0, amp_in, 1.0), 0) * am_am
        if self.am_pm_deg != 0.0:
            p_sat_in = (a_sat / g) ** 2
            x = amp_in**2 / p_sat_in
            phi = np.deg2rad(self.am_pm_deg) * x / (1.0 + x)
            out = out * np.exp(1j * phi)
        return out

