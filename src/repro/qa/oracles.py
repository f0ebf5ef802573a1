"""Analytic oracles: closed-form theory the simulator must reproduce.

The conformance vectors of :mod:`repro.qa.vectors` pin the deterministic
TX chain; this module pins the *stochastic* and *analog* behavior
against results that exist independently of any implementation:

* exact AWGN bit-error probabilities for Gray-coded BPSK / QPSK /
  16-QAM / 64-QAM (the per-PAM-bit closed form of Cho & Yoon), checked
  against Monte-Carlo runs of the production mapper/demapper with a
  Wilson binomial acceptance interval;
* the coded 802.11a chain, whose measured BER must not exceed the
  uncoded theory at the same Eb/N0 (convolutional coding gain);
* Friis cascade noise figure, cascade IIP3 and cascade P1dB of the
  double-conversion front end's active line-up, checked against
  :func:`repro.flow.rfsim.characterize` over the executable models.

Every check returns an :class:`OracleCheck` so the QA harness, the CLI
and the test suite share one pass/fail record format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import erfc

from repro.core.metrics import binomial_confidence
from repro.dsp.modulation import BITS_PER_SYMBOL, Demapper, Mapper

#: Modulation of each 802.11a data rate (Mbit/s -> constellation).
RATE_MODULATIONS: Dict[int, str] = {
    6: "BPSK",
    9: "BPSK",
    12: "QPSK",
    18: "QPSK",
    24: "QAM16",
    36: "QAM16",
    48: "QAM64",
    54: "QAM64",
}


@dataclass
class OracleCheck:
    """One oracle comparison.

    Attributes:
        name: check identifier (stable across runs; used as a KPI key).
        measured: simulated value.
        expected: analytic value.
        low / high: acceptance interval the expected value (or the
            measurement, for deterministic tolerances) must fall in.
        passed: verdict.
        detail: human-readable context (sample sizes, tolerances).
    """

    name: str
    measured: float
    expected: float
    low: float
    high: float
    passed: bool
    detail: str = ""


def _qfunc(x: np.ndarray) -> np.ndarray:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def theoretical_ber(modulation: str, ebn0_db: float) -> float:
    """Exact AWGN bit-error probability of a Gray-coded constellation.

    BPSK/QPSK: ``Pb = Q(sqrt(2 Eb/N0))``.  Square M-QAM with Gray
    mapping on each PAM axis: the closed form of Cho & Yoon ("On the
    general BER expression of one- and two-dimensional amplitude
    modulations", IEEE Trans. Commun. 2002), which sums the exact error
    probability of every bit position of the underlying sqrt(M)-PAM.

    Args:
        modulation: "BPSK" | "QPSK" | "QAM16" | "QAM64".
        ebn0_db: Eb/N0 in dB.

    Returns:
        The bit error probability.
    """
    if modulation not in BITS_PER_SYMBOL:
        raise ValueError(f"unknown modulation {modulation!r}")
    gamma_b = 10.0 ** (ebn0_db / 10.0)
    if modulation in ("BPSK", "QPSK"):
        # QPSK is two independent BPSK channels at the same Eb/N0.
        return float(_qfunc(np.sqrt(2.0 * gamma_b)))
    m = 1 << BITS_PER_SYMBOL[modulation]  # constellation size M
    log2m = BITS_PER_SYMBOL[modulation]
    sqrt_m = int(round(np.sqrt(m)))
    bits_per_axis = log2m // 2
    # Q-function argument step: (2i+1) * sqrt(3 log2(M) Eb/N0 / (M-1)).
    base = np.sqrt(3.0 * log2m * gamma_b / (m - 1.0))
    total = 0.0
    for k in range(1, bits_per_axis + 1):
        upper = int((1 - 2.0 ** (-k)) * sqrt_m)
        pk = 0.0
        for i in range(upper):
            w = (i * (1 << (k - 1))) // sqrt_m
            sign = -1.0 if w % 2 else 1.0
            rounded = np.floor((i * (1 << (k - 1))) / sqrt_m + 0.5)
            coeff = sign * ((1 << (k - 1)) - rounded)
            pk += coeff * _qfunc((2 * i + 1) * base)
        total += (2.0 / sqrt_m) * pk
    return float(total / bits_per_axis)


@dataclass
class UncodedBerResult:
    """A Monte-Carlo uncoded BER point."""

    modulation: str
    ebn0_db: float
    bits: int
    errors: int
    ber: float


def simulate_uncoded_ber(
    modulation: str,
    ebn0_db: float,
    n_bits: int = 200_000,
    seed: int = 0,
) -> UncodedBerResult:
    """Monte-Carlo uncoded AWGN BER of the production mapper/demapper.

    Random bits run through :class:`repro.dsp.modulation.Mapper`, complex
    AWGN of the exact ``N0`` implied by ``ebn0_db`` (the constellations
    are K_MOD-normalized to unit average symbol energy), and the
    hard-decision :class:`~repro.dsp.modulation.Demapper` — the very
    objects the OFDM chain uses, with theory as the only reference.
    """
    mapper = Mapper(modulation)
    demapper = Demapper(modulation)
    n_bpsc = mapper.n_bpsc
    n_bits = (max(n_bits, n_bpsc) // n_bpsc) * n_bpsc
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
    symbols = mapper.map(bits)
    # Es = 1 by construction, so N0 = 1 / (log2(M) * Eb/N0).
    n0 = 1.0 / (n_bpsc * 10.0 ** (ebn0_db / 10.0))
    noise = np.sqrt(n0 / 2.0) * (
        rng.standard_normal(symbols.size)
        + 1j * rng.standard_normal(symbols.size)
    )
    rx_bits = demapper.demap_hard(symbols + noise)
    errors = int(np.count_nonzero(rx_bits != bits))
    return UncodedBerResult(
        modulation=modulation,
        ebn0_db=ebn0_db,
        bits=n_bits,
        errors=errors,
        ber=errors / n_bits,
    )


def check_uncoded_ber(
    modulation: str,
    ebn0_db: float,
    n_bits: int = 200_000,
    seed: int = 0,
    z: float = 4.5,
) -> OracleCheck:
    """Compare a Monte-Carlo BER point with exact theory.

    The check passes when the theoretical probability lies inside the
    Wilson score interval of the observed error count at ``z`` sigma —
    a two-sided statistical acceptance test, not a fixed tolerance.
    """
    sim = simulate_uncoded_ber(modulation, ebn0_db, n_bits=n_bits, seed=seed)
    expected = theoretical_ber(modulation, ebn0_db)
    low, high = binomial_confidence(sim.errors, sim.bits, z=z)
    passed = low <= expected <= high
    return OracleCheck(
        name=f"ber_uncoded_{modulation.lower()}",
        measured=sim.ber,
        expected=expected,
        low=low,
        high=high,
        passed=passed,
        detail=(
            f"Eb/N0={ebn0_db:g} dB, {sim.errors} errors in {sim.bits} "
            f"bits, Wilson z={z:g}"
        ),
    )


#: Default uncoded oracle operating points: Eb/N0 chosen so each
#: modulation sits near BER 1e-2..3e-2 — enough errors for a tight
#: interval at modest sample sizes.
UNCODED_ORACLE_POINTS: Dict[str, float] = {
    "BPSK": 4.0,
    "QPSK": 4.0,
    "QAM16": 8.0,
    "QAM64": 12.0,
}


def check_all_uncoded_ber(
    n_bits: int = 200_000, seed: int = 0, z: float = 4.5
) -> List[OracleCheck]:
    """The uncoded BER oracle over all four 802.11a constellations."""
    return [
        check_uncoded_ber(mod, ebn0, n_bits=n_bits, seed=seed + i, z=z)
        for i, (mod, ebn0) in enumerate(sorted(UNCODED_ORACLE_POINTS.items()))
    ]


def check_coded_ber_bound(
    rate_mbps: int = 12,
    ebn0_db: float = 8.0,
    n_packets: int = 30,
    psdu_bytes: int = 100,
    seed: int = 0,
    jobs: Optional[int] = None,
    z: float = 4.5,
) -> OracleCheck:
    """Coded-chain sanity: measured BER must not exceed uncoded theory.

    Runs the full genie-synchronized TX->AWGN->RX chain through
    :meth:`repro.core.testbench.WlanTestbench.measure_ber` at an Eb/N0
    where the convolutional code has positive coding gain (8 dB sits
    well past the soft-decision crossover even with the receiver's
    channel-estimation loss), and requires the coded BER to stay below
    the uncoded theoretical curve — a bound that holds for any working
    decoder and fails for a broken one.  The comparison uses the Wilson
    lower bound of the observed error count, so finite-sample scatter
    around a truly-compliant BER cannot raise a false alarm.
    """
    from repro.channel.awgn import ebn0_to_snr_db
    from repro.core.testbench import TestbenchConfig, WlanTestbench
    from repro.dsp.params import RATES

    modulation = RATE_MODULATIONS[rate_mbps]
    rate = RATES[rate_mbps]
    snr_db = ebn0_to_snr_db(ebn0_db, rate)
    bench = WlanTestbench(
        TestbenchConfig(
            rate_mbps=rate_mbps,
            psdu_bytes=psdu_bytes,
            snr_db=snr_db,
            genie_rx=True,
        )
    )
    measurement = bench.measure_ber(n_packets=n_packets, seed=seed, jobs=jobs)
    bound = theoretical_ber(modulation, ebn0_db)
    ber_low, _ = binomial_confidence(
        measurement.bit_errors, measurement.bits_total, z=z
    )
    passed = ber_low <= bound
    return OracleCheck(
        name=f"ber_coded_{rate_mbps}mbps",
        measured=measurement.ber,
        expected=bound,
        low=0.0,
        high=bound,
        passed=passed,
        detail=(
            f"Eb/N0={ebn0_db:g} dB (SNR {snr_db:.2f} dB), "
            f"{n_packets} packets, Wilson-low coded BER must be <= "
            f"uncoded theory"
        ),
    )


#: Stated tolerances of the cascade oracle (dB).  The measurements are
#: Monte-Carlo RF analyses over finite records, so they carry sub-dB
#: statistical scatter on top of any model error.
CASCADE_TOLERANCES_DB: Dict[str, float] = {
    "gain": 0.5,
    "nf": 0.75,
    "iip3": 1.0,
    "p1db": 1.5,
}


def check_cascade_characterization(
    seed: int = 0, jobs: Optional[int] = None
) -> List[OracleCheck]:
    """Compare ``characterize()`` with the paper cascade formulas.

    Builds the default double-conversion receiver with its signal-path
    impairments that have no place in a line-up budget disabled (DC
    offset, flicker), reassembles its active stages (LNA, mixers and
    their post-gain nonlinearities) into a measurable cascade, runs the
    full SpectreRF-style characterization suite, and checks gain / NF /
    IIP3 / P1dB against the closed-form cascade budget computed from the
    same configuration.
    """
    from repro.flow.rfsim import characterize
    from repro.rf.cascade import (
        active_stage_cascade,
        cascade_gain_db,
        cascade_iip3_dbm,
        cascade_input_p1db_dbm,
        friis_noise_figure_db,
    )
    from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig

    config = FrontendConfig(dc_offset_dbm=None, flicker_power_dbm=None)
    receiver = DoubleConversionReceiver(config)
    cascade, specs = active_stage_cascade(receiver)
    result = characterize(
        cascade, sample_rate=config.sample_rate_in, seed=seed, jobs=jobs
    )
    comparisons = [
        (
            "cascade_gain_db",
            result.compression.small_signal_gain_db,
            cascade_gain_db(specs),
            CASCADE_TOLERANCES_DB["gain"],
        ),
        (
            "cascade_nf_db",
            result.noise.noise_figure_db,
            friis_noise_figure_db(specs),
            CASCADE_TOLERANCES_DB["nf"],
        ),
        (
            "cascade_iip3_dbm",
            result.intermod.iip3_dbm,
            cascade_iip3_dbm(specs),
            CASCADE_TOLERANCES_DB["iip3"],
        ),
        (
            "cascade_p1db_dbm",
            result.compression.input_p1db_dbm,
            cascade_input_p1db_dbm(specs),
            CASCADE_TOLERANCES_DB["p1db"],
        ),
    ]
    checks = []
    for name, measured, expected, tol in comparisons:
        passed = bool(
            np.isfinite(measured) and abs(measured - expected) <= tol
        )
        checks.append(
            OracleCheck(
                name=name,
                measured=float(measured),
                expected=float(expected),
                low=expected - tol,
                high=expected + tol,
                passed=passed,
                detail=f"tolerance +/-{tol:g} dB (Friis/cascade budget)",
            )
        )
    return checks


def check_probe_evm(
    modulation: str,
    esn0_db: float = 20.0,
    n_symbols: int = 4096,
    seed: int = 0,
    z: float = 4.5,
) -> OracleCheck:
    """Data-aided EVM probe against the AWGN oracle.

    A constellation at unit symbol energy plus complex AWGN of known
    ``N0`` has ``EVM_rms = sqrt(N0/Es) = (Es/N0)^(-1/2)`` in
    expectation.  ``EVM_rms**2`` is a scaled chi-square with ``2n``
    degrees of freedom, so the RMS concentrates with relative standard
    deviation ``1/(2*sqrt(n))``; the check accepts within ``z`` of
    those sigmas (the Wilson-style ``z`` the BER oracles use).
    """
    from repro.obs.probes import ProbeRegistry, probe_preset

    mapper = Mapper(modulation)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_symbols * mapper.n_bpsc, dtype=np.uint8)
    ref = mapper.map(bits)
    n0 = 10.0 ** (-esn0_db / 10.0)  # Es = 1 by K_MOD normalization
    noise = np.sqrt(n0 / 2.0) * (
        rng.standard_normal(ref.size) + 1j * rng.standard_normal(ref.size)
    )
    registry = ProbeRegistry(probe_preset("basic"))
    registry.tap_evm("eq", ref + noise, ref, modulation)
    measured = registry.kpis()[f"probe.evm_rms[{modulation}]"]
    expected = float(np.sqrt(n0))
    rel = z / (2.0 * np.sqrt(n_symbols))
    low, high = expected * (1.0 - rel), expected * (1.0 + rel)
    return OracleCheck(
        name=f"probe_evm_{modulation.lower()}",
        measured=measured,
        expected=expected,
        low=low,
        high=high,
        passed=bool(low <= measured <= high),
        detail=(
            f"Es/N0={esn0_db:g} dB, {n_symbols} symbols, "
            f"+/-{100 * rel:.2f}% at z={z:g}"
        ),
    )


def check_probe_mask(seed: int = 0) -> List[OracleCheck]:
    """Transmit-mask probe discrimination.

    A clean 802.11a burst must meet the section 17.3.9 mask (the probe
    normalizes to dBr, so the worst margin of an undistorted burst is
    exactly 0 at the peak bin), while the same burst through a Rapp PA
    at 0 dB output backoff regrows spectrally and must violate it.
    """
    from repro.dsp.transmitter import Transmitter, TxConfig
    from repro.obs.probes import ProbeRegistry, probe_preset
    from repro.rf.nonlinearity import RappNonlinearity
    from repro.rf.signal import dbm_to_watts

    rng = np.random.default_rng(seed)
    psdu = rng.integers(0, 256, size=100, dtype=np.uint8)
    tx = Transmitter(TxConfig(rate_mbps=24, oversample=4))
    wave = tx.transmit(psdu)
    fs = tx.config.sample_rate

    clean = ProbeRegistry(probe_preset("basic"))
    clean.tap_mask("tx", wave, fs)
    clean_margin = clean.kpis()["probe.mask_margin_db[tx]"]

    p_avg = float(np.mean(np.abs(wave) ** 2))
    scale = np.sqrt(dbm_to_watts(0.0) / p_avg)
    pa = RappNonlinearity(gain_db=0.0, osat_dbm=0.0, smoothness=2.0)
    driven = ProbeRegistry(probe_preset("basic"))
    driven.tap_mask("pa", pa.apply(wave * scale), fs)
    driven_margin = driven.kpis()["probe.mask_margin_db[pa]"]

    return [
        OracleCheck(
            name="probe_mask_clean_tx",
            measured=clean_margin,
            expected=0.0,
            low=0.0,
            high=float("inf"),
            passed=bool(clean_margin >= 0.0),
            detail="clean 24 Mbit/s burst must meet the 17.3.9 mask",
        ),
        OracleCheck(
            name="probe_mask_pa_compression",
            measured=driven_margin,
            expected=0.0,
            low=float("-inf"),
            high=0.0,
            passed=bool(driven_margin < 0.0),
            detail=(
                "Rapp PA at 0 dB output backoff must regrow past the "
                "mask (negative margin)"
            ),
        ),
    ]
