"""The RF line-up budget: Friis noise figure, IIP3, P1dB and sensitivity.

The paper verifies the behavioral RF models against the numbers an RF
designer would compute on paper — a cascade (spreadsheet) budget of the
receiver line-up.  This module is the repo's only implementation of
those textbook formulas: :func:`frontend_stages` turns a front-end
configuration into its :class:`StageSpec` line-up, and plain functions
over a stage list give the cascade figures, the link-budget sensitivity
and the cumulative table printed at the probe tap boundaries.
:class:`BlockCascade` runs the *same* stages through their executable
models so :func:`repro.flow.rfsim.characterize` can be checked against
theory.

Formulas (all standard):

* Friis:   ``F = F1 + (F2-1)/G1 + (F3-1)/(G1*G2) + ...``
* IIP3:    ``1/P_casc = sum_k  G_before_k / P_k``  (linear watts)
* P1dB:    cascade IIP3 minus the cubic-model offset of ~9.64 dB
  (exact for a memoryless cubic chain dominated by one compressor,
  a good approximation otherwise).
* Sensitivity: ``S = -174 + 10log10(B) + NF + SNR_req + margin`` [dBm].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rf.noise import thermal_noise_psd_dbm_hz
from repro.rf.nonlinearity import P1DB_IIP3_OFFSET_DB, iip3_from_p1db
from repro.rf.signal import Signal
from repro.rf.zeroif import ZeroIfConfig


@dataclass(frozen=True)
class StageSpec:
    """Paper parameters of one cascade stage.

    Attributes:
        name: stage label (for reports).
        gain_db: small-signal power gain.
        nf_db: noise figure; 0 for a noiseless stage, never negative.
        iip3_dbm: input-referred third-order intercept; ``inf`` for a
            linear stage.
    """

    name: str
    gain_db: float
    nf_db: float = 0.0
    iip3_dbm: float = np.inf

    def __post_init__(self):
        if any(
            math.isnan(v) for v in (self.gain_db, self.nf_db, self.iip3_dbm)
        ):
            raise ValueError(f"stage {self.name!r} has a NaN figure")
        if self.nf_db < 0:
            raise ValueError(
                f"stage {self.name!r} noise figure must be >= 0 dB, "
                f"got {self.nf_db}"
            )


def frontend_stages(config) -> List[StageSpec]:
    """The line-up budget of a front-end configuration.

    Dispatches like the test bench: a
    :class:`repro.rf.zeroif.ZeroIfConfig` is a direct-conversion
    receiver (LNA, one quadrature mixer), anything else a
    double-conversion :class:`repro.rf.frontend.FrontendConfig` (LNA,
    two mixers).  Each mixer nonlinearity sits *after* its conversion
    gain (a zero-gain cubic block), so it is its own ``<mixer>_nl``
    stage.  Filters, AGC and ADC are left out: unity in-band gain,
    negligible noise, and the AGC would mask compression.
    """
    cfg = config
    if isinstance(cfg, ZeroIfConfig):
        mixers = [("mixer", cfg.mixer_gain_db, cfg.mixer_nf_db,
                   cfg.mixer_iip3_dbm)]
    else:
        mixers = [
            ("mixer1", cfg.mixer1_gain_db, cfg.mixer1_nf_db,
             cfg.mixer1_iip3_dbm),
            ("mixer2", cfg.mixer2_gain_db, cfg.mixer2_nf_db,
             cfg.mixer2_iip3_dbm),
        ]
    stages = [
        StageSpec("lna", cfg.lna_gain_db, cfg.lna_nf_db,
                  iip3_from_p1db(cfg.lna_p1db_dbm)),
    ]
    for name, gain_db, nf_db, iip3_dbm in mixers:
        stages.append(StageSpec(name, gain_db, nf_db))
        stages.append(StageSpec(f"{name}_nl", 0.0, iip3_dbm=iip3_dbm))
    return stages


def tap_prefixes(stages: Sequence[StageSpec]) -> Dict[str, int]:
    """Probe tap name -> number of line-up stages in front of that tap.

    A ``<stage>_nl`` nonlinearity belongs to the tap of its stage, so the
    double-conversion line-up gives ``{"lna": 1, "mixer1": 3,
    "mixer2": 5}`` — the ``rf:`` probe taps' stage names.
    """
    cuts: Dict[str, int] = {}
    for k, stage in enumerate(stages, 1):
        cuts[stage.name.removesuffix("_nl")] = k
    return cuts


def cascade_gain_db(stages: Sequence[StageSpec]) -> float:
    """Total small-signal gain of the cascade."""
    return float(sum(s.gain_db for s in stages))


def friis_noise_figure_db(stages: Sequence[StageSpec]) -> float:
    """Cascade noise figure by the Friis formula."""
    total_f = 1.0
    gain_before = 1.0
    for s in stages:
        f = 10.0 ** (s.nf_db / 10.0)
        total_f += (f - 1.0) / gain_before
        gain_before *= 10.0 ** (s.gain_db / 10.0)
    return float(10.0 * np.log10(total_f))


def cascade_iip3_dbm(stages: Sequence[StageSpec]) -> float:
    """Input-referred cascade IIP3.

    Each stage's intercept is referred back to the cascade input by the
    gain accumulated in front of it; the reciprocal linear powers add.
    """
    inv_sum = 0.0
    gain_before = 1.0
    for s in stages:
        if np.isfinite(s.iip3_dbm):
            p_k = 10.0 ** (s.iip3_dbm / 10.0)  # mW
            inv_sum += gain_before / p_k
        gain_before *= 10.0 ** (s.gain_db / 10.0)
    if inv_sum <= 0.0:
        return float(np.inf)
    return float(10.0 * np.log10(1.0 / inv_sum))


def cascade_input_p1db_dbm(stages: Sequence[StageSpec]) -> float:
    """Input-referred cascade 1-dB compression point.

    Uses the cubic-nonlinearity relation ``P1dB = IIP3 - 9.64 dB``
    applied to the cascade intercept — exact when every nonlinear stage
    is the memoryless cubic model used by the SPW-style library.
    """
    return cascade_iip3_dbm(stages) - P1DB_IIP3_OFFSET_DB


def sensitivity_dbm(
    stages: Sequence[StageSpec],
    required_snr_db: float,
    bandwidth_hz: float = 16.6e6,
    implementation_margin_db: float = 0.0,
) -> float:
    """Link-budget sensitivity: thermal floor + cascade NF + SNR [dBm]."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return (
        thermal_noise_psd_dbm_hz()
        + 10.0 * np.log10(bandwidth_hz)
        + friis_noise_figure_db(stages)
        + required_snr_db
        + implementation_margin_db
    )


def spurious_free_range_db(
    stages: Sequence[StageSpec], input_dbm: float
) -> float:
    """Distance of the third-order products below the signal.

    For an input at ``input_dbm`` the IM3 products sit
    ``2 * (IIP3 - input)`` dB below it.
    """
    iip3 = cascade_iip3_dbm(stages)
    if not np.isfinite(iip3):
        return np.inf
    return 2.0 * (iip3 - input_dbm)


def cascade_table(stages: Sequence[StageSpec]) -> str:
    """Cumulative gain / NF / IIP3 table, one row per probe tap."""
    from repro.core.reporting import render_table

    rows = []
    start = 0
    for tap, cut in tap_prefixes(stages).items():
        iip3 = cascade_iip3_dbm(stages[:cut])
        rows.append([
            tap,
            f"{cascade_gain_db(stages[start:cut]):+.1f}",
            f"{cascade_gain_db(stages[:cut]):+.1f}",
            f"{friis_noise_figure_db(stages[:cut]):.2f}",
            "inf" if not np.isfinite(iip3) else f"{iip3:+.1f}",
        ])
        start = cut
    return render_table(
        ["stage", "gain [dB]", "cum gain [dB]", "cum NF [dB]",
         "cum IIP3 [dBm]"],
        rows,
    )


class _ApplyAdapter:
    """Wrap an object exposing ``apply(samples)`` as a behavioral block."""

    def __init__(self, inner):
        self._inner = inner

    def process(self, signal: Signal, rng=None) -> Signal:
        return signal.with_samples(self._inner.apply(signal.samples))


class BlockCascade:
    """A behavioral block chaining other blocks' ``process`` methods.

    Accepts blocks with ``process(Signal, rng) -> Signal`` (amplifiers,
    mixers), ``process(Signal) -> Signal`` (filters), or bare
    ``apply(samples)`` nonlinearities, so a receiver's individual stages
    can be re-assembled into one measurable device under test.
    """

    def __init__(self, blocks: Sequence[object]):
        self.blocks = [
            b if hasattr(b, "process") else _ApplyAdapter(b) for b in blocks
        ]

    @staticmethod
    def _takes_rng(block) -> bool:
        import inspect

        try:
            params = inspect.signature(block.process).parameters
        except (TypeError, ValueError):
            return True
        return "rng" in params

    def process(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Signal:
        s = signal
        for block in self.blocks:
            if self._takes_rng(block):
                s = block.process(s, rng)
            else:
                s = block.process(s)
        return s


def active_stage_cascade(
    receiver,
) -> Tuple[BlockCascade, List[StageSpec]]:
    """The active gain stages of a double-conversion receiver.

    Returns both the executable cascade (LNA, mixer 1 + its
    nonlinearity, quadrature mixer 2 + its nonlinearity) and the
    matching :func:`frontend_stages` budget of the receiver's
    configuration — the pair the conformance oracles compare.
    """
    cascade = BlockCascade(
        [
            receiver.lna,
            receiver.mixer1,
            receiver._mixer1_nl,
            receiver.mixer2,
            receiver._mixer2_nl,
        ]
    )
    return cascade, frontend_stages(receiver.config)
