"""Rare-event BER acceleration: importance sampling on the AWGN noise.

Below ~1e-6 BER the plain Monte-Carlo harness needs billions of bits per
sweep point — the hard end of the paper's figure-5 curve is exactly the
regime brute force cannot reach.  This module makes deep operating
points measurable with bounded budgets:

* **Scaled-variance importance sampling.**  Noise is drawn from a
  boosted proposal ``CN(0, nu * sigma^2)`` so errors happen often, and
  every trial carries the log likelihood ratio of its draw under the
  nominal density over the proposal.  The weighted estimator
  ``mean(w_j * p_j)`` is unbiased for the true BER (``E_q[w] = 1``
  exactly, per sample), which :mod:`repro.qa`'s ``--rare`` section
  proves against the Cho-Yoon closed forms.

* **Weighted-estimator bookkeeping** (:class:`WeightedBerState`): an
  associative, mergeable accumulator carrying the weight moments needed
  for the estimate, its variance, Kish effective sample size and
  weight-degeneracy diagnostics — mergeable so the parallel chunked
  execution of :func:`repro.perf.parallel_map` stays bit-identical to
  serial.

* **Weighted confidence intervals.**  The Wilson machinery of
  :func:`repro.core.metrics.binomial_confidence` is reused on
  *variance-matched effective counts* (``n_eff = p(1-p)/Var[ber_hat]``),
  so an importance-sampled point reports a CI directly comparable to a
  Monte-Carlo Wilson interval — and the ratio of squared widths is the
  measured variance-reduction factor gated in ``repro qa --rare``.

* **Adaptive sweep-point allocation**
  (:func:`run_adaptive_sweep`): rounds of packets go to the sweep point
  whose relative CI width is currently largest, so a fixed simulation
  budget buys the most curve certainty.

Weight degeneracy is the classic failure mode: boosting every noise
sample of an ``N``-dimensional waveform multiplies ``N`` per-sample
likelihood ratios, whose product collapses to near-zero ESS unless
``nu - 1`` shrinks like ``1/sqrt(N)`` (:func:`dimension_capped_boost_db`).
Large speedups therefore come from the low-dimensional uncoded
mapper/demapper harness (:func:`measure_uncoded_ber`, one complex noise
sample per trial), while the full coded chain composes with a mild,
dimension-capped boost whose ESS stays healthy by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.metrics import (
    BerMeasurement,
    binomial_confidence,
    weighted_binomial_confidence,
)

#: Cap on the reported variance-reduction factor: beyond this the
#: variance estimate itself is noise-dominated.
_VR_CAP = 1e12

#: Minimum number of errored trials before the variance-matched
#: effective count is trusted over the conservative ESS fallback.
_MIN_ERROR_TRIALS = 5


def noise_log_weight(
    sum_sq_over_power: float, n_samples: int, variance_boost: float
) -> float:
    """Log likelihood ratio of a boosted complex-Gaussian noise draw.

    For ``n_samples`` complex samples whose *proposal* draw was a
    nominal ``CN(0, P)`` vector scaled by ``sqrt(nu)``,

    ``log w = n * ln(nu) - (nu - 1) * sum(|z|^2) / P``

    with ``z`` the nominal (unscaled) draw and ``P`` the per-sample
    nominal variance.  ``E_q[w] = 1`` exactly.

    Args:
        sum_sq_over_power: ``sum(|z|^2) / P`` of the nominal draw.
        n_samples: number of complex noise samples.
        variance_boost: proposal variance scale ``nu``.

    Returns:
        The log weight (0.0 at ``nu == 1``).
    """
    nu = float(variance_boost)
    if nu == 1.0:
        return 0.0
    return n_samples * float(np.log(nu)) - (nu - 1.0) * float(
        sum_sq_over_power
    )


# ----------------------------------------------------------------------
# Weighted estimator state
# ----------------------------------------------------------------------


@dataclass
class WeightedBerState:
    """Mergeable sufficient statistics of a weighted BER estimator.

    One *trial* is the unit carrying a weight: a packet in the full
    coded chain, a symbol in the uncoded harness.  Trial ``j``
    contributes its error fraction ``p_j = errors_j / n_bits_j`` and
    importance weight ``w_j``; the unbiased estimate is
    ``mean(w_j * p_j)`` (weights are *unnormalized* — ``E_q[w] = 1``
    makes the plain mean unbiased, and makes ``mean(w_j)`` itself a
    diagnostic that must concentrate on 1).

    All fields are plain sums, so :meth:`merge` is exact and the state
    can be accumulated per chunk in workers and folded in chunk order
    by the parent — the same structure that keeps the Monte-Carlo
    counter bit-identical under parallelism.
    """

    trials: int = 0
    bits_total: float = 0.0
    raw_errors: float = 0.0
    error_trials: int = 0
    sum_w: float = 0.0
    sum_w2: float = 0.0
    sum_wp: float = 0.0
    sum_wp2: float = 0.0
    sum_w_err: float = 0.0
    max_w: float = 0.0

    # -- accumulation --------------------------------------------------
    def add(self, errors: float, n_bits: float, log_weight: float = 0.0):
        """Record one trial (``log_weight=0`` is an unweighted trial)."""
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        w = float(np.exp(log_weight))
        p = errors / n_bits
        wp = w * p
        self.trials += 1
        self.bits_total += n_bits
        self.raw_errors += errors
        self.sum_w += w
        self.sum_w2 += w * w
        self.sum_wp += wp
        self.sum_wp2 += wp * wp
        if errors > 0:
            self.error_trials += 1
            self.sum_w_err += w
        if w > self.max_w:
            self.max_w = w

    def add_many(self, errors, n_bits_each: float, log_weights):
        """Record a vector of equal-size trials in one pass."""
        errors = np.asarray(errors, dtype=float)
        if n_bits_each <= 0:
            raise ValueError("n_bits_each must be positive")
        w = np.exp(np.asarray(log_weights, dtype=float))
        if w.shape != errors.shape:
            raise ValueError("errors and log_weights shapes differ")
        p = errors / n_bits_each
        wp = w * p
        errored = errors > 0
        self.trials += int(errors.size)
        self.bits_total += float(errors.size * n_bits_each)
        self.raw_errors += float(errors.sum())
        self.sum_w += float(w.sum())
        self.sum_w2 += float((w * w).sum())
        self.sum_wp += float(wp.sum())
        self.sum_wp2 += float((wp * wp).sum())
        self.error_trials += int(np.count_nonzero(errored))
        self.sum_w_err += float(w[errored].sum())
        if w.size:
            self.max_w = max(self.max_w, float(w.max()))

    def merge(self, other: "WeightedBerState") -> "WeightedBerState":
        """Combine two disjoint states (exact: all fields are sums)."""
        return WeightedBerState(
            trials=self.trials + other.trials,
            bits_total=self.bits_total + other.bits_total,
            raw_errors=self.raw_errors + other.raw_errors,
            error_trials=self.error_trials + other.error_trials,
            sum_w=self.sum_w + other.sum_w,
            sum_w2=self.sum_w2 + other.sum_w2,
            sum_wp=self.sum_wp + other.sum_wp,
            sum_wp2=self.sum_wp2 + other.sum_wp2,
            sum_w_err=self.sum_w_err + other.sum_w_err,
            max_w=max(self.max_w, other.max_w),
        )

    # -- estimates -----------------------------------------------------
    @property
    def ber_unclipped(self) -> float:
        """The raw unbiased estimate ``mean(w_j * p_j)`` (can exceed 1)."""
        return self.sum_wp / self.trials if self.trials else 0.0

    @property
    def ber(self) -> float:
        """Weighted BER estimate, clipped to the physical range [0, 1]."""
        return min(max(self.ber_unclipped, 0.0), 1.0)

    @property
    def per_weighted(self) -> float:
        """Weighted trial-error (packet/symbol error) rate."""
        if not self.trials:
            return 0.0
        return min(max(self.sum_w_err / self.trials, 0.0), 1.0)

    @property
    def raw_ber(self) -> float:
        """Unweighted error rate *under the proposal* (diagnostic only)."""
        return self.raw_errors / self.bits_total if self.bits_total else 0.0

    @property
    def bits_per_trial(self) -> float:
        return self.bits_total / self.trials if self.trials else 0.0

    # -- weight diagnostics --------------------------------------------
    @property
    def mean_weight(self) -> float:
        """Sample mean of the weights; must concentrate on 1."""
        return self.sum_w / self.trials if self.trials else 0.0

    @property
    def ess(self) -> float:
        """Kish effective sample size ``(sum w)^2 / sum w^2``."""
        return self.sum_w**2 / self.sum_w2 if self.sum_w2 > 0 else 0.0

    @property
    def ess_fraction(self) -> float:
        """ESS as a fraction of trials (1.0 = no weight degeneracy)."""
        return self.ess / self.trials if self.trials else 0.0

    @property
    def max_weight_share(self) -> float:
        """Largest single weight's share of the total weight mass."""
        return self.max_w / self.sum_w if self.sum_w > 0 else 0.0

    # -- uncertainty ---------------------------------------------------
    @property
    def estimator_variance(self) -> float:
        """Variance of the weighted BER estimate (sample variance / M)."""
        if self.trials < 2:
            return 0.0
        mean = self.sum_wp / self.trials
        sample_var = (self.sum_wp2 - self.trials * mean * mean) / (
            self.trials - 1
        )
        return max(sample_var, 0.0) / self.trials

    @property
    def effective_trials(self) -> float:
        """Variance-matched Bernoulli trial count of the estimate.

        A binomial estimate of probability ``p`` from ``n`` trials has
        variance ``p(1-p)/n``; inverting with the *measured* estimator
        variance gives the ``n`` whose Wilson interval matches this
        estimator's actual uncertainty.  With too few errored trials to
        trust the variance estimate (or a degenerate one) the
        conservative fallback is the Kish ESS scaled to bits, which can
        only widen the interval.
        """
        p = self.ber
        var = self.estimator_variance
        if var > 0.0 and 0.0 < p < 1.0 and self.error_trials >= (
            _MIN_ERROR_TRIALS
        ):
            return p * (1.0 - p) / var
        return self.ess * self.bits_per_trial

    @property
    def k_eff(self) -> float:
        """Effective error count matching :attr:`effective_trials`."""
        return self.ber * self.effective_trials

    def confidence(self, z: float = 4.5) -> Tuple[float, float]:
        """Wilson interval on the effective counts (see metrics module)."""
        return weighted_binomial_confidence(
            self.k_eff, self.effective_trials, z=z
        )

    @property
    def vr_estimate(self) -> float:
        """Measured variance reduction vs plain MC at the same bit budget.

        ``(p(1-p)/bits) / Var[ber_hat]`` — about 1 for an unweighted
        run by construction, and the factor by which importance
        sampling shrank the estimator variance otherwise.
        """
        var = self.estimator_variance
        p = self.ber
        if var <= 0.0 or not (0.0 < p < 1.0) or self.bits_total <= 0:
            return 1.0
        return float(min(p * (1.0 - p) / self.bits_total / var, _VR_CAP))

    # -- finalization --------------------------------------------------
    def result(
        self,
        packets: int,
        packets_lost: int = 0,
        estimator: str = "is",
        boost_db: float = 0.0,
    ) -> "WeightedBerMeasurement":
        """Finalize into a :class:`WeightedBerMeasurement`."""
        return WeightedBerMeasurement(
            ber=self.ber,
            per=self.per_weighted,
            bit_errors=self.raw_errors,
            bits_total=int(round(self.bits_total)),
            packets=packets,
            packets_lost=packets_lost,
            ci95=self.confidence(z=1.96),
            estimator=estimator,
            boost_db=float(boost_db),
            trials=self.trials,
            n_eff=self.effective_trials,
            ess=self.ess,
            ess_fraction=self.ess_fraction,
            mean_weight=self.mean_weight,
            max_weight_share=self.max_weight_share,
            stderr=float(np.sqrt(self.estimator_variance)),
            vr_estimate=self.vr_estimate,
        )


@dataclass
class WeightedBerMeasurement(BerMeasurement):
    """A completed importance-sampled BER measurement.

    The inherited ``ber``/``per`` are the *weighted* (unbiased)
    estimates; ``bit_errors``/``bits_total`` stay the raw counts under
    the proposal, so downstream raw-count consumers (early-stop audits,
    throughput accounting) keep their meaning.

    Attributes:
        estimator: ``"is"`` or ``"mc"`` (an unweighted run through the
            weighted bookkeeping).
        boost_db: proposal noise-variance boost in dB.
        trials: weighted trials (packets or symbols).
        n_eff: variance-matched effective Bernoulli trial count.
        ess: Kish effective sample size of the weights.
        ess_fraction: ESS / trials.
        mean_weight: sample mean of the weights (must be near 1).
        max_weight_share: largest weight's share of total weight mass.
        stderr: standard error of the weighted BER estimate.
        vr_estimate: measured variance reduction vs plain MC at the
            same bit budget.
    """

    estimator: str = "is"
    boost_db: float = 0.0
    trials: int = 0
    n_eff: float = 0.0
    ess: float = 0.0
    ess_fraction: float = 0.0
    mean_weight: float = 0.0
    max_weight_share: float = 0.0
    stderr: float = 0.0
    vr_estimate: float = 1.0

    @property
    def k_eff(self) -> float:
        """Effective error count matching :attr:`n_eff`."""
        return self.ber * self.n_eff

    def confidence(self, z: float = 4.5) -> Tuple[float, float]:
        """Weighted Wilson interval at any ``z`` from the stored fields."""
        return weighted_binomial_confidence(self.k_eff, self.n_eff, z=z)


# ----------------------------------------------------------------------
# Proposal (boost) selection
# ----------------------------------------------------------------------


def ebn0_for_ber(
    modulation: str, target_ber: float, lo_db: float = -20.0,
    hi_db: float = 40.0,
) -> float:
    """Invert the Cho-Yoon curve: the Eb/N0 giving ``target_ber``."""
    from repro.qa.oracles import theoretical_ber

    if not (0.0 < target_ber < 0.5):
        raise ValueError("target_ber must be in (0, 0.5)")
    lo, hi = float(lo_db), float(hi_db)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if theoretical_ber(modulation, mid) > target_ber:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return 0.5 * (lo + hi)


def boost_for(
    modulation: str, ebn0_db: float, target_ber: float = 2e-2
) -> float:
    """Noise-variance boost (dB) moving an operating point to ``target_ber``.

    Boosting the noise variance by ``B`` dB lowers the effective Eb/N0
    by exactly ``B`` dB, so the natural proposal for a deep point is
    the boost that lands the *proposal* channel near a comfortable
    error rate where trials are informative.
    """
    return max(0.0, ebn0_db - ebn0_for_ber(modulation, target_ber))


def dimension_capped_boost_db(n_dims: int, spread: float = 1.0) -> float:
    """Largest boost whose weights stay non-degenerate in ``n_dims``.

    The log weight over ``n`` boosted complex samples has standard
    deviation about ``(nu - 1) * sqrt(n)``; keeping it near ``spread``
    (so the Kish ESS fraction stays near ``exp(-spread^2)``) requires
    ``nu <= 1 + spread / sqrt(n)``.
    """
    nu = 1.0 + spread / float(np.sqrt(max(int(n_dims), 1)))
    return float(10.0 * np.log10(nu))


def packet_noise_dimension(config) -> int:
    """Approximate complex noise samples per packet of a bench config.

    Preamble (320) + SIGNAL and data OFDM symbols (80 each) plus the
    guard padding, times the oversampling factor the bench will pick —
    the dimensionality that bounds a per-packet importance weight.
    """
    from repro.core.testbench import oversample_factor
    from repro.dsp.params import RATES, symbols_for_psdu

    n_sym = symbols_for_psdu(config.psdu_bytes, RATES[config.rate_mbps])
    samples = 2 * config.guard_samples + 320 + 80 * (1 + n_sym)
    return int(samples * oversample_factor(config))


def is_incompatibility(config) -> Optional[str]:
    """Why importance sampling is invalid for a bench config, or None.

    The scaled-variance proposal reweights only the AWGN draw, so the
    weighted estimator is unbiased only when AWGN dominates the error
    mechanism.  A scenario emitter (interference) or fading channel
    injects randomness the weights do not model — the estimate would be
    silently biased.
    """
    if config.scenario.emitters:
        return (
            "the scenario configures non-AWGN emitters "
            "(interference the weights do not model)"
        )
    if config.scenario.fading is not None:
        return "the scenario configures a fading channel"
    return None


def auto_boost_db(config, target_ber: float = 2e-2) -> float:
    """Default proposal boost for a full-chain bench configuration.

    The boost that would move the uncoded operating point to
    ``target_ber``, capped by the packet's noise dimensionality so the
    per-packet weights cannot degenerate.  Returns 0 (plain MC
    behavior, weights exactly 1) when the bench has no normalized SNR.
    """
    if config.snr_db is None:
        return 0.0
    from repro.channel.awgn import snr_to_ebn0_db
    from repro.dsp.params import RATES
    from repro.qa.oracles import RATE_MODULATIONS

    modulation = RATE_MODULATIONS.get(config.rate_mbps)
    if modulation is None:
        return 0.0
    ebn0 = snr_to_ebn0_db(config.snr_db, RATES[config.rate_mbps])
    wanted = boost_for(modulation, ebn0, target_ber=target_ber)
    cap = dimension_capped_boost_db(packet_noise_dimension(config))
    return float(min(wanted, cap))


# ----------------------------------------------------------------------
# Uncoded rare-event harness (low-dimensional, large speedups)
# ----------------------------------------------------------------------


def _uncoded_rare_chunk(payload) -> WeightedBerState:
    """Run one chunk of uncoded packets (a ``parallel_map`` task).

    Mirrors the random-draw order of
    :func:`repro.qa.oracles.simulate_uncoded_ber` exactly (bits, then
    one complex nominal noise draw), so at 0 dB boost the per-trial
    samples — and therefore the error pattern — are bit-identical to
    the plain oracle harness with the same stream.
    """
    modulation, ebn0_db, seed_children, symbols_per_packet, boost_db = payload
    from repro.dsp.modulation import Demapper, Mapper

    mapper = Mapper(modulation)
    demapper = Demapper(modulation)
    n_bpsc = mapper.n_bpsc
    n0 = 1.0 / (n_bpsc * 10.0 ** (ebn0_db / 10.0))
    nu = 10.0 ** (boost_db / 10.0)
    state = WeightedBerState()
    for child in seed_children:
        rng = np.random.default_rng(child)
        bits = rng.integers(
            0, 2, size=symbols_per_packet * n_bpsc, dtype=np.uint8
        )
        symbols = mapper.map(bits)
        noise = np.sqrt(n0 / 2.0) * (
            rng.standard_normal(symbols.size)
            + 1j * rng.standard_normal(symbols.size)
        )
        if nu != 1.0:
            rx_bits = demapper.demap_hard(symbols + np.sqrt(nu) * noise)
            log_w = np.log(nu) - (nu - 1.0) * (np.abs(noise) ** 2) / n0
        else:
            rx_bits = demapper.demap_hard(symbols + noise)
            log_w = np.zeros(symbols.size)
        symbol_errors = (
            (rx_bits != bits).astype(np.int64).reshape(-1, n_bpsc).sum(axis=1)
        )
        state.add_many(symbol_errors, n_bpsc, log_w)
    return state


#: Packets per dispatched uncoded chunk.  Chunk states merge in chunk
#: order, so this fixes the float summation grouping of every output.
_UNCODED_CHUNK = 8


def measure_uncoded_ber(
    modulation: str,
    ebn0_db: float,
    n_packets: int = 64,
    symbols_per_packet: int = 512,
    estimator: str = "is",
    boost_db: Optional[float] = None,
    target_ber: float = 2e-2,
    seed=0,
    jobs: Optional[int] = None,
) -> WeightedBerMeasurement:
    """Importance-sampled uncoded BER of the production mapper/demapper.

    Each symbol sees one complex noise sample, so the weight dimension
    is 1 and aggressive boosts (tens of dB of effective Eb/N0) stay
    non-degenerate — this is the harness that reaches 1e-8 and below
    with laptop budgets, validated against the Cho-Yoon closed forms.

    Packet ``j`` draws from child ``j`` of the seed's spawn tree and
    chunk states merge parent-side in chunk order, so the measurement
    is bit-identical at every ``jobs`` setting (the same guarantee the
    coded harness makes).  ``estimator="mc"`` forces 0 dB boost: all
    weights are exactly 1 and the samples match the plain oracle
    harness draw for draw.

    Args:
        modulation: "BPSK" | "QPSK" | "QAM16" | "QAM64".
        ebn0_db: nominal Eb/N0 of the measured channel.
        n_packets: independent trial blocks.
        symbols_per_packet: weighted trials per block.
        estimator: ``"is"`` (boosted proposal) or ``"mc"`` (boost 0).
        boost_db: explicit proposal boost; None picks
            :func:`boost_for` at ``target_ber``.
        target_ber: proposal operating point for the automatic boost.
        seed: base random seed (int or ``SeedSequence``).
        jobs: worker processes; None defers to the ambient default.

    Returns:
        The finalized :class:`WeightedBerMeasurement`.
    """
    from repro import perf

    if estimator not in ("mc", "is"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == "mc":
        boost = 0.0
    elif boost_db is None:
        boost = boost_for(modulation, ebn0_db, target_ber=target_ber)
    else:
        boost = float(boost_db)
    children = perf.spawn(seed, n_packets)
    tasks = [
        (
            modulation,
            ebn0_db,
            children[i : i + _UNCODED_CHUNK],
            symbols_per_packet,
            boost,
        )
        for i in range(0, n_packets, _UNCODED_CHUNK)
    ]
    state = WeightedBerState()

    def fold(index, chunk_state):
        nonlocal state
        state = state.merge(chunk_state)

    perf.parallel_map(
        _uncoded_rare_chunk, tasks, jobs=jobs, stage="rare", on_result=fold
    )
    return state.result(
        packets=n_packets,
        packets_lost=0,
        estimator=estimator,
        boost_db=boost,
    )


# ----------------------------------------------------------------------
# Adaptive sweep-point packet allocation
# ----------------------------------------------------------------------

#: Relative-width floor: a point whose BER estimate is still 0 gets an
#: infinite relative width, which is exactly the "most uncertain" rank
#: the allocator wants for it.
_REL_FLOOR = 1e-12


def run_adaptive_sweep(
    sweep,
    total_packets: int,
    initial_packets: Optional[int] = None,
    block: Optional[int] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable] = None,
    store=None,
    run_name: Optional[str] = None,
    z: float = 1.96,
    batch_size: Optional[int] = None,
):
    """Spend a packet budget where the sweep's CI is currently widest.

    Instead of ``n_packets`` per point, a fixed ``total_packets``
    budget is allocated in rounds: after a uniform warm-up, each block
    of packets goes to the point with the largest relative confidence
    width ``(hi - lo) / ber`` — Wilson bounds on raw counts for MC
    points, the weighted interval for importance-sampled points.

    Packet ``j`` of point ``i`` always draws from child ``j`` of point
    ``i``'s spawn subtree, so the measurement each point ends up with
    depends only on *how many* packets it received — and the allocation
    itself is a deterministic function of the measurements — making the
    whole adaptive run reproducible and jobs-independent.

    Args:
        sweep: a :class:`repro.core.sweep.ParameterSweep` (its
            ``n_packets`` is ignored in favor of the budget).
        total_packets: total packet budget across all points.
        initial_packets: warm-up packets per point (default: an equal
            share of half the budget, at least 1).
        block: packets granted per adaptive round (default: the warm-up
            size).
        jobs: worker processes for packet batches.
        progress: progress listener/callback for per-round events.
        store: optional run store (defaults to the ambient writer).
        run_name: store name (default ``adaptive-<parameter>``).
        z: confidence level driving the allocation.
        batch_size: packets per stacked PHY evaluation; None defers to
            the ambient ``--batch-size`` default.

    Returns:
        A :class:`repro.core.sweep.SweepResult` whose points hold
        :class:`repro.core.metrics.BerMeasurement` (MC) or
        :class:`WeightedBerMeasurement` (IS) measurements.
    """
    from repro import obs, perf
    from repro.core.metrics import BerCounter
    from repro.core.sweep import SweepPoint, SweepResult
    from repro.core.testbench import _fold_outcomes, _packet_chunk_task
    from repro.obs.progress import ProgressEvent

    n_points = len(sweep.values)
    if n_points == 0:
        return SweepResult(sweep.parameter, [])
    if total_packets < n_points:
        raise ValueError("total_packets must cover at least 1 per point")
    batch = perf.resolve_batch_size(batch_size)
    point_seeds = perf.spawn(sweep.seed, n_points)
    configs = [sweep._configured(v) for v in sweep.values]
    plans = [sweep._point_estimator(config) for config in configs]
    counters = [BerCounter() for _ in range(n_points)]
    states = [
        WeightedBerState() if plan[0] == "is" else None for plan in plans
    ]
    cursors = [0] * n_points
    emit = obs.as_listener(progress)

    def extend(i: int, n: int):
        """Grant ``n`` more packets to point ``i`` (exact continuation:
        spawn-tree children are a pure function of their index)."""
        start = cursors[i]
        stop = start + n
        children = perf.spawn(point_seeds[i], stop)[start:stop]
        estimator, boost = plans[i]
        chunks = [
            (
                configs[i],
                children[k : k + batch],
                boost if estimator == "is" else None,
            )
            for k in range(0, n, batch)
        ]
        perf.parallel_map(
            _packet_chunk_task,
            chunks,
            jobs=jobs,
            stage="adaptive",
            on_result=lambda index, outcomes: _fold_outcomes(
                counters[i], states[i], outcomes
            ),
        )
        cursors[i] = stop

    def rel_width(i: int) -> float:
        counter = counters[i]
        state = states[i]
        if counter.packets == 0:
            return float("inf")
        if state is not None and state.trials:
            low, high = state.confidence(z=z)
            ber = state.ber
        else:
            low, high = binomial_confidence(
                counter.bit_errors, counter.bits_total, z=z
            )
            ber = counter.ber
        return (high - low) / max(ber, _REL_FLOOR)

    with obs.span(
        "sweep:adaptive",
        parameter=sweep.parameter,
        n_points=n_points,
        budget=total_packets,
    ):
        if initial_packets is None:
            initial_packets = max(1, total_packets // (2 * n_points))
        initial_packets = min(initial_packets, total_packets // n_points)
        if block is None:
            block = initial_packets
        block = max(1, int(block))
        for i in range(n_points):
            extend(i, initial_packets)
        spent = initial_packets * n_points
        round_no = 0
        while spent < total_packets:
            grant = min(block, total_packets - spent)
            widths = [rel_width(i) for i in range(n_points)]
            target = int(np.argmax(widths))
            extend(target, grant)
            spent += grant
            round_no += 1
            emit(ProgressEvent(
                stage="adaptive",
                current=spent,
                total=total_packets,
                message=(
                    f"round {round_no}: +{grant} packets to "
                    f"{sweep.parameter}={sweep.values[target]:.6g} "
                    f"(rel CI width {widths[target]:.3g})"
                ),
                data={
                    "parameter": sweep.parameter,
                    "value": float(sweep.values[target]),
                    "packets": counters[target].packets,
                    "rel_width": float(widths[target]),
                },
            ))

    points = []
    for i, value in enumerate(sweep.values):
        counter = counters[i]
        state = states[i]
        if state is not None:
            measurement = state.result(
                packets=counter.packets,
                packets_lost=counter.packets_lost,
                estimator="is",
                boost_db=plans[i][1],
            )
        else:
            measurement = counter.result()
        points.append(SweepPoint(float(value), measurement))
    result = SweepResult(sweep.parameter, points)

    name = run_name or f"adaptive-{sweep.parameter}"
    kpis = dict(result.as_kpis())
    for i, value in enumerate(sweep.values):
        kpis[f"alloc_packets[{sweep.parameter}={value:.6g}]"] = float(
            counters[i].packets
        )
    obs.contribute(
        store,
        kind="sweep",
        name=name,
        seed=perf.seed_entropy(sweep.seed),
        config={
            "parameter": sweep.parameter,
            "values": [float(v) for v in sweep.values],
            "total_packets": total_packets,
            "initial_packets": initial_packets,
            "block": block,
            "estimator": sweep.estimator,
            "base_config": sweep.base_config,
            "seeding": obs.SEEDING_SCHEME,
        },
        tables={name: result.as_table()},
        curves={name: result.as_curve()},
        kpis=kpis,
    )
    return result


__all__ = [
    "WeightedBerMeasurement",
    "WeightedBerState",
    "auto_boost_db",
    "boost_for",
    "dimension_capped_boost_db",
    "ebn0_for_ber",
    "measure_uncoded_ber",
    "noise_log_weight",
    "packet_noise_dimension",
    "run_adaptive_sweep",
]
