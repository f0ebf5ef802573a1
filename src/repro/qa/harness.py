"""The `repro qa` harness: conformance vectors + oracles + fuzz.

Orchestrates the three QA pillars into one pass/fail report:

1. **Conformance** (:mod:`repro.qa.vectors`): every TX stage of the
   production :mod:`repro.dsp` chain is checked bit-/sample-exactly
   against the frozen Annex-G-style corpus, the full-frame digests are
   checked for all eight rates, and the reference frame must decode
   back to the reference PSDU through the production receiver.
2. **Oracles** (:mod:`repro.qa.oracles`): Monte-Carlo AWGN BER of the
   four constellations against exact theory, the coded chain against
   the uncoded bound, and ``characterize()`` against the Friis cascade
   budget.
3. **Fuzz** (:mod:`repro.qa.fuzz`): netlist round-trip and mutation
   fuzzing, the committed regression corpus, and random-payload
   TX -> RX loopback over all eight rates.
4. **Probes** (:mod:`repro.obs.probes`): the data-aided EVM probe
   against the ``(Es/N0)^(-1/2)`` AWGN oracle for all four
   constellations, and transmit-mask discrimination (clean burst
   passes, PA at 0 dB backoff fails).

Results persist to the PR-2 run store as kind ``qa`` (each check
becomes a pass/fail KPI plus its measured value), so ``repro runs
diff`` gates conformance exactly like any other experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class QaCheck:
    """One QA harness check outcome."""

    section: str
    name: str
    passed: bool
    detail: str = ""
    measured: Optional[float] = None
    expected: Optional[float] = None


@dataclass
class QaReport:
    """Aggregated harness outcome."""

    checks: List[QaCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def section(self, name: str) -> List[QaCheck]:
        return [c for c in self.checks if c.section == name]

    def as_table(self) -> str:
        from repro.core.reporting import render_table

        rows = [
            [
                c.section,
                c.name,
                "PASS" if c.passed else "FAIL",
                "" if c.measured is None else f"{c.measured:.6g}",
                "" if c.expected is None else f"{c.expected:.6g}",
                c.detail,
            ]
            for c in self.checks
        ]
        return render_table(
            ["section", "check", "verdict", "measured", "expected",
             "detail"],
            rows,
        )

    def kpis(self) -> Dict[str, float]:
        """Flattened KPI mapping for the run store."""
        out: Dict[str, float] = {
            "qa.checks_total": float(len(self.checks)),
            "qa.checks_failed": float(self.n_failed),
            "qa.passed": 1.0 if self.passed else 0.0,
        }
        for c in self.checks:
            key = f"qa.{c.section}.{c.name}"
            out[f"{key}.pass"] = 1.0 if c.passed else 0.0
            if c.measured is not None and np.isfinite(c.measured):
                out[f"{key}.measured"] = float(c.measured)
        return out


def _corpus_dir() -> Optional[str]:
    """Locate the committed netlist corpus in a dev checkout."""
    here = os.path.dirname(os.path.abspath(__file__))
    candidate = os.path.normpath(
        os.path.join(here, "..", "..", "..", "tests", "data", "netlist")
    )
    return candidate if os.path.isdir(candidate) else None


def run_vector_checks() -> List[QaCheck]:
    """Stage-by-stage conformance of the production TX chain.

    Every comparison is against the frozen corpus of
    :mod:`repro.qa.vectors` — the production code contributes only the
    *measured* side.
    """
    from repro.dsp.convcode import ConvolutionalEncoder, puncture
    from repro.dsp.interleaver import interleave
    from repro.dsp.params import RATES
    from repro.dsp.receiver import Receiver, RxConfig
    from repro.dsp.scrambler import Scrambler
    from repro.dsp.transmitter import Transmitter, TxConfig
    from repro.qa import vectors as vec

    checks: List[QaCheck] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append(QaCheck("conformance", name, bool(ok), detail))

    psdu = vec.reference_psdu()
    rate_mbps = vec.REFERENCE_RATE_MBPS
    rate = RATES[rate_mbps]
    tx = Transmitter(
        TxConfig(rate_mbps=rate_mbps, scrambler_seed=vec.SCRAMBLER_SEED)
    )

    # Stage 1: scrambler sequence (one full 127-bit period).
    seq = Scrambler(vec.SCRAMBLER_SEED).sequence(127)
    add(
        "scrambler_sequence",
        np.array_equal(seq, vec.scrambler_sequence_bits()),
        f"seed {vec.SCRAMBLER_SEED:#09b}",
    )

    # Stage 2: scrambled DATA-field bits.
    data_bits = tx.data_field_bits(psdu)
    add(
        "data_field_bits",
        np.array_equal(data_bits, vec.data_bits()),
        f"{data_bits.size} bits at {rate_mbps} Mbit/s",
    )

    # Stage 3: convolutional mother code (rate 1/2).
    coded = ConvolutionalEncoder().encode(vec.data_bits())
    add(
        "convolutional_code",
        np.array_equal(coded, vec.coded_bits()),
        "K=7, g0=133, g1=171 (octal)",
    )

    # Stage 4: puncturing to the rate's coding rate.
    punctured = puncture(vec.coded_bits(), rate.coding_rate)
    add(
        "puncturing",
        np.array_equal(punctured, vec.punctured_bits()),
        f"rate {rate.coding_rate[0]}/{rate.coding_rate[1]}",
    )

    # Stage 5: interleaving.
    interleaved = interleave(
        vec.punctured_bits(), rate.n_cbps, rate.n_bpsc
    )
    add(
        "interleaving",
        np.array_equal(interleaved, vec.interleaved_bits()),
        f"N_CBPS={rate.n_cbps}, N_BPSC={rate.n_bpsc}",
    )

    # Stage 6: constellation mapping of the first OFDM symbol.
    points = tx.data_symbols(psdu)[0]
    add(
        "constellation_mapping",
        np.allclose(points, vec.first_symbol_points(), atol=1e-12),
        "48 16-QAM points, K_MOD normalized",
    )

    # Stage 7: OFDM modulation + full frame.
    frame = tx.transmit(psdu)
    first_symbol = frame[400:480]  # after 320 preamble + 80 SIGNAL
    add(
        "ofdm_first_symbol",
        np.allclose(
            first_symbol, vec.first_data_symbol_samples(), atol=1e-9
        ),
        "80 time samples incl. cyclic prefix",
    )
    add(
        "frame_length",
        frame.size == vec.FRAME_LENGTH,
        f"{frame.size} samples",
    )
    add(
        "frame_digest",
        vec.digest_samples(frame) == vec.FRAME_DIGEST,
        vec.FRAME_DIGEST,
    )

    # Per-rate golden digests over the shared fixed payload.
    fixed = vec.fixed_psdu()
    for mbps in sorted(vec.GOLDEN_RATE_DIGESTS):
        golden = vec.GOLDEN_RATE_DIGESTS[mbps]
        rate_tx = Transmitter(TxConfig(rate_mbps=mbps))
        bits = rate_tx.data_field_bits(fixed)
        wave = rate_tx.transmit(fixed)
        ok = (
            vec.digest_bits(bits) == golden["data_bits"]
            and wave.size == golden["n_samples"]
            and vec.digest_samples(wave) == golden["ppdu"]
        )
        add(f"golden_rate_{mbps}mbps", ok, golden["ppdu"])

    # RX loopback: the reference frame must decode to the reference PSDU.
    padded = np.concatenate(
        [np.zeros(120, complex), frame, np.zeros(120, complex)]
    )
    result = Receiver(RxConfig()).receive(padded)
    add(
        "rx_loopback_reference_frame",
        result.success and np.array_equal(result.psdu, psdu),
        result.failure if not result.success else
        f"{result.length_bytes} bytes decoded",
    )
    return checks


def run_oracle_checks(
    seed: int = 0,
    jobs: Optional[int] = None,
    quick: bool = False,
) -> List[QaCheck]:
    """Analytic-oracle comparisons (BER theory + cascade budget)."""
    from repro.qa import oracles

    n_bits = 60_000 if quick else 200_000
    checks: List[QaCheck] = []
    results = oracles.check_all_uncoded_ber(n_bits=n_bits, seed=seed)
    results.append(
        oracles.check_coded_ber_bound(
            n_packets=10 if quick else 30, seed=seed, jobs=jobs
        )
    )
    results.extend(oracles.check_cascade_characterization(seed=seed, jobs=jobs))
    for r in results:
        checks.append(
            QaCheck(
                "oracle",
                r.name,
                r.passed,
                r.detail,
                measured=r.measured,
                expected=r.expected,
            )
        )
    return checks


def run_fuzz_checks(seed: int = 0, quick: bool = False) -> List[QaCheck]:
    """Deterministic fuzz passes + regression-corpus replay."""
    from repro.qa import fuzz

    checks: List[QaCheck] = []
    rt = fuzz.fuzz_round_trip(10 if quick else 50, seed=seed)
    checks.append(
        QaCheck(
            "fuzz",
            "netlist_round_trip",
            rt.ok,
            f"{rt.cases} random configs"
            + ("" if rt.ok else f"; first: {rt.failures[0].message}"),
        )
    )
    mu = fuzz.fuzz_parser(50 if quick else 200, seed=seed)
    checks.append(
        QaCheck(
            "fuzz",
            "netlist_mutations",
            mu.ok,
            f"{mu.cases} mutated netlists ({mu.parsed} accepted, "
            f"{mu.rejected} rejected cleanly)"
            + ("" if mu.ok else f"; first: {mu.failures[0].message}"),
        )
    )
    corpus = _corpus_dir()
    if corpus is not None:
        cr = fuzz.replay_corpus(corpus)
        checks.append(
            QaCheck(
                "fuzz",
                "corpus_replay",
                cr.ok and cr.cases > 0,
                f"{cr.cases} corpus files"
                + ("" if cr.ok else f"; first: {cr.failures[0].message}"),
            )
        )
    loop = fuzz.fuzz_loopback(
        trials_per_rate=1 if quick else 2, seed=seed
    )
    bad = [r for r in loop if not r.ok]
    checks.append(
        QaCheck(
            "fuzz",
            "phy_loopback_all_rates",
            not bad,
            f"{len(loop)} random payloads over 8 rates"
            + (
                ""
                if not bad
                else f"; first: {bad[0].rate_mbps} Mbit/s {bad[0].failure}"
            ),
        )
    )
    return checks


def run_probe_checks(seed: int = 0, quick: bool = False) -> List[QaCheck]:
    """Signal-probe sanity: EVM vs the AWGN oracle + mask discrimination.

    The data-aided EVM probe must reproduce ``(Es/N0)^(-1/2)`` for all
    four 802.11a constellations within the chi-square concentration
    bound, and the transmit-mask probe must pass a clean burst while
    flagging a PA driven into compression.
    """
    from repro.qa import oracles

    n_symbols = 1024 if quick else 4096
    results = [
        oracles.check_probe_evm(m, n_symbols=n_symbols, seed=seed)
        for m in ("BPSK", "QPSK", "QAM16", "QAM64")
    ]
    results.extend(oracles.check_probe_mask(seed=seed))
    return [
        QaCheck(
            "probe",
            r.name,
            r.passed,
            r.detail,
            measured=r.measured,
            expected=r.expected,
        )
        for r in results
    ]


def _qa_identity_task(x):
    """Picklable no-op task for the timeout check."""
    return x


def _qa_sweep(seed: int):
    """The small reference sweep the resilience checks replay."""
    from repro.core.sweep import ParameterSweep
    from repro.core.testbench import TestbenchConfig

    return ParameterSweep(
        base_config=TestbenchConfig(rate_mbps=6, psdu_bytes=20),
        parameter="snr_db",
        values=[0.0, 2.0, 4.0, 6.0],
        n_packets=1,
        seed=seed,
    )


def run_resilience_checks(
    seed: int = 0, jobs: Optional[int] = None
) -> List[QaCheck]:
    """Exercise the error paths of the parallel execution layer.

    Each check injects a deterministic fault (:mod:`repro.perf.faults`)
    and asserts the recovery contract: retried and resumed runs must
    reproduce the fault-free measurement *exactly*, a killed worker must
    degrade to in-process execution, and a timeout must surface as a
    structured :class:`~repro.perf.resilience.TaskError`.
    """
    import tempfile

    from repro import obs, perf

    checks: List[QaCheck] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append(QaCheck("resilience", name, bool(ok), detail))

    pool_jobs = jobs if jobs is not None and jobs > 1 else 2
    sweep = _qa_sweep(seed)
    clean = sweep.run(jobs=1)
    clean_bers = list(clean.bers)

    # 1. Injected failures on 2 of 4 points, one retry: bit-identical.
    with perf.use_context(
        fault_plan=perf.parse_fault_spec("sweep/fail:1@0,sweep/fail:3@0")
    ):
        retried = sweep.run(jobs=pool_jobs, retries=1)
    add(
        "retry_determinism",
        list(retried.bers) == clean_bers,
        "2/4 points failed once, 1 retry; BERs match clean run exactly",
    )

    # 2. A SIGKILLed worker breaks the pool; the region must finish
    # in-process with identical results.
    with perf.use_context(
        fault_plan=perf.parse_fault_spec("sweep/kill:2@0")
    ):
        survived = sweep.run(jobs=pool_jobs, retries=1)
    add(
        "broken_pool_fallback",
        list(survived.bers) == clean_bers,
        "worker SIGKILLed mid-sweep; serial fallback matches clean run",
    )

    # 3. A delayed task must trip the per-task timeout as a TaskError.
    with perf.use_context(
        fault_plan=perf.parse_fault_spec("qa-timeout/delay:1=5")
    ):
        result = perf.parallel_map(
            _qa_identity_task, [0, 1, 2], jobs=pool_jobs,
            stage="qa-timeout", task_timeout=0.25, on_error="capture",
        )
    timed_out = [r for r in result if isinstance(r, perf.TaskError)]
    add(
        "task_timeout",
        len(timed_out) == 1
        and timed_out[0].exc_type == "TaskTimeoutError"
        and timed_out[0].index == 1,
        "delayed task captured as a structured TaskTimeoutError",
    )

    # 4. Interrupt a checkpointing sweep, resume it, diff against clean.
    with tempfile.TemporaryDirectory() as tmp:
        store = obs.RunStore(tmp)
        interrupted = False
        try:
            with perf.use_context(
                fault_plan=perf.parse_fault_spec("sweep/abort:2")
            ):
                sweep.run(jobs=1, store=store, resume=True)
        except perf.InjectedFault:
            interrupted = True
        resumed = sweep.run(jobs=1, store=store, resume=True)
        add(
            "resume_determinism",
            interrupted and list(resumed.bers) == clean_bers,
            "sweep aborted before point 2; resumed run matches clean "
            "run exactly",
        )
    return checks


def run_rare_checks(
    seed: int = 0,
    jobs: Optional[int] = None,
    quick: bool = False,
) -> List[QaCheck]:
    """Statistical acceptance of the rare-event (importance sampling) path.

    Unbiasedness is the whole game for a variance-reduction estimator,
    so every check is an agreement test in the *overlap regime* where
    plain Monte-Carlo, importance sampling and the Cho-Yoon closed
    forms all exist:

    * the IS weighted CI (z=4.5) must contain exact theory at a deep
      (BER ~ 1e-4) BPSK point, and so must the plain-MC Wilson CI at
      the same bit budget;
    * IS and MC must agree with each other within combined error bars;
    * the measured variance-reduction factor — the squared ratio of the
      equal-budget MC and IS confidence widths — must be at least 10
      (it is ~100 at this operating point), i.e. the IS run buys the
      same CI width with >= 10x fewer packets;
    * the weights must satisfy their own law: ``mean(w)`` within
      sampling error of 1, ESS fraction in (0, 1];
    * the full coded chain under a dimension-capped boost must keep a
      healthy ESS and agree with its own MC measurement;
    * the adaptive allocator must spend exactly its budget,
      deterministically.
    """
    from repro.channel.awgn import ebn0_to_snr_db
    from repro.core.metrics import binomial_confidence
    from repro.core.testbench import TestbenchConfig, WlanTestbench
    from repro.dsp.params import RATES
    from repro.perf import rare
    from repro.qa.oracles import theoretical_ber

    z = 4.5
    checks: List[QaCheck] = []

    def add(name, ok, detail="", measured=None, expected=None):
        checks.append(
            QaCheck("rare", name, bool(ok), detail,
                    measured=measured, expected=expected)
        )

    # -- uncoded overlap point: BPSK at analytic BER ~= 1e-4 -----------
    ebn0 = rare.ebn0_for_ber("BPSK", 1e-4)
    theory = theoretical_ber("BPSK", ebn0)
    n_packets = 120 if quick else 400
    symbols = 256
    is_meas = rare.measure_uncoded_ber(
        "BPSK", ebn0, n_packets=n_packets, symbols_per_packet=symbols,
        estimator="is", seed=seed, jobs=jobs,
    )
    mc_meas = rare.measure_uncoded_ber(
        "BPSK", ebn0, n_packets=n_packets, symbols_per_packet=symbols,
        estimator="mc", seed=seed, jobs=jobs,
    )
    budget = f"{is_meas.bits_total} bits at Eb/N0={ebn0:.2f} dB"

    low, high = is_meas.confidence(z=z)
    add(
        "rare_is_vs_oracle",
        low <= theory <= high,
        f"weighted CI [{low:.3g}, {high:.3g}] at z={z:g}, {budget}, "
        f"boost {is_meas.boost_db:.2f} dB",
        measured=is_meas.ber,
        expected=theory,
    )
    mlow, mhigh = binomial_confidence(
        mc_meas.bit_errors, mc_meas.bits_total, z=z
    )
    add(
        "rare_mc_vs_oracle",
        mlow <= theory <= mhigh,
        f"Wilson CI [{mlow:.3g}, {mhigh:.3g}] at z={z:g}, {budget}",
        measured=mc_meas.ber,
        expected=theory,
    )
    # IS vs MC agreement within combined error bars.  The pooled rate
    # guards the MC variance term against a lucky 0-error draw.
    pooled = max(mc_meas.ber, is_meas.ber, 1.0 / mc_meas.bits_total)
    sigma = float(
        np.sqrt(is_meas.stderr**2 + pooled / mc_meas.bits_total)
    )
    add(
        "rare_is_vs_mc",
        abs(is_meas.ber - mc_meas.ber) <= z * sigma,
        f"|{is_meas.ber:.3g} - {mc_meas.ber:.3g}| <= {z:g} * {sigma:.3g}",
        measured=is_meas.ber,
        expected=mc_meas.ber,
    )
    # Measured variance reduction: squared ratio of equal-budget CI
    # widths == the factor fewer packets IS needs for the same width.
    ilow, ihigh = is_meas.confidence(z=1.96)
    clow, chigh = mc_meas.confidence(z=1.96)
    width_is = max(ihigh - ilow, 1e-300)
    vr_measured = ((chigh - clow) / width_is) ** 2
    add(
        "rare_variance_reduction",
        vr_measured >= 10.0,
        f"(MC width / IS width)^2 at equal {budget}; gate >= 10",
        measured=float(vr_measured),
        expected=10.0,
    )
    add(
        "rare_vr_estimate",
        is_meas.vr_estimate >= 10.0,
        "estimator-internal variance-reduction KPI; gate >= 10",
        measured=is_meas.vr_estimate,
        expected=10.0,
    )
    # Weight law: unnormalized weights must average to 1 within their
    # own sampling error (variance recovered from the Kish ESS).
    trials = is_meas.trials
    var_w = max(
        trials * is_meas.mean_weight**2 / max(is_meas.ess, 1e-300)
        - is_meas.mean_weight**2,
        0.0,
    )
    w_sigma = float(np.sqrt(var_w / trials))
    add(
        "rare_weight_normalization",
        abs(is_meas.mean_weight - 1.0) <= z * w_sigma,
        f"|mean(w) - 1| <= {z:g} * {w_sigma:.3g} over {trials} weights",
        measured=is_meas.mean_weight,
        expected=1.0,
    )
    add(
        "rare_ess_fraction",
        0.0 < is_meas.ess_fraction <= 1.0 + 1e-12,
        f"ESS {is_meas.ess:.1f} of {trials} trials",
        measured=is_meas.ess_fraction,
    )

    # -- full coded chain under a dimension-capped boost ---------------
    chain_ebn0 = 2.0
    config = TestbenchConfig(
        rate_mbps=6,
        psdu_bytes=20,
        snr_db=ebn0_to_snr_db(chain_ebn0, RATES[6]),
        genie_rx=True,
    )
    boost = rare.dimension_capped_boost_db(
        rare.packet_noise_dimension(config)
    )
    bench = WlanTestbench(config)
    chain_packets = 16 if quick else 24
    chain_is = bench.measure_ber(
        n_packets=chain_packets, seed=seed, jobs=jobs,
        estimator="is", boost_db=boost,
    )
    chain_mc = bench.measure_ber(
        n_packets=chain_packets, seed=seed, jobs=jobs,
    )
    add(
        "rare_chain_ess",
        chain_is.ess_fraction >= 0.1,
        f"{chain_packets} coded packets at {boost:.3f} dB boost "
        f"(dimension-capped); ESS fraction must stay healthy",
        measured=chain_is.ess_fraction,
        expected=float(np.exp(-1.0)),
    )
    ilow, ihigh = chain_is.confidence(z=z)
    try:
        mlow, mhigh = binomial_confidence(
            chain_mc.bit_errors, chain_mc.bits_total, z=z
        )
    except ValueError:
        mlow, mhigh = 0.0, 1.0
    add(
        "rare_full_chain_unbiased",
        ilow <= mhigh and mlow <= ihigh,
        f"weighted CI [{ilow:.3g}, {ihigh:.3g}] overlaps MC Wilson CI "
        f"[{mlow:.3g}, {mhigh:.3g}] at z={z:g}, Eb/N0={chain_ebn0:g} dB",
        measured=chain_is.ber,
        expected=chain_mc.ber,
    )

    # -- adaptive allocation: exact budget, deterministic --------------
    budget_packets = 12 if quick else 18
    sweep = _qa_sweep(seed)
    first = rare.run_adaptive_sweep(
        sweep, budget_packets, jobs=jobs
    )
    second = rare.run_adaptive_sweep(
        sweep, budget_packets, jobs=jobs
    )
    spent = sum(p.measurement.packets for p in first.points)
    add(
        "rare_adaptive_budget",
        spent == budget_packets
        and all(p.measurement.packets >= 1 for p in first.points),
        f"{spent}/{budget_packets} packets allocated over "
        f"{len(first.points)} points, every point warmed up",
        measured=float(spent),
        expected=float(budget_packets),
    )
    add(
        "rare_adaptive_determinism",
        list(first.bers) == list(second.bers)
        and [p.measurement.packets for p in first.points]
        == [p.measurement.packets for p in second.points],
        "two adaptive runs with the same seed allocate and measure "
        "identically",
    )
    return checks


def run_scenario_checks(
    seed: int = 0, jobs: Optional[int] = None
) -> List[QaCheck]:
    """Correctness of the multi-emitter scenario library.

    The scenario path earns its keep only if it is *provably* the same
    physics as the legacy interference path and just as deterministic:

    * mixing emitters must not perturb the wanted path's random streams
      (the per-emitter streams are forked, never drawn from the caller);
    * the ``adjacent-16db`` preset must reproduce the legacy
      ``InterferenceScenario.adjacent()`` measurement bit-for-bit;
    * every emitter's burst-active power must honour its configured
      excess over the wanted reference;
    * a scenario sweep must be schedule-invariant (serial == jobs=2).
    """
    import numpy as np

    from repro.channel.interference import InterferenceScenario
    from repro.core.sweep import ParameterSweep
    from repro.core.testbench import TestbenchConfig, WlanTestbench
    from repro.scenario import Scenario
    from repro.scenario.emitters import active_power_watts

    checks: List[QaCheck] = []

    def add(name, ok, detail="", measured=None, expected=None):
        checks.append(
            QaCheck("scenario", name, bool(ok), detail,
                    measured=measured, expected=expected)
        )

    # 1. Emitter streams are forked: applying a scenario leaves the
    # caller's generator state untouched.
    rng = np.random.default_rng(seed)
    wanted = np.exp(2j * np.pi * rng.random(4096))
    from repro.rf.signal import Signal

    state_before = rng.bit_generator.state
    Scenario.preset("hostile-coexistence").apply(
        Signal(wanted.copy(), 80e6), rng
    )
    add(
        "emitter_stream_isolation",
        rng.bit_generator.state == state_before,
        "three-emitter scenario applied; caller RNG state unchanged",
    )

    # 2. Legacy equivalence at baseband: same bits, same errors.
    def measure(**channel):
        cfg = TestbenchConfig(rate_mbps=36, psdu_bytes=60, snr_db=14.0,
                              **channel)
        return WlanTestbench(cfg).measure_ber(
            n_packets=4, seed=seed, jobs=jobs
        )

    legacy = measure(interference=InterferenceScenario.adjacent())
    mixed = measure(scenario=Scenario.preset("adjacent-16db"))
    add(
        "legacy_equivalence",
        legacy.bit_errors == mixed.bit_errors
        and legacy.bits_total == mixed.bits_total,
        "adjacent +16 dB via scenario library matches the legacy "
        "interference path bit-for-bit",
        measured=mixed.ber,
        expected=legacy.ber,
    )

    # 3. Power convention: each preset emitter's burst-active power must
    # sit at its configured excess over the wanted reference.
    rng = np.random.default_rng(seed + 1)
    wanted = np.exp(2j * np.pi * rng.random(1 << 15))
    reference = active_power_watts(wanted)
    worst = 0.0
    for name in ("adjacent-16db", "bluetooth-hop", "microwave-oven"):
        scenario = Scenario.preset(name)
        for index, emitter in enumerate(scenario.emitters):
            burst = emitter.generate(
                wanted.size, 80e6, reference, np.random.default_rng(seed)
            )
            measured_db = 10.0 * np.log10(
                active_power_watts(burst.samples) / reference
            )
            worst = max(worst, abs(measured_db - emitter.excess_db))
    add(
        "power_convention",
        worst < 0.2,
        "burst-active power of every preset emitter within 0.2 dB of "
        "its configured excess",
        measured=worst,
        expected=0.0,
    )

    # 4. Schedule invariance: serial and 2-worker scenario sweeps agree
    # exactly (per-point streams come from coordinates, not schedule).
    sweep = ParameterSweep(
        base_config=TestbenchConfig(
            rate_mbps=6, psdu_bytes=20,
            scenario=Scenario.preset("co-channel"),
        ),
        parameter="snr_db",
        values=[4.0, 8.0, 12.0],
        n_packets=1,
        seed=seed,
    )
    serial = sweep.run(jobs=1)
    parallel = sweep.run(jobs=2)
    add(
        "parallel_determinism",
        list(serial.bers) == list(parallel.bers),
        "co-channel scenario sweep: serial and jobs=2 BERs identical",
    )
    return checks


def run_qa(
    seed: int = 0,
    jobs: Optional[int] = None,
    quick: bool = False,
    store=None,
    faults: bool = False,
    rare: bool = False,
    scenarios: bool = False,
) -> QaReport:
    """Run the complete QA harness.

    Args:
        seed: base random seed for every stochastic check.
        jobs: worker processes for the parallelizable analyses.
        quick: reduce sample sizes (CI smoke / tier-1 friendly).
        store: optional :class:`repro.obs.RunStore`; results also attach
            to the ambient run writer when the CLI installed one.
        faults: additionally run the fault-injection resilience section
            (retry/fallback/timeout/resume determinism).
        rare: additionally run the rare-event estimator section
            (importance-sampling unbiasedness vs MC and closed-form
            oracles, variance-reduction gate, adaptive allocation).
        scenarios: additionally run the multi-emitter scenario section
            (stream isolation, legacy-path equivalence, power
            convention, schedule invariance).

    Returns:
        The aggregated :class:`QaReport`.
    """
    from repro import obs

    report = QaReport()
    with obs.span("qa:conformance"):
        report.checks.extend(run_vector_checks())
    with obs.span("qa:oracles"):
        report.checks.extend(
            run_oracle_checks(seed=seed, jobs=jobs, quick=quick)
        )
    with obs.span("qa:fuzz"):
        report.checks.extend(run_fuzz_checks(seed=seed, quick=quick))
    with obs.span("qa:probes"):
        report.checks.extend(run_probe_checks(seed=seed, quick=quick))
    if faults:
        with obs.span("qa:resilience"):
            report.checks.extend(
                run_resilience_checks(seed=seed, jobs=jobs)
            )
    if rare:
        with obs.span("qa:rare"):
            report.checks.extend(
                run_rare_checks(seed=seed, jobs=jobs, quick=quick)
            )
    if scenarios:
        with obs.span("qa:scenario"):
            report.checks.extend(
                run_scenario_checks(seed=seed, jobs=jobs)
            )
    obs.contribute(
        store,
        kind="qa",
        name="qa",
        seed=seed,
        config={"quick": quick, "faults": faults, "rare": rare,
                "scenarios": scenarios},
        tables={"qa_checks": report.as_table()},
        kpis=report.kpis(),
    )
    return report
