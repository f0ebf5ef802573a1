"""The WLAN system test bench (figure 3 as an executable harness).

"As a test-bench the IEEE 802.11a demo system is used [...] The model of
the double conversion receiver is inserted in front of the DSP receiver
part.  The input and output level of the RF subsystem must be adapted with
constant multipliers."

:class:`WlanTestbench` builds the full signal path — transmitter, level
adaptation, optional adjacent channels, channel model, optional RF front
end, DSP receiver — and measures BER over packets, or EVM with the ideal
receiver (section 5.2).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.channel.awgn import AwgnChannel
from repro.core.metrics import (
    BerCounter,
    BerMeasurement,
    error_vector_magnitude,
)
from repro.dsp.iqfilter import resample
from repro.dsp.params import MAX_PSDU_BYTES, RATES
from repro.dsp.receiver import Receiver, RxConfig, RxResult
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
from repro.rf.signal import Signal
from repro.scenario import Scenario


def _build_frontend(config):
    """Instantiate the right receiver architecture for a config object.

    Accepts :class:`repro.rf.frontend.FrontendConfig` (double conversion)
    or :class:`repro.rf.zeroif.ZeroIfConfig` (direct conversion).
    """
    from repro.rf.zeroif import ZeroIfConfig, ZeroIfReceiver

    if isinstance(config, ZeroIfConfig):
        return ZeroIfReceiver(config)
    return DoubleConversionReceiver(config)


#: Worker-local bench memo: rebuilding the testbench (transmitter,
#: receiver, Viterbi tables) for every chunk wasted a constant per-chunk
#: cost; the bench is stateless across packets, so reuse is exact.
_BENCH_CACHE: dict = {}
_BENCH_CACHE_MAX = 8


def _bench_for_config(config) -> "WlanTestbench":
    """Memoized :class:`WlanTestbench` keyed on the config content hash."""
    key = obs.config_key(config)
    bench = _BENCH_CACHE.get(key)
    if bench is None:
        if len(_BENCH_CACHE) >= _BENCH_CACHE_MAX:
            _BENCH_CACHE.clear()
        bench = WlanTestbench(config)
        _BENCH_CACHE[key] = bench
    return bench


def _packet_chunk_task(payload):
    """Run one batch of packets (a :func:`repro.perf.parallel_map` task).

    Each packet draws its random stream from its own
    :class:`~numpy.random.SeedSequence` child, so the outcome depends
    only on the packet's coordinates — not on which process runs it or
    which batch it ran in.  The batch is one
    :meth:`WlanTestbench.run_packet_batch` call.

    A non-None ``noise_boost_db`` runs the batch through the
    importance-sampled channel; at 0 dB boost the outcomes — including
    the random streams — are bit-identical to the plain path and every
    log weight is exactly 0.

    Returns:
        ``[(bit_errors, n_bits, lost, log_weight), ...]`` per packet,
        in order.
    """
    config, seed_children, noise_boost_db = payload
    # The probe tag is the packet's seed coordinates — stable under any
    # batching/worker placement, so reservoir sampling keeps the same
    # IQ points at every job count.
    outcomes = _bench_for_config(config).run_packet_batch(
        [np.random.default_rng(child) for child in seed_children],
        [f"{child.entropy}:{child.spawn_key}" for child in seed_children],
        noise_boost_db=noise_boost_db,
    )
    return [(o.bit_errors, o.n_bits, o.lost, o.log_weight) for o in outcomes]


def _fold_outcomes(counter, state, outcomes, max_bit_errors=None) -> bool:
    """Fold ``(bit_errors, n_bits, lost, log_weight)`` outcomes in order.

    The one per-packet accumulation into the BER ``counter`` and the
    optional IS ``state``.  Counting ends at the packet whose RAW error
    count crosses ``max_bit_errors`` (later packets of its batch are
    computed but not counted), so the estimate depends only on packet
    order; returns True once crossed.  A stop on the weighted error
    mass would couple the stopping time to the weights and bias the IS
    estimator.
    """
    for bit_errors, n_bits, lost, log_weight in outcomes:
        counter.add_outcome(bit_errors, n_bits, lost)
        if state is not None:
            state.add(bit_errors, n_bits, log_weight)
        if max_bit_errors is not None and counter.bit_errors >= max_bit_errors:
            return True
    return False


def oversample_factor(config) -> int:
    """Envelope oversampling factor of a :class:`TestbenchConfig`.

    With an RF front end its decimation fixes the rate.  Without one,
    the baseband is oversampled just enough for every scenario emitter
    (:meth:`repro.scenario.Scenario.required_oversample`: the paper's
    ``2·(|k|+1)`` for an 802.11a channel ``k`` channels out).
    """
    if config.frontend is not None:
        return config.frontend.decimation
    return config.scenario.required_oversample()


@dataclass
class TestbenchConfig:
    """Test-bench setup.

    (The ``Testbench`` name collides with pytest's collection heuristics;
    ``__test__ = False`` opts the class out.)

    Attributes:
        rate_mbps / psdu_bytes: wanted-signal traffic.
        snr_db: normalized AWGN SNR; None disables normalized noise.
        thermal_floor: inject the physical kT*fs antenna noise (used with
            absolute input levels and the RF front end).
        scenario: the channel (:class:`repro.scenario.Scenario`):
            emitters IQ-mixed onto the wanted signal, then optional
            multipath.  Empty by default (AWGN only).
        interference: init-only shorthand for the paper-figure cases
            (``interference=InterferenceScenario.adjacent()``); the given
            scenario is stored as ``scenario``.  Passing both keywords
            raises ``ValueError``.
        frontend: RF front-end configuration; None bypasses the RF
            subsystem entirely (pure DSP system, the paper's baseline
            demo-system configuration).
        input_level_dbm: wanted level at the RF input (only meaningful
            with a front end or thermal floor).
        guard_samples: leading/trailing zero padding at 20 MHz.
        genie_rx: use genie timing/CFO; needs ``frontend=None``, since
            the front end's group delay requires real synchronization.

    Raises:
        ValueError: when ``rate_mbps`` is not an 802.11a rate,
            ``psdu_bytes`` is outside ``1..MAX_PSDU_BYTES``,
            ``guard_samples`` is negative, both ``interference`` and
            ``scenario`` are given, ``genie_rx`` is set with a front
            end, or the front end's envelope rate is too narrow for a
            scenario emitter.
    """

    rate_mbps: int = 24
    psdu_bytes: int = 100
    snr_db: Optional[float] = None
    thermal_floor: bool = False
    scenario: Scenario = field(default_factory=Scenario)
    interference: InitVar[Optional[Scenario]] = None
    frontend: Optional[FrontendConfig] = None
    input_level_dbm: float = -55.0
    guard_samples: int = 150
    genie_rx: bool = False

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __post_init__(self, interference):
        if self.rate_mbps not in RATES:
            raise ValueError(
                f"rate_mbps {self.rate_mbps!r} is not an 802.11a rate "
                f"({', '.join(map(str, RATES))})"
            )
        if not 1 <= self.psdu_bytes <= MAX_PSDU_BYTES:
            raise ValueError(
                f"psdu_bytes {self.psdu_bytes!r} outside "
                f"1..{MAX_PSDU_BYTES}"
            )
        if self.guard_samples < 0:
            raise ValueError(
                f"guard_samples {self.guard_samples!r} is negative"
            )
        if self.genie_rx and self.frontend is not None:
            raise ValueError(
                "genie_rx needs frontend=None: the front end's group "
                "delay shifts the packet start genie timing assumes"
            )
        if interference is not None:
            if self.scenario != Scenario():
                raise ValueError(
                    "pass the channel as either interference= or "
                    "scenario=, not both (interference= is shorthand "
                    "for scenario=)"
                )
            self.scenario = interference
        if (
            self.frontend is not None
            and self.scenario.max_halfband_hz()
            > self.frontend.decimation * 10e6
        ):
            raise ValueError(
                f"the RF front end fixes the envelope rate at "
                f"{self.frontend.decimation * 20e6:g} Hz, too narrow for "
                f"a scenario emitter needing "
                f"{self.scenario.max_halfband_hz():g} Hz half-band"
            )


@dataclass
class PacketOutcome:
    """Result of a single packet transmission through the bench.

    ``log_weight`` is the packet's importance-sampling log likelihood
    ratio — exactly 0.0 for a plain (non-importance-sampled) run.
    """

    bit_errors: float
    n_bits: int
    lost: bool
    rx_result: RxResult
    tx_symbols: np.ndarray
    log_weight: float = 0.0


@dataclass
class EvmMeasurement:
    """EVM measurement outcome (section 5.2 style).

    Attributes:
        evm_rms: RMS EVM (linear fraction).
        evm_percent: same in percent.
        evm_db: 20*log10(evm).
        n_symbols: constellation points measured.
    """

    evm_rms: float
    n_symbols: int

    @property
    def evm_percent(self) -> float:
        return 100.0 * self.evm_rms

    @property
    def evm_db(self) -> float:
        return float(20.0 * np.log10(max(self.evm_rms, 1e-12)))


class WlanTestbench:
    """End-to-end WLAN transmission bench with optional RF subsystem."""

    def __init__(self, config: TestbenchConfig = TestbenchConfig()):
        self.config = config
        self.oversample = oversample_factor(config)
        self._tx_config = TxConfig(
            rate_mbps=config.rate_mbps, oversample=self.oversample
        )
        if config.genie_rx:
            self._rx_config = RxConfig(
                genie_timing=True,
                genie_cfo=True,
                genie_rate_mbps=config.rate_mbps,
                genie_length_bytes=config.psdu_bytes,
            )
        else:
            self._rx_config = RxConfig()
        # Transmitter and receiver are stateless across packets; build
        # them once instead of per packet (and per chunk in workers).
        self._transmitter = Transmitter(self._tx_config)
        self._receiver = Receiver(self._rx_config)

    # ------------------------------------------------------------------
    def run_packet(
        self,
        rng: np.random.Generator,
        probe_tag: str = "pkt",
        noise_boost_db: Optional[float] = None,
    ) -> PacketOutcome:
        """Send one packet through the chain: a batch of one.

        See :meth:`run_packet_batch`; ``probe_tag`` is the packet's probe
        identity tag.
        """
        return self.run_packet_batch(
            [rng], [probe_tag], noise_boost_db=noise_boost_db
        )[0]

    def _propagate(
        self,
        wave: np.ndarray,
        rng: np.random.Generator,
        probes,
        noise_boost_db: Optional[float] = None,
    ):
        """One packet's channel + RF path: TX waveform to RX baseband.

        Covers everything between the transmitter and receiver spans —
        guard padding, level adaptation, scenario emitters/fading/AWGN, the RF
        front end (or the ideal decimator), output normalization and the
        genie-timing slice — including all the per-packet probe taps.

        Returns ``(baseband, log_weight)``: the log weight is the AWGN
        importance-sampling log likelihood ratio when
        ``noise_boost_db`` is set, 0.0 otherwise (the plain channel and
        the 0 dB-boost proposal make identical random draws).
        """
        cfg = self.config
        guard = np.zeros(cfg.guard_samples * self.oversample, dtype=complex)
        samples = np.concatenate([guard, wave, guard])
        sample_rate = self._tx_config.sample_rate
        carrier = (
            cfg.frontend.carrier_frequency if cfg.frontend is not None else 0.0
        )
        sig = Signal(samples, sample_rate, carrier)

        if cfg.frontend is not None or cfg.thermal_floor:
            sig = sig.scaled_to_dbm(cfg.input_level_dbm)

        if probes.enabled:
            probes.tap("tx", sig.samples, sig.sample_rate)
            # Mask compliance on the bare burst (guard zeros excluded);
            # the mask is relative (dBr) so level adaptation is moot.
            probes.tap_mask("tx", wave, sample_rate)

        log_weight = 0.0
        with obs.span("block:channel", samples=len(sig)):
            sig = cfg.scenario.apply(sig, rng)
            if cfg.scenario.fading is not None:
                sig = cfg.scenario.fading.process(sig, rng)
            channel = AwgnChannel(
                snr_db=cfg.snr_db,
                include_thermal_floor=cfg.thermal_floor,
            )
            if noise_boost_db is None:
                sig = channel.process(sig, rng)
            else:
                sig, log_weight = channel.process_importance(
                    sig, rng, 10.0 ** (noise_boost_db / 10.0)
                )

        if probes.enabled:
            probes.tap("channel", sig.samples, sig.sample_rate)

        if cfg.frontend is not None:
            with obs.span("block:rf_frontend", samples=len(sig)):
                # process() is stage_outputs()[-1]; keeping the stages
                # costs nothing and feeds the rf:* taps.
                staged = _build_frontend(cfg.frontend).stage_outputs(sig, rng)
                if probes.enabled:
                    probes.note_budget(cfg.frontend)
                    for name, stage_sig in staged:
                        probes.tap(
                            f"rf:{name}",
                            stage_sig.samples,
                            stage_sig.sample_rate,
                        )
                sig = staged[-1][1]
        elif self.oversample > 1:
            # No RF front end: decimate back to 20 MHz for the receiver
            # (ideal anti-alias — the DSP-only configuration).
            with obs.span("block:decimator", samples=len(sig)):
                sig = Signal(
                    resample(sig.samples, 1, self.oversample),
                    sample_rate / self.oversample,
                )
            if probes.enabled:
                probes.tap("decimator", sig.samples, sig.sample_rate)

        # Output level adaptation ("constant multipliers").
        power = sig.power_watts()
        baseband = sig.samples / np.sqrt(power) if power > 0 else sig.samples

        if cfg.genie_rx:
            # Genie timing: hand the receiver the exact packet start.  Only
            # valid without a front end (whose group delay would shift it).
            baseband = baseband[cfg.guard_samples :]
        return baseband, log_weight

    def _tap_evm(self, probes, result: RxResult, tx_symbols, probe_tag):
        """Fire the equalizer-output EVM probe for one decoded packet."""
        if probes.enabled and result.data_symbols is not None:
            rx = np.asarray(result.data_symbols).reshape(-1)
            ref = tx_symbols.reshape(-1)
            n = min(rx.size, ref.size)
            if n:
                probes.tap_evm(
                    "eq",
                    rx[:n],
                    ref[:n],
                    RATES[self.config.rate_mbps].modulation,
                    tag=probe_tag,
                )

    def _packet_outcome(
        self,
        result: RxResult,
        psdu: np.ndarray,
        tx_symbols: np.ndarray,
        log_weight: float = 0.0,
    ) -> PacketOutcome:
        """Score one reception against its transmitted payload."""
        n_bits = 8 * self.config.psdu_bytes
        if not result.success or result.psdu.size != psdu.size:
            return PacketOutcome(
                n_bits / 2.0, n_bits, True, result, tx_symbols, log_weight
            )
        errors = int(
            np.unpackbits(result.psdu ^ psdu, bitorder="little").sum()
        )
        return PacketOutcome(
            float(errors), n_bits, False, result, tx_symbols, log_weight
        )

    # ------------------------------------------------------------------
    def run_packet_batch(
        self, rngs, probe_tags=None, noise_boost_db: Optional[float] = None
    ) -> list:
        """Send a batch of packets through the complete chain and decode them.

        The transmitter's bit chain and OFDM modulation run once over
        ``(n_packets, ...)`` arrays, the channel/RF path stays per packet
        (each stage draws from its packet's own random stream, so an
        outcome does not depend on the batch it ran in), and the receiver
        decodes the whole batch through stacked FFTs and one batched
        Viterbi pass.

        Each stage runs under a ``block:`` span so a traced run yields a
        per-block time breakdown (``repro profile``); with the default
        no-op tracer the spans cost nothing.  When the ambient
        :class:`repro.obs.ProbeRegistry` is enabled, signal taps fire at
        the stage boundaries (TX output, channel output, every RF
        front-end stage, equalizer output); the taps never touch the
        signal or the random streams, so the outcomes are bit-identical
        with probes on or off.

        Args:
            rngs: one :class:`numpy.random.Generator` per packet.
            probe_tags: per-packet stable identity for probe reservoir
                sampling (the seed coordinates in parallel runs);
                defaults to ``"pkt"`` each.
            noise_boost_db: importance-sampling noise-variance boost
                (dB) applied to the AWGN proposal; None (and exactly
                0.0) reproduces the plain channel bit for bit, with a
                0.0 log weight on each outcome.

        Returns:
            List of :class:`PacketOutcome`, one per packet.
        """
        cfg = self.config
        probes = obs.get_probes()
        if probe_tags is None:
            probe_tags = ["pkt"] * len(rngs)
        psdus = np.stack([random_psdu(cfg.psdu_bytes, rng) for rng in rngs])
        with obs.span(
            "block:transmitter", rate_mbps=cfg.rate_mbps, batch=len(rngs)
        ) as sp:
            waves, tx_symbol_stack = self._transmitter.transmit_batch(psdus)
            sp.set(samples=int(waves.size))
        propagated = [
            self._propagate(
                waves[k], rngs[k], probes, noise_boost_db=noise_boost_db
            )
            for k in range(len(rngs))
        ]
        basebands = [baseband for baseband, _ in propagated]
        log_weights = [log_weight for _, log_weight in propagated]
        with obs.span(
            "block:receiver",
            samples=int(sum(b.size for b in basebands)),
            batch=len(rngs),
        ):
            results = self._receiver.receive_batch(np.stack(basebands))
        outcomes = []
        for k, result in enumerate(results):
            self._tap_evm(probes, result, tx_symbol_stack[k], probe_tags[k])
            outcomes.append(
                self._packet_outcome(
                    result, psdus[k], tx_symbol_stack[k],
                    log_weight=log_weights[k],
                )
            )
        return outcomes

    # ------------------------------------------------------------------
    def measure_ber(
        self,
        n_packets: int = 20,
        seed=0,
        max_bit_errors: Optional[float] = None,
        store=None,
        run_name: str = "ber",
        jobs: Optional[int] = None,
        batch_size: Optional[int] = None,
        retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
        estimator: str = "mc",
        boost_db: Optional[float] = None,
    ) -> BerMeasurement:
        """Run ``n_packets`` packets and accumulate the BER.

        Packet ``j`` draws its random stream from child ``j`` of the
        seed's :class:`~numpy.random.SeedSequence` spawn tree, and
        outcomes are counted in packet order with a per-packet early
        stop, so the measurement is bit-identical at every
        ``jobs``/``batch_size`` setting, early stop included.

        Args:
            n_packets: packets to simulate.
            seed: base random seed (int or ``SeedSequence``).
            max_bit_errors: early-stop threshold — once this many bit
                errors are counted the estimate is statistically settled
                (classic BER-measurement shortcut).  Evaluated per
                packet, in packet order: counting ends at the packet
                that crosses it, later packets of its batch are
                computed but not counted, and no further batch is
                dispatched (in-flight ones are drained unused).
            store: optional :class:`repro.obs.RunStore`; when given, the
                measurement persists its own run (BER/PER/packet KPIs).
                Unlike the sweep, a bare measurement never attaches to
                the ambient CLI run — sweeps already aggregate it.
            run_name: store name for the measurement run.
            jobs: worker processes for packet batches; None defers to
                the ambient ``--jobs`` default, 1 runs in-process.
            batch_size: packets per dispatched task, evaluated in one
                stacked PHY-chain pass; None defers to the ambient
                ``--batch-size`` default (1 = the same engine run in
                groups of one).  A larger batch changes throughput and,
                after an early stop, how many uncounted packets were
                computed — never the estimate.  Probe float sums may
                differ in the last bits across batch sizes.
            retries: per-batch retry budget on task failure (each
                attempt replays the batch's own seed children, so a
                retried measurement is bit-identical to a clean one);
                None defers to the ambient ``--retries`` default.
            task_timeout: per-batch wall-clock budget in seconds; None
                defers to the ambient ``--task-timeout`` default.
            estimator: ``"mc"`` (plain Monte-Carlo, the classic path)
                or ``"is"`` (importance sampling on the AWGN noise: the
                channel draws from a boosted-variance proposal and the
                measurement is the unbiased weighted estimate, a
                :class:`repro.perf.rare.WeightedBerMeasurement`).  The
                weighted state accumulates parent-side in packet order,
                so the IS path keeps the exact bit-identity guarantee
                across ``jobs``/``batch_size`` settings.
            boost_db: noise-variance boost of the IS proposal in dB;
                None picks :func:`repro.perf.rare.auto_boost_db` (a
                target-BER boost capped by the packet's noise
                dimensionality).  Ignored under ``estimator="mc"``.
        """
        from repro import perf
        from repro.perf import rare as _rare

        if estimator not in ("mc", "is"):
            raise ValueError(f"unknown estimator {estimator!r}")
        weighted = estimator == "is"
        if weighted:
            # The IS weights reweight only the AWGN draw; any other
            # randomness in the error mechanism silently biases the
            # weighted estimate, so refuse instead of mismeasuring.
            reason = _rare.is_incompatibility(self.config)
            if reason is not None:
                raise ValueError(
                    f"estimator='is' is only valid for AWGN-dominated "
                    f"errors, but {reason}; use estimator='mc' (or "
                    f"estimator='auto' in a sweep, which falls back to "
                    f"Monte-Carlo automatically)"
                )
        if not weighted:
            boost_db = None
        elif boost_db is None:
            boost_db = _rare.auto_boost_db(self.config)
        batch = perf.resolve_batch_size(batch_size)
        counter = BerCounter()
        state = _rare.WeightedBerState() if weighted else None
        children = perf.spawn(seed, n_packets)
        chunks = [
            (self.config, children[i:i + batch], boost_db)
            for i in range(0, n_packets, batch)
        ]
        stopped = False

        emit = obs.as_listener(None)

        def accumulate(index, chunk_outcomes):
            nonlocal stopped
            stopped = _fold_outcomes(
                counter, state, chunk_outcomes, max_bit_errors
            )
            # Runs parent-side in batch order (serial and pooled alike),
            # so the live monitor sees the same cumulative convergence
            # trajectory at every jobs setting.  Inside a sweep point
            # these events are suppressed/worker-local; a direct BER
            # measurement streams its Wilson-CI state batch by batch.
            data = {
                "bit_errors": counter.bit_errors,
                "bits_total": counter.bits_total,
                "packets": counter.packets,
            }
            if state is not None:
                # The weighted CI drives convergence classification:
                # the effective counts replace the raw ones (the live
                # monitor's Wilson machinery then *is* the weighted
                # interval), with the raw counts alongside.
                data.update(
                    bit_errors=state.k_eff,
                    bits_total=state.effective_trials,
                    raw_bit_errors=counter.bit_errors,
                    raw_bits_total=counter.bits_total,
                    estimator="is",
                    ess=state.ess,
                )
            emit(obs.ProgressEvent(
                stage="ber",
                current=index + 1,
                total=len(chunks),
                message=(
                    f"chunk {index + 1}/{len(chunks)}: "
                    f"{counter.bit_errors} errors / "
                    f"{counter.bits_total} bits"
                ),
                data=data,
            ))

        perf.parallel_map(
            _packet_chunk_task,
            chunks,
            jobs=jobs,
            stage="ber",
            on_result=accumulate,
            stop=lambda index, chunk_outcomes: stopped,
            retries=retries,
            task_timeout=task_timeout,
        )
        if state is not None:
            measurement = state.result(
                packets=counter.packets,
                packets_lost=counter.packets_lost,
                estimator="is",
                boost_db=boost_db,
            )
        else:
            measurement = counter.result()
        registry = obs.get_registry()
        registry.counter(
            "packets_simulated", "packets run through the test bench"
        ).inc(measurement.packets)
        registry.histogram(
            "ber", "bit error rate per BER measurement"
        ).observe(measurement.ber, rate_mbps=self.config.rate_mbps)
        if store is not None:
            kpis = {
                "ber": measurement.ber,
                "per": measurement.per,
                "packets": float(measurement.packets),
                "packets_lost": float(measurement.packets_lost),
            }
            if state is not None:
                kpis.update({
                    "estimator_is": 1.0,
                    "boost_db": float(boost_db),
                    "ess": measurement.ess,
                    "ess_fraction": measurement.ess_fraction,
                    "mean_weight": measurement.mean_weight,
                    "max_weight_share": measurement.max_weight_share,
                    "vr_estimate": measurement.vr_estimate,
                })
            obs.contribute(
                store,
                kind="ber",
                name=run_name,
                seed=perf.seed_entropy(seed),
                config=self.config,
                kpis=kpis,
                ambient=False,
            )
        return measurement

    # ------------------------------------------------------------------
    def measure_evm(
        self, n_packets: int = 5, seed: int = 0
    ) -> EvmMeasurement:
        """EVM of the received DATA constellation points.

        The paper performed EVM "only [...] while simulating a WLAN system
        which includes an ideal receiver model" because capturing the
        internal symbols of the practical receiver was difficult; our
        receiver exposes its equalized symbols, so EVM works in both
        configurations.
        """
        rng = np.random.default_rng(seed)
        total_error = 0.0
        total_symbols = 0
        for _ in range(n_packets):
            outcome = self.run_packet(rng)
            result = outcome.rx_result
            if result.data_symbols is None:
                continue
            rx = result.data_symbols.reshape(-1)
            ref = outcome.tx_symbols.reshape(-1)
            n = min(rx.size, ref.size)
            if n == 0:
                continue
            evm = error_vector_magnitude(rx[:n], ref[:n])
            total_error += evm**2 * n
            total_symbols += n
        if total_symbols == 0:
            raise RuntimeError(
                "no packets decoded; EVM measurement impossible"
            )
        return EvmMeasurement(
            evm_rms=float(np.sqrt(total_error / total_symbols)),
            n_symbols=total_symbols,
        )
