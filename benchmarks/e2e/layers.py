"""Outside-in instrumentation: counts and spans around each layer's calls.

Nothing here edits the simulator.  :class:`Instrumentation` replaces the
public entry points of each ``repro`` layer with thin wrappers, inside a
repetition process only:

* :meth:`Instrumentation.install_counters` adds the exact counts (front-end
  builds, interferer transmissions, Viterbi calls, PHY batches) and keeps
  the outermost ``repro.perf.parallel_map`` result.  It is installed for
  every run, traced or not, and costs a few microseconds per packet.
* :meth:`Instrumentation.install_spans` adds one ``obs.span`` per wrapped
  call, for the traced run only.  Spans opened in forked pool workers come
  back through the pool's own span merge, and counts through its metrics
  merge.

A ``dsp.*`` span is not opened inside an open ``channel.*``/``scenario.*``
call: interferer synthesis reuses the transmitter but belongs to the
channel, so it stays in the channel layer's self time.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List

#: Counter names in the metrics registry, and the per-packet metric each
#: one becomes.
COUNTS = {
    "e2e_rf_builds": "rf.builds_per_packet",
    "e2e_interferer_tx": "channel.interferer_tx_per_packet",
    "e2e_viterbi_calls": "dsp.viterbi_calls_per_packet",
    "e2e_phy_batches": "core.batches_per_packet",
}

#: The figure-2 stages of a built ``DoubleConversionReceiver``, named like
#: the ``rf:<stage>`` probe taps.
RF_STAGES = ("lna", "mixer1", "mixer2", "hpf", "lpf", "agc", "adc")

#: Span name -> the per-layer metric its self time is charged to.  The
#: ``block:*`` spans are the simulator's own; their self time is the
#: layer work outside every wrapped call.
LAYER_OF_SPAN = {
    "dsp.tx_bits": "dsp.tx_bits_us",
    "dsp.tx_ofdm": "dsp.tx_ofdm_us",
    "block:transmitter": "dsp.tx_ofdm_us",
    "channel.interference": "channel.interference_us",
    "channel.fading": "channel.fading_us",
    "channel.awgn": "channel.awgn_us",
    "block:decimator": "channel.decimator_us",
    "block:channel": "channel.other_us",
    "scenario.emitters": "scenario.emitters_us",
    "rf.build": "rf.build_us",
    **{f"rf.{stage}": f"rf.{stage}_us" for stage in RF_STAGES},
    "block:rf_frontend": "rf.other_us",
    "dsp.rx_sync": "dsp.rx_sync_us",
    "dsp.rx_cfo": "dsp.rx_cfo_us",
    "dsp.rx_estimate": "dsp.rx_estimate_us",
    "dsp.rx_fft": "dsp.rx_fft_us",
    "dsp.rx_equalize": "dsp.rx_equalize_us",
    "dsp.rx_signal": "dsp.rx_signal_us",
    "dsp.rx_demap": "dsp.rx_demap_us",
    "dsp.rx_deinterleave": "dsp.rx_deinterleave_us",
    "dsp.rx_viterbi": "dsp.rx_viterbi_us",
    "block:receiver": "dsp.rx_other_us",
    "core.measure_ber": "core.other_us",
    "obs.probes": "obs.probes_us",
}

#: Every per-layer time metric, in report order.
LAYER_METRICS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))

#: Names ``repro.dsp.receiver`` imports, grouped by receiver layer.
_RX_FUNCTIONS = {
    "dsp.rx_sync": ("detect_packet", "symbol_timing"),
    "dsp.rx_cfo": ("coarse_cfo_estimate", "fine_cfo_estimate", "apply_cfo"),
    "dsp.rx_estimate": (
        "estimate_channel_ls", "estimate_noise_variance",
        "smooth_channel_estimate",
    ),
    "dsp.rx_equalize": ("equalize", "equalize_mmse", "pilot_phase_correction"),
    "dsp.rx_signal": ("decode_signal_field", "decode_signal_fields"),
    "dsp.rx_deinterleave": ("deinterleave", "depuncture"),
}


class Instrumentation:
    """Wrappers around the layer entry points of one process.

    Attributes:
        regions: the ``ParallelResult`` of every outermost
            ``repro.perf.parallel_map`` call made in this process since
            the list was last cleared.
    """

    def __init__(self):
        self.regions: List = []
        self._hidden = 0  # open channel/scenario calls

    @staticmethod
    def _patch(owner, attr: str, make: Callable[[Callable], Callable]):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))

    # -- counts ---------------------------------------------------------
    def install_counters(self) -> None:
        from repro import obs, perf
        from repro.channel.interference import InterferenceScenario
        from repro.core.testbench import WlanTestbench
        from repro.dsp.transmitter import Transmitter
        from repro.dsp.viterbi import ViterbiDecoder
        from repro.rf.frontend import DoubleConversionReceiver
        from repro.scenario import Scenario

        def count(name):
            obs.get_registry().counter(name).inc()

        def counted(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    count(name)
                    return original(*args, **kwargs)
                return wrapper
            return make

        def hiding(original):
            def wrapper(*args, **kwargs):
                self._hidden += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    self._hidden -= 1
            return wrapper

        def interferer_counted(original):
            def wrapper(*args, **kwargs):
                if self._hidden:
                    count("e2e_interferer_tx")
                return original(*args, **kwargs)
            return wrapper

        def outermost(original):
            depth = 0

            def wrapper(*args, **kwargs):
                nonlocal depth
                outer = depth == 0 and not perf.in_worker()
                depth += 1
                try:
                    result = original(*args, **kwargs)
                finally:
                    depth -= 1
                if outer:
                    self.regions.append(result)
                return result
            return wrapper

        self._patch(DoubleConversionReceiver, "__init__",
                    counted("e2e_rf_builds"))
        self._patch(ViterbiDecoder, "decode_soft",
                    counted("e2e_viterbi_calls"))
        self._patch(WlanTestbench, "run_packet", counted("e2e_phy_batches"))
        self._patch(WlanTestbench, "run_packet_batch",
                    counted("e2e_phy_batches"))
        self._patch(Transmitter, "transmit", interferer_counted)
        self._patch(InterferenceScenario, "apply", hiding)
        self._patch(Scenario, "apply", hiding)
        self._patch(perf, "parallel_map", outermost)

    # -- spans ----------------------------------------------------------
    def install_spans(self) -> None:
        from repro import obs
        from repro.channel.awgn import AwgnChannel
        from repro.channel.fading import FadingChannel
        from repro.channel.interference import InterferenceScenario
        from repro.core.testbench import WlanTestbench
        from repro.dsp import receiver
        from repro.dsp.modulation import Demapper
        from repro.dsp.ofdm import OfdmDemodulator
        from repro.dsp.transmitter import Transmitter
        from repro.dsp.viterbi import ViterbiDecoder
        from repro.obs.probes import ProbeRegistry
        from repro.rf.frontend import DoubleConversionReceiver
        from repro.scenario import Scenario

        def spanned(name):
            dsp = name.startswith("dsp.")

            def make(original):
                def wrapper(*args, **kwargs):
                    if dsp and self._hidden:
                        return original(*args, **kwargs)
                    with obs.span(name):
                        return original(*args, **kwargs)
                return wrapper
            return make

        def build_with_stage_spans(original):
            def wrapper(frontend, *args, **kwargs):
                with obs.span("rf.build"):
                    original(frontend, *args, **kwargs)
                for stage in RF_STAGES:
                    block = getattr(frontend, stage)
                    block.process = spanned(f"rf.{stage}")(block.process)
            return wrapper

        targets = [
            (Transmitter, ("data_symbols", "data_symbols_batch"),
             "dsp.tx_bits"),
            (Transmitter, ("transmit", "transmit_batch"), "dsp.tx_ofdm"),
            (InterferenceScenario, ("apply",), "channel.interference"),
            (Scenario, ("apply",), "scenario.emitters"),
            (FadingChannel, ("process",), "channel.fading"),
            (AwgnChannel, ("process",), "channel.awgn"),
            (OfdmDemodulator, ("demodulate", "demodulate_batch"),
             "dsp.rx_fft"),
            (Demapper, ("demap_soft", "demap_soft_rows"), "dsp.rx_demap"),
            (ViterbiDecoder, ("decode_soft",), "dsp.rx_viterbi"),
            (WlanTestbench, ("measure_ber",), "core.measure_ber"),
            (ProbeRegistry, ("tap", "tap_mask", "tap_evm", "note_budget"),
             "obs.probes"),
        ] + [
            (receiver, names, name) for name, names in _RX_FUNCTIONS.items()
        ]
        for owner, attrs, name in targets:
            for attr in attrs:
                self._patch(owner, attr, spanned(name))
        self._patch(DoubleConversionReceiver, "__init__",
                    build_with_stage_spans)


def self_times(records) -> Dict[str, float]:
    """Seconds of self time per layer metric, summed over ``records``.

    A span's self time is its duration minus the durations of its direct
    child spans.  Spans not named in :data:`LAYER_OF_SPAN` (sweep, pool
    and task containers) are charged to no layer.
    """
    from repro.obs import SpanRecord

    spans = [r for r in records if isinstance(r, SpanRecord)]
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration_s
            )
    totals = dict.fromkeys(LAYER_METRICS, 0.0)
    for span in spans:
        layer = LAYER_OF_SPAN.get(span.name)
        if layer is not None:
            totals[layer] += span.duration_s - child_time.get(span.span_id, 0.0)
    return totals
