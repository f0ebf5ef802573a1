"""Dataflow block library (the SPW rflib / demo-system stand-in).

These blocks wrap the DSP, RF and channel models so the paper's figure-3
schematic — the double-conversion receiver inserted in front of the DSP
receiver of the IEEE 802.11a demo system — can be assembled as an actual
block diagram and executed by :class:`repro.flow.dataflow.DataflowEngine`.

The schematic operates per packet: each engine run transmits one PPDU
through channel, RF front end and receiver, and the BER meter accumulates
bit errors across runs (the harness re-runs the engine with fresh seeds,
exactly like a simulation-manager batch).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.channel.awgn import AwgnChannel
from repro.dsp.params import SAMPLE_RATE
from repro.dsp.receiver import Receiver, RxConfig
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.flow.dataflow import Block, SimulationContext
from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
from repro.rf.signal import Signal, db_to_amplitude, dbm_to_watts
from repro.scenario.emitters import WlanEmitter, active_power_watts


class TransmitterBlock(Block):
    """802.11a packet source.

    Outputs:
        out: the PPDU waveform (complex, oversampled), with leading and
            trailing guard gaps.
        bits: the transmitted PSDU payload bits (reference for BER).
    """

    inputs = ()
    outputs = ("out", "bits")
    supports_interpreted = False

    def __init__(
        self,
        rate_mbps: int = 24,
        psdu_bytes: int = 100,
        oversample: int = 4,
        guard_samples: int = 600,
    ):
        self.rate_mbps = rate_mbps
        self.psdu_bytes = psdu_bytes
        self.oversample = oversample
        self.guard_samples = guard_samples

    def work(self, inputs, ctx: SimulationContext):
        tx = Transmitter(
            TxConfig(rate_mbps=self.rate_mbps, oversample=self.oversample)
        )
        psdu = random_psdu(self.psdu_bytes, ctx.rng)
        wave = tx.transmit(psdu)
        guard = np.zeros(self.guard_samples, dtype=complex)
        out = np.concatenate([guard, wave, guard])
        return {
            "out": out,
            "bits": np.unpackbits(psdu, bitorder="little"),
        }


class ScaleBlock(Block):
    """Constant multiplier (the paper's RF/DSP level adaptation).

    Either applies a fixed ``gain_db`` or, when ``target_dbm`` is set,
    rescales the frame to that average power.
    """

    inputs = ("in",)
    outputs = ("out",)

    def __init__(
        self, gain_db: float = 0.0, target_dbm: Optional[float] = None
    ):
        self.gain_db = gain_db
        self.target_dbm = target_dbm

    def work(self, inputs, ctx):
        x = inputs["in"]
        if self.target_dbm is not None:
            power = np.mean(np.abs(x) ** 2) if x.size else 0.0
            if power > 0:
                x = x * np.sqrt(dbm_to_watts(self.target_dbm) / power)
        else:
            x = x * db_to_amplitude(self.gain_db)
        return {"out": x}


class AdderBlock(Block):
    """Sum of two streams (shorter input zero-padded)."""

    inputs = ("a", "b")
    outputs = ("out",)

    def work(self, inputs, ctx):
        a, b = inputs["a"], inputs["b"]
        n = max(a.size, b.size)
        out = np.zeros(n, dtype=complex)
        out[: a.size] = a
        out[: b.size] += b
        return {"out": out}


class AdjacentChannelBlock(Block):
    """Adds an interfering 802.11a channel to the stream.

    Parameters mirror :class:`repro.scenario.WlanEmitter` (on-air power
    convention); set ``enabled`` False for the interferer-free reference
    runs of figure 6.  The emitter draws from the context's shared rng.
    """

    inputs = ("in",)
    outputs = ("out",)
    supports_interpreted = False

    def __init__(
        self,
        enabled: bool = True,
        offset_channels: int = 1,
        excess_db: float = 16.0,
        oversample: int = 4,
    ):
        self.enabled = enabled
        self.offset_channels = offset_channels
        self.excess_db = excess_db
        self.oversample = oversample

    def work(self, inputs, ctx):
        x = inputs["in"]
        if not self.enabled or x.size == 0:
            return {"out": x}
        emitter = WlanEmitter(
            offset_channels=self.offset_channels,
            excess_db=self.excess_db,
        )
        interferer = emitter.generate(
            x.size, SAMPLE_RATE * self.oversample, active_power_watts(x),
            ctx.rng,
        )
        return {"out": x + interferer.samples[: x.size]}


class AwgnChannelBlock(Block):
    """AWGN channel block (normalized SNR and/or thermal floor)."""

    inputs = ("in",)
    outputs = ("out",)

    def __init__(
        self,
        snr_db: Optional[float] = None,
        include_thermal_floor: bool = False,
        oversample: int = 4,
    ):
        self.snr_db = snr_db
        self.include_thermal_floor = include_thermal_floor
        self.oversample = oversample

    def work(self, inputs, ctx):
        x = inputs["in"]
        channel = AwgnChannel(
            snr_db=self.snr_db,
            include_thermal_floor=self.include_thermal_floor,
        )
        sig = Signal(x, SAMPLE_RATE * self.oversample)
        return {"out": channel.process(sig, ctx.rng).samples}


class RfFrontendBlock(Block):
    """The double-conversion receiver as a dataflow block.

    The front-end configuration fields are exposed as block parameters
    (``set_param("lna_p1db_dbm", -20)`` etc.), so simulation-manager
    sweeps address them directly.
    """

    inputs = ("in",)
    outputs = ("out",)
    supports_interpreted = False

    def __init__(self, config: FrontendConfig = None):
        self.config = config if config is not None else FrontendConfig()

    def set_param(self, name: str, value):
        from dataclasses import replace

        if hasattr(self.config, name):
            self.config = replace(self.config, **{name: value})
        else:
            super().set_param(name, value)

    def get_param(self, name: str):
        if hasattr(self.config, name):
            return getattr(self.config, name)
        return super().get_param(name)

    def work(self, inputs, ctx):
        frontend = DoubleConversionReceiver(self.config)
        sig = Signal(
            inputs["in"],
            self.config.sample_rate_in,
            self.config.carrier_frequency,
        )
        out = frontend.process(sig, ctx.rng)
        return {"out": out.samples}


class ReceiverBlock(Block):
    """The DSP receiver: decodes one packet, outputs payload bits.

    Outputs:
        bits: decoded PSDU bits; empty when reception failed.
    """

    inputs = ("in",)
    outputs = ("bits",)
    supports_interpreted = False

    def __init__(self, rx_config: RxConfig = None):
        self.rx_config = rx_config if rx_config is not None else RxConfig()
        self.last_result = None

    def work(self, inputs, ctx):
        receiver = Receiver(self.rx_config)
        result = receiver.receive(inputs["in"])
        self.last_result = result
        if not result.success:
            return {"bits": np.zeros(0, dtype=np.uint8)}
        return {"bits": np.unpackbits(result.psdu, bitorder="little")}


class BerMeterBlock(Block):
    """Accumulating bit-error-rate meter.

    Compares reference and received bit streams per run.  A failed
    reception (empty received stream) is counted as half the bits in
    error, matching the asymptotic BER of guessing — this is why the
    paper's BER plots saturate toward 0.5.

    Outputs:
        ber: single-element array with the cumulative BER.
    """

    inputs = ("ref", "rx")
    outputs = ("ber",)

    def __init__(self):
        self.reset()

    def reset_counts(self):
        """Clear the accumulated error counters."""
        self.bit_errors = 0.0
        self.bits_total = 0
        self.packets = 0
        self.packets_lost = 0

    def reset(self):
        # Engine reset happens per run; the meter must survive across runs,
        # so state is only initialized once (see reset_counts()).
        if not hasattr(self, "bits_total"):
            self.reset_counts()

    def work(self, inputs, ctx):
        ref, rx = inputs["ref"], inputs["rx"]
        self.packets += 1
        self.bits_total += ref.size
        if rx.size != ref.size:
            self.packets_lost += 1
            self.bit_errors += ref.size / 2.0
        else:
            self.bit_errors += int(np.count_nonzero(ref != rx))
        ber = self.bit_errors / self.bits_total if self.bits_total else 0.0
        return {"ber": np.array([ber])}


class IirFilterBlock(Block):
    """A streaming IIR filter with persistent state across frames.

    Demonstrates genuinely stateful interpreted-mode execution (the
    engine-mode ablation bench compares it against compiled mode).
    """

    inputs = ("in",)
    outputs = ("out",)

    def __init__(self, sos: np.ndarray):
        from scipy.signal import sosfilt_zi

        self.sos = np.asarray(sos)
        self._zi_template = sosfilt_zi(self.sos)
        self._zi = None

    def reset(self):
        self._zi = None

    def work(self, inputs, ctx):
        from scipy.signal import sosfilt

        x = inputs["in"]
        if self._zi is None:
            self._zi = np.zeros(
                (self.sos.shape[0], 2), dtype=complex
            )
        y, self._zi = sosfilt(self.sos, x, zi=self._zi)
        return {"out": y}


def build_figure3_schematic(
    rate_mbps: int = 24,
    psdu_bytes: int = 100,
    input_level_dbm: float = -50.0,
    adjacent_enabled: bool = False,
    frontend_config: Optional[FrontendConfig] = None,
):
    """Assemble the paper's figure-3 schematic.

    Transmitter -> level scale -> (adjacent channel) -> AWGN (thermal
    floor) -> double-conversion receiver -> output scale -> DSP receiver ->
    BER meter; probes on the RF input and output.

    Returns:
        ``(schematic, ber_meter)`` — the meter accumulates across runs.
    """
    from repro.flow.dataflow import Schematic

    config = frontend_config if frontend_config is not None else FrontendConfig()
    oversample = config.decimation
    sch = Schematic("figure3_wlan_rf_receiver")
    sch.add(
        "tx",
        TransmitterBlock(
            rate_mbps=rate_mbps, psdu_bytes=psdu_bytes, oversample=oversample
        ),
    )
    sch.add("level_in", ScaleBlock(target_dbm=input_level_dbm))
    sch.add(
        "adjacent",
        AdjacentChannelBlock(enabled=adjacent_enabled, oversample=oversample),
    )
    sch.add(
        "antenna",
        AwgnChannelBlock(include_thermal_floor=True, oversample=oversample),
    )
    sch.add("rf_frontend", RfFrontendBlock(config))
    sch.add("level_out", ScaleBlock(target_dbm=0.0))
    sch.add("rx", ReceiverBlock())
    meter = sch.add("ber", BerMeterBlock())

    sch.connect("tx.out", "level_in.in")
    sch.connect("level_in.out", "adjacent.in")
    sch.connect("adjacent.out", "antenna.in")
    sch.connect("antenna.out", "rf_frontend.in")
    sch.connect("rf_frontend.out", "level_out.in")
    sch.connect("level_out.out", "rx.in")
    sch.connect("tx.bits", "ber.ref")
    sch.connect("rx.bits", "ber.rx")
    sch.probe("antenna.out")
    sch.probe("rf_frontend.out")
    return sch, meter
