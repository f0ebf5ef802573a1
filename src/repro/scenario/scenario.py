"""Declarative multi-emitter scenarios ("as many as you can imagine").

A :class:`Scenario` composes an arbitrary set of asynchronous emitters
(:mod:`repro.scenario.emitters`) and an optional multipath channel
(:class:`repro.channel.fading.FadingChannel`, block-static or
Jakes-Doppler time-varying) into one named RF environment the test
bench applies between the transmitter and the AWGN channel.

Scenarios are plain data: :meth:`Scenario.from_config` builds one from
a nested dict (or a JSON file via :meth:`Scenario.from_json`), and
:meth:`Scenario.to_config` round-trips it back, so an environment is a
versionable artifact the run store snapshots into every manifest::

    scenario = Scenario.from_config({
        "name": "cafe",
        "emitters": [
            {"type": "wlan", "offset_channels": 1, "excess_db": 16.0},
            {"type": "bluetooth", "excess_db": -3.0, "slot_s": 40e-6},
            {"type": "microwave", "excess_db": 3.0, "period_s": 200e-6},
        ],
        "fading": {"rms_delay_spread_s": 50e-9, "max_doppler_hz": 30.0},
    })
    config = TestbenchConfig(snr_db=20.0, scenario=scenario)

Determinism: emitter ``i`` draws from its own stream forked off a
snapshot of the packet generator's state
(:func:`repro.channel.streams.fork_stream`, scheme ``emitter-fork-v1``)
— the wanted path's draws are bit-identical with zero or ten emitters
configured, and serial / ``--jobs N`` / ``--batch-size N`` runs of a
scenario sweep stay bit-identical like every other measurement.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.channel.fading import FadingChannel
from repro.channel.streams import fork_stream
from repro.rf.signal import Signal
from repro.scenario.emitters import (
    BluetoothFhEmitter,
    MicrowaveOvenEmitter,
    WlanEmitter,
    reference_power_watts,
)

__all__ = ["EMITTER_TYPES", "PRESETS", "Scenario", "preset_names"]

#: Config ``type`` tag -> emitter class.
EMITTER_TYPES = {
    cls.kind: cls
    for cls in (WlanEmitter, BluetoothFhEmitter, MicrowaveOvenEmitter)
}

#: Named scenario configs (plain dicts, buildable via ``from_config``).
#: The first two are the paper's figure-6 operating points; the rest go
#: beyond the paper along the ROADMAP's scenario-diversity axis.  The
#: Bluetooth/microwave presets shrink the slot/mains time scales so a
#: single WLAN packet window (~100-300 us) sees several hops and on/off
#: transitions.
PRESETS: Dict[str, Dict[str, Any]] = {
    "adjacent-16db": {
        "name": "adjacent-16db",
        "emitters": [
            {"type": "wlan", "offset_channels": 1, "excess_db": 16.0},
        ],
    },
    "non-adjacent-32db": {
        "name": "non-adjacent-32db",
        "emitters": [
            {"type": "wlan", "offset_channels": 2, "excess_db": 32.0},
        ],
    },
    "co-channel": {
        "name": "co-channel",
        "emitters": [
            {"type": "wlan", "offset_channels": 0, "excess_db": -6.0},
        ],
    },
    "bluetooth-hop": {
        "name": "bluetooth-hop",
        "emitters": [
            {
                "type": "bluetooth",
                "excess_db": -3.0,
                "slot_s": 40e-6,
                "burst_s": 25e-6,
                "duty": 0.8,
            },
        ],
    },
    "microwave-oven": {
        "name": "microwave-oven",
        "emitters": [
            {
                "type": "microwave",
                "excess_db": 3.0,
                "period_s": 200e-6,
                "duty": 0.5,
            },
        ],
    },
    "indoor-fading": {
        "name": "indoor-fading",
        "fading": {"rms_delay_spread_s": 50e-9},
    },
    "hostile-coexistence": {
        "name": "hostile-coexistence",
        "emitters": [
            {"type": "wlan", "offset_channels": 1, "excess_db": 16.0},
            {
                "type": "bluetooth",
                "excess_db": -3.0,
                "slot_s": 40e-6,
                "burst_s": 25e-6,
                "duty": 0.8,
            },
            {
                "type": "microwave",
                "excess_db": 3.0,
                "period_s": 200e-6,
                "duty": 0.5,
            },
        ],
        "fading": {"rms_delay_spread_s": 50e-9, "max_doppler_hz": 30.0},
    },
}


def preset_names() -> List[str]:
    """Names of the built-in scenario presets."""
    return sorted(PRESETS)


def _build_emitter(config: Dict[str, Any]):
    """Instantiate one emitter from its config dict (``type`` + fields)."""
    config = dict(config)
    kind = config.pop("type", None)
    if kind not in EMITTER_TYPES:
        raise ValueError(
            f"unknown emitter type {kind!r}; "
            f"choose from {', '.join(sorted(EMITTER_TYPES))}"
        )
    cls = EMITTER_TYPES[kind]
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(config) - valid)
    if unknown:
        raise ValueError(
            f"unknown {kind!r} emitter keys {unknown}; "
            f"valid keys: {', '.join(sorted(valid))}"
        )
    return cls(**config)


@dataclass
class Scenario:
    """A named RF environment: emitters to IQ-mix plus optional multipath.

    Attributes:
        name: scenario identifier (shows up in run names/manifests).
        emitters: emitter instances applied in order (each with its own
            forked stream — order only affects the floating-point sum).
        fading: optional multipath channel the test bench applies after
            the emitters (the bench's only multipath setting).
    """

    name: str = "custom"
    emitters: List[Any] = field(default_factory=list)
    fading: Optional[FadingChannel] = None

    # -- declarative construction --------------------------------------
    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "Scenario":
        """Build a scenario from a plain-dict config (see module doc)."""
        config = dict(config)
        name = str(config.pop("name", "custom"))
        emitters = [
            _build_emitter(e) for e in config.pop("emitters", [])
        ]
        fading_config = config.pop("fading", None)
        fading = None
        if fading_config is not None:
            valid = {f.name for f in dataclasses.fields(FadingChannel)}
            unknown = sorted(set(fading_config) - valid)
            if unknown:
                raise ValueError(
                    f"unknown fading keys {unknown}; "
                    f"valid keys: {', '.join(sorted(valid))}"
                )
            fading = FadingChannel(**fading_config)
        if config:
            raise ValueError(
                f"unknown scenario keys {sorted(config)}; "
                "valid keys: name, emitters, fading"
            )
        return cls(name=name, emitters=emitters, fading=fading)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Build a scenario from a JSON document (the config as text)."""
        return cls.from_config(json.loads(text))

    @classmethod
    def preset(cls, name: str) -> "Scenario":
        """Build one of the built-in presets by name."""
        if name not in PRESETS:
            raise ValueError(
                f"unknown scenario preset {name!r}; "
                f"choose from {', '.join(preset_names())}"
            )
        return cls.from_config(PRESETS[name])

    def to_config(self) -> Dict[str, Any]:
        """The scenario as a plain-dict config (``from_config`` inverse)."""
        config: Dict[str, Any] = {"name": self.name}
        if self.emitters:
            config["emitters"] = [
                {"type": e.kind, **dataclasses.asdict(e)}
                for e in self.emitters
            ]
        if self.fading is not None:
            config["fading"] = dataclasses.asdict(self.fading)
        return config

    # -- bench integration ---------------------------------------------
    def required_oversample(self, base_rate_hz: float = 20e6) -> int:
        """Smallest even oversampling factor representing every emitter.

        ``2 * ceil(halfband / base_rate)`` per emitter — for an 802.11a
        emitter ``k`` channels out this is the paper's ``2 * (|k| + 1)``
        ("the baseband signal was over-sampled to fulfill the sampling
        theorem").  This is the bench's only oversampling rule without
        an RF front end.
        """
        if not self.emitters:
            return 1
        return max(
            2 * int(np.ceil(e.required_halfband_hz / base_rate_hz))
            for e in self.emitters
        )

    def max_halfband_hz(self) -> float:
        """Widest one-sided emitter bandwidth (0.0 with no emitters)."""
        if not self.emitters:
            return 0.0
        return max(float(e.required_halfband_hz) for e in self.emitters)

    @property
    def is_trivial(self) -> bool:
        """True when the scenario perturbs nothing (no emitters/fading)."""
        return not self.emitters and self.fading is None

    def apply(self, wanted: Signal, rng: np.random.Generator) -> Signal:
        """IQ-mix every emitter onto the wanted waveform.

        Emitter ``i`` draws from its own stream forked off a snapshot
        of ``rng``'s state (``emitter-fork-v1``); ``rng`` itself is
        never advanced.  When the ambient probe registry is enabled,
        each emitter's waveform is tapped as stage ``emitter:<label>``
        so per-emitter power lands in the budget waterfall and PSD
        views — taps never touch the samples or any stream, so the
        mixed waveform is bit-identical with probes on or off.

        This is the only emitter-mixing loop: the paper's
        :class:`~repro.channel.interference.InterferenceScenario` cases
        run through it too.  (Fading is *not* applied here: the bench
        runs ``fading`` in the channel block, after the emitters.)
        """
        if not self.emitters:
            return wanted
        from repro import obs

        probes = obs.get_probes()
        out = wanted.samples.copy()
        references = {
            convention: reference_power_watts(wanted.samples, convention)
            for convention in {e.power_convention for e in self.emitters}
        }
        for index, emitter in enumerate(self.emitters):
            interferer = emitter.generate(
                out.size,
                wanted.sample_rate,
                references[emitter.power_convention],
                fork_stream(rng, index),
            )
            mixed = interferer.samples[: out.size]
            if probes.enabled:
                probes.tap(
                    f"emitter:{emitter.label}", mixed, wanted.sample_rate
                )
            out += mixed
        return wanted.with_samples(out)

    def describe(self) -> str:
        """One line per emitter/channel for CLI output."""
        lines = [f"scenario '{self.name}':"]
        for e in self.emitters:
            lines.append(
                f"  emitter {e.label}: {e.kind}, "
                f"{e.excess_db:+.1f} dB ({e.power_convention} power)"
            )
        if self.fading is not None:
            doppler = (
                f", Doppler {self.fading.max_doppler_hz:g} Hz"
                if self.fading.max_doppler_hz > 0 else ", block-static"
            )
            lines.append(
                f"  fading: {self.fading.rms_delay_spread_s * 1e9:.0f} ns "
                f"RMS delay spread{doppler}"
            )
        if self.is_trivial:
            lines.append("  (no emitters, no fading)")
        return "\n".join(lines)
