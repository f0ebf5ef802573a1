"""Deterministic fuzz / differential harnesses.

Two targets, both seeded so every failure is reproducible:

* the netlist hand-off (:mod:`repro.flow.netlist`): randomized valid
  configurations must survive export -> import -> export with exact
  text and configuration equality, and randomly mutated netlist text
  must either parse or raise :class:`~repro.flow.netlist.NetlistError`
  — never any other exception (no crashes, hangs or index faults);
* the PHY itself: random payloads at every 802.11a rate must survive
  a clean TX -> RX loopback bit-exactly.

The regression corpus under ``tests/data/netlist/`` freezes both the
valid round-trip cases and previously-interesting malformed inputs;
:func:`replay_corpus` re-runs all of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.flow.netlist import (
    NetlistCompiler,
    NetlistError,
    frontend_to_netlist,
    netlist_to_config,
)
from repro.rf.frontend import FrontendConfig


@dataclass
class FuzzFailure:
    """One fuzz finding."""

    kind: str
    case: str
    message: str
    snippet: str = ""


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign."""

    cases: int = 0
    parsed: int = 0
    rejected: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "FuzzReport") -> "FuzzReport":
        self.cases += other.cases
        self.parsed += other.parsed
        self.rejected += other.rejected
        self.failures.extend(other.failures)
        return self


def random_frontend_config(rng: np.random.Generator) -> FrontendConfig:
    """A random but valid :class:`FrontendConfig` for round-trip fuzzing.

    Values are drawn from rounded grids so the netlist's ``%.10g``
    formatting represents every one of them exactly — the round trip is
    then required to be lossless, not merely close.
    """

    def level(lo: float, hi: float) -> float:
        return float(np.round(rng.uniform(lo, hi), 3))

    maybe_none = lambda value: None if rng.random() < 0.3 else value
    return FrontendConfig(
        sample_rate_in=20e6 * int(rng.integers(1, 9)),
        lna_gain_db=level(0, 30),
        lna_nf_db=level(0, 10),
        lna_p1db_dbm=level(-30, 0),
        lna_model="cubic" if rng.random() < 0.5 else "rapp",
        lna_am_pm_deg=level(0, 10),
        mixer1_gain_db=level(-5, 15),
        mixer1_nf_db=level(0, 15),
        mixer1_iip3_dbm=level(-10, 25),
        image_rejection_db=(
            np.inf if rng.random() < 0.5 else level(20, 60)
        ),
        mixer2_gain_db=level(-5, 15),
        mixer2_nf_db=level(0, 15),
        mixer2_iip3_dbm=level(-10, 25),
        dc_offset_dbm=maybe_none(level(-80, -30)),
        flicker_power_dbm=maybe_none(level(-100, -50)),
        flicker_corner_hz=float(rng.choice([1e5, 5e5, 1e6, 2e6])),
        iq_amplitude_db=level(0, 1),
        iq_phase_deg=level(0, 5),
        lo_error_ppm=level(-40, 40),
        lo_phase_noise_dbc_hz=maybe_none(level(-120, -80)),
        hpf_enabled=bool(rng.random() < 0.8),
        hpf_cutoff_hz=float(rng.choice([60e3, 120e3, 240e3])),
        hpf_order=int(rng.integers(1, 4)),
        # Every grid edge sits below the 10 MHz Nyquist limit of the
        # lowest drawn sample rate, so each config builds.
        lpf_edge_hz=float(rng.choice([7e6, 8.6e6, 9.5e6])),
        lpf_order=int(rng.integers(3, 9)),
        lpf_ripple_db=float(rng.choice([0.1, 0.5, 1.0])),
        agc_target_dbm=level(-20, -6),
        adc_bits=None if rng.random() < 0.2 else int(rng.integers(6, 13)),
        adc_full_scale_dbm=level(-3, 3),
    )


def check_round_trip(config: FrontendConfig) -> Optional[str]:
    """Export -> import -> export must be lossless.

    Returns an error description, or None when the round trip holds.
    """
    text1 = frontend_to_netlist(config)
    recovered = netlist_to_config(text1)
    text2 = frontend_to_netlist(recovered)
    if text1 != text2:
        return "netlist text not idempotent across import/export"
    if netlist_to_config(text2) != recovered:
        return "re-imported configuration differs"
    return None


def fuzz_round_trip(n_cases: int = 50, seed: int = 0) -> FuzzReport:
    """Round-trip fuzz over random valid configurations."""
    rng = np.random.default_rng(seed)
    report = FuzzReport()
    for i in range(n_cases):
        report.cases += 1
        config = random_frontend_config(rng)
        try:
            error = check_round_trip(config)
        except Exception as exc:  # any exception on valid input is a bug
            report.failures.append(
                FuzzFailure(
                    kind="round_trip_crash",
                    case=f"seed={seed} case={i}",
                    message=f"{type(exc).__name__}: {exc}",
                    snippet=frontend_to_netlist(config)[:300],
                )
            )
            continue
        if error is None:
            report.parsed += 1
        else:
            report.failures.append(
                FuzzFailure(
                    kind="round_trip_mismatch",
                    case=f"seed={seed} case={i}",
                    message=error,
                    snippet=frontend_to_netlist(config)[:300],
                )
            )
    return report


#: Mutation operators applied to well-formed netlist text.
_MUTATIONS = (
    "drop_line",
    "duplicate_line",
    "truncate",
    "flip_char",
    "insert_token",
    "corrupt_value",
    "shuffle_lines",
    "strip_endmodule",
)


def mutate_netlist(text: str, rng: np.random.Generator) -> str:
    """Apply one random structural or textual mutation."""
    op = str(rng.choice(_MUTATIONS))
    lines = text.splitlines()
    if op == "drop_line" and len(lines) > 1:
        del lines[int(rng.integers(len(lines)))]
        return "\n".join(lines) + "\n"
    if op == "duplicate_line" and lines:
        i = int(rng.integers(len(lines)))
        lines.insert(i, lines[i])
        return "\n".join(lines) + "\n"
    if op == "truncate" and len(text) > 2:
        return text[: int(rng.integers(1, len(text)))]
    if op == "flip_char" and text:
        i = int(rng.integers(len(text)))
        repl = chr(int(rng.integers(32, 127)))
        return text[:i] + repl + text[i + 1 :]
    if op == "insert_token":
        i = int(rng.integers(len(lines) + 1))
        token = str(
            rng.choice(
                [
                    "garbage line without structure",
                    "  unknown_prim #(.x(1)) U1 (a, b);",
                    "  lna #() LNA_DUP (rf_in, nx);",
                    "  parameter real sample_rate_in = nonsense;",
                    "\x00\x01binary\x02",
                ]
            )
        )
        lines.insert(i, token)
        return "\n".join(lines) + "\n"
    if op == "corrupt_value":
        return text.replace("(", "((", 1)
    if op == "shuffle_lines" and len(lines) > 2:
        perm = rng.permutation(len(lines))
        return "\n".join(lines[i] for i in perm) + "\n"
    if op == "strip_endmodule":
        return text.replace("endmodule", "")
    return text + "//"


def fuzz_parser(n_cases: int = 200, seed: int = 0) -> FuzzReport:
    """Mutation fuzz: the parser must reject cleanly, never crash.

    Each case mutates the default netlist one to three times and feeds
    it to :func:`netlist_to_config` and the :class:`NetlistCompiler`.
    Accepting the input is fine (some mutations are harmless); any
    exception other than :class:`NetlistError` is recorded as a crash.
    """
    rng = np.random.default_rng(seed)
    base = frontend_to_netlist(FrontendConfig())
    report = FuzzReport()
    for i in range(n_cases):
        report.cases += 1
        text = base
        for _ in range(int(rng.integers(1, 4))):
            text = mutate_netlist(text, rng)
        try:
            NetlistCompiler(target="ams").compile(text)
            report.parsed += 1
        except NetlistError:
            report.rejected += 1
        except Exception as exc:
            report.failures.append(
                FuzzFailure(
                    kind="parser_crash",
                    case=f"seed={seed} case={i}",
                    message=f"{type(exc).__name__}: {exc}",
                    snippet=text[:300],
                )
            )
    return report


def replay_corpus(directory: str) -> FuzzReport:
    """Replay the committed regression corpus.

    ``valid_*.net`` files must round-trip losslessly; ``malformed_*.net``
    files must parse or fail with :class:`NetlistError` only.
    """
    report = FuzzReport()
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".net"):
            continue
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        report.cases += 1
        if name.startswith("valid_"):
            try:
                config = netlist_to_config(text)
                error = check_round_trip(config)
            except Exception as exc:
                report.failures.append(
                    FuzzFailure(
                        kind="corpus_valid_crash",
                        case=name,
                        message=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            if error is None:
                report.parsed += 1
            else:
                report.failures.append(
                    FuzzFailure(
                        kind="corpus_round_trip", case=name, message=error
                    )
                )
        else:
            try:
                NetlistCompiler(target="ams").compile(text)
                report.parsed += 1
            except NetlistError:
                report.rejected += 1
            except Exception as exc:
                report.failures.append(
                    FuzzFailure(
                        kind="corpus_crash",
                        case=name,
                        message=f"{type(exc).__name__}: {exc}",
                    )
                )
    return report


@dataclass
class LoopbackResult:
    """One TX -> RX loopback trial."""

    rate_mbps: int
    psdu_bytes: int
    ok: bool
    failure: str = ""


def loopback_trial(
    rate_mbps: int, psdu_bytes: int, seed: int = 0
) -> LoopbackResult:
    """Random payload through a clean TX -> RX chain, must decode exactly.

    Uses the real (non-genie) receiver over a noiseless channel with
    guard padding, so synchronization, SIGNAL decoding and the full
    decode path are all on the hook.
    """
    from repro.dsp.receiver import Receiver, RxConfig
    from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu

    rng = np.random.default_rng(seed)
    psdu = random_psdu(psdu_bytes, rng)
    tx = Transmitter(TxConfig(rate_mbps=rate_mbps))
    samples = tx.transmit(psdu)
    padded = np.concatenate(
        [np.zeros(120, complex), samples, np.zeros(120, complex)]
    )
    result = Receiver(RxConfig()).receive(padded)
    if not result.success:
        return LoopbackResult(
            rate_mbps, psdu_bytes, False, f"decode failed: {result.failure}"
        )
    if result.psdu.size != psdu.size or not np.array_equal(result.psdu, psdu):
        return LoopbackResult(rate_mbps, psdu_bytes, False, "payload mismatch")
    return LoopbackResult(rate_mbps, psdu_bytes, True)


def fuzz_loopback(
    trials_per_rate: int = 2, seed: int = 0, max_psdu_bytes: int = 120
) -> List[LoopbackResult]:
    """Random-payload loopback across all eight 802.11a rates."""
    from repro.dsp.params import RATES

    rng = np.random.default_rng(seed)
    results = []
    for rate in sorted(RATES):
        for t in range(trials_per_rate):
            n = int(rng.integers(1, max_psdu_bytes + 1))
            results.append(
                loopback_trial(rate, n, seed=int(rng.integers(2**31)))
            )
    return results
