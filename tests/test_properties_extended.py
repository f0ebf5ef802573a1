"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.mac import MacFrame, parse_mpdu
from repro.flow.netlist import (
    NetlistError,
    frontend_to_netlist,
    netlist_to_config,
    parse_netlist,
)
from repro.rf.cascade import (
    StageSpec,
    cascade_gain_db,
    cascade_iip3_dbm,
    friis_noise_figure_db,
)
from repro.rf.frontend import FrontendConfig

mac_bodies = st.binary(min_size=0, max_size=256)
addresses = st.binary(min_size=6, max_size=6)


class TestMacProperties:
    @given(
        body=mac_bodies,
        dst=addresses,
        src=addresses,
        seq=st.integers(0, 4095),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, body, dst, src, seq):
        frame = MacFrame(
            destination=dst, source=src, sequence=seq, body=body
        )
        parsed = parse_mpdu(frame.to_bytes())
        assert parsed.fcs_ok
        assert parsed.frame.body == body
        assert parsed.frame.destination == dst
        assert parsed.frame.source == src
        assert parsed.frame.sequence == seq

    @given(
        body=st.binary(min_size=1, max_size=64),
        bit=st.integers(0, 7),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_bit_flip_always_caught(self, body, bit, seed):
        mpdu = MacFrame(body=body).to_bytes()
        rng = np.random.default_rng(seed)
        pos = int(rng.integers(0, mpdu.size))
        corrupted = mpdu.copy()
        corrupted[pos] ^= 1 << bit
        assert not parse_mpdu(corrupted).fcs_ok


class TestBudgetProperties:
    @given(
        gains=st.lists(st.floats(-5.0, 25.0), min_size=1, max_size=5),
        nfs=st.lists(st.floats(0.0, 15.0), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_cascade_nf_at_least_first_stage(self, gains, nfs):
        n = min(len(gains), len(nfs))
        stages = [
            StageSpec(f"s{i}", gains[i], nfs[i]) for i in range(n)
        ]
        assert friis_noise_figure_db(stages) >= nfs[0] - 1e-9

    @given(
        gains=st.lists(st.floats(-5.0, 25.0), min_size=2, max_size=5),
        nfs=st.lists(st.floats(0.0, 15.0), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_cumulative_nf_monotone(self, gains, nfs):
        n = min(len(gains), len(nfs))
        stages = [StageSpec(f"s{i}", gains[i], nfs[i]) for i in range(n)]
        nf_values = [
            friis_noise_figure_db(stages[:k]) for k in range(1, n + 1)
        ]
        for earlier, later in zip(nf_values, nf_values[1:]):
            assert later >= earlier - 1e-9

    @given(
        gain=st.floats(-10.0, 30.0),
        iip3=st.floats(-30.0, 30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_stage_identity(self, gain, iip3):
        stages = [StageSpec("x", gain, 0.0, iip3)]
        assert cascade_iip3_dbm(stages) == pytest.approx(iip3, abs=1e-6)

    @given(
        gains=st.lists(st.floats(-5.0, 25.0), min_size=1, max_size=5),
        nfs=st.lists(st.floats(0.0, 15.0), min_size=1, max_size=5),
        iip3s=st.lists(
            st.one_of(st.floats(-30.0, 30.0), st.just(np.inf)),
            min_size=1, max_size=5,
        ),
        position=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_ideal_stage_insertion_is_neutral(
        self, gains, nfs, iip3s, position
    ):
        """A noiseless, linear, zero-gain stage changes no cascade figure.

        This is why a mixer's nonlinearity may be budgeted as its own
        zero-gain stage after the conversion gain.
        """
        n = min(len(gains), len(nfs), len(iip3s))
        stages = [
            StageSpec(f"s{i}", gains[i], nfs[i], iip3s[i]) for i in range(n)
        ]
        k = min(position, n)
        padded = stages[:k] + [StageSpec("ideal", 0.0)] + stages[k:]
        assert cascade_gain_db(padded) == cascade_gain_db(stages)
        assert friis_noise_figure_db(padded) == friis_noise_figure_db(stages)
        assert cascade_iip3_dbm(padded) == cascade_iip3_dbm(stages)


class TestNetlistFuzz:
    @given(
        line_index=st.integers(2, 9),
        mutation=st.sampled_from(
            ["truncate", "rename", "garbage_value", "drop_paren"]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_mutations_never_crash(self, line_index, mutation):
        """Mutated netlists either parse or raise NetlistError — never
        anything else."""
        lines = frontend_to_netlist(FrontendConfig()).splitlines()
        if line_index >= len(lines):
            line_index = len(lines) - 2
        line = lines[line_index]
        if mutation == "truncate":
            lines[line_index] = line[: len(line) // 2]
        elif mutation == "rename":
            lines[line_index] = line.replace("gain_db", "gian_db", 1)
        elif mutation == "garbage_value":
            lines[line_index] = line.replace("(16)", "(#!?)", 1)
        elif mutation == "drop_paren":
            lines[line_index] = line.replace(")", "", 1)
        text = "\n".join(lines)
        try:
            netlist_to_config(text)
        except NetlistError:
            pass  # the expected failure mode

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_random_binary_never_crashes_parser(self, seed):
        rng = np.random.default_rng(seed)
        junk = bytes(rng.integers(32, 127, size=200, dtype=np.uint8)).decode()
        try:
            parse_netlist("module x;\n" + junk + "\nendmodule")
        except NetlistError:
            pass


class TestStreamProperties:
    @given(
        n_packets=st.integers(1, 4),
        gap=st.integers(120, 500),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_all_clean_packets_recovered(self, n_packets, gap, seed):
        from repro.dsp.stream import StreamReceiver
        from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu

        rng = np.random.default_rng(seed)
        psdus = [random_psdu(40, rng) for _ in range(n_packets)]
        pieces = [np.zeros(gap, complex)]
        for psdu in psdus:
            pieces.append(
                Transmitter(TxConfig(rate_mbps=12)).transmit(psdu)
            )
            pieces.append(np.zeros(gap, complex))
        samples = np.concatenate(pieces)
        noise = 10 ** (-30 / 20) / np.sqrt(2)
        samples = samples + noise * (
            rng.standard_normal(samples.size)
            + 1j * rng.standard_normal(samples.size)
        )
        report = StreamReceiver().receive_stream(samples)
        assert len(report.packets) == n_packets
        for sent, got in zip(psdus, report.psdus):
            assert np.array_equal(sent, got)
