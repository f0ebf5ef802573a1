"""Tests for the Viterbi decoder (repro.dsp.viterbi)."""

import numpy as np
import pytest

from repro.dsp.convcode import ConvolutionalEncoder, depuncture, puncture
from repro.dsp.viterbi import _TRACEBACK_ROW_CUTOVER, ViterbiDecoder


def _encode_terminated(bits):
    bits = np.concatenate([bits, np.zeros(6, dtype=np.uint8)])
    return bits, ConvolutionalEncoder().encode(bits)


class TestHardDecoding:
    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, 200, dtype=np.uint8)
        bits, coded = _encode_terminated(data)
        decoded = ViterbiDecoder().decode_hard(coded)
        assert np.array_equal(decoded, bits)

    def test_corrects_isolated_errors(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, 300, dtype=np.uint8)
        bits, coded = _encode_terminated(data)
        corrupted = coded.copy()
        # Flip well-separated bits (free distance 10 of the K=7 code).
        for pos in (10, 100, 250, 400, 550):
            corrupted[pos] ^= 1
        decoded = ViterbiDecoder().decode_hard(corrupted)
        assert np.array_equal(decoded, bits)

    def test_burst_beyond_capability_fails(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, 100, dtype=np.uint8)
        bits, coded = _encode_terminated(data)
        corrupted = coded.copy()
        corrupted[20:40] ^= 1  # 20-bit burst
        decoded = ViterbiDecoder().decode_hard(corrupted)
        assert not np.array_equal(decoded, bits)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            ViterbiDecoder().decode_hard(np.zeros(7))


class TestSoftDecoding:
    def test_soft_roundtrip(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, 150, dtype=np.uint8)
        bits, coded = _encode_terminated(data)
        llr = (1.0 - 2.0 * coded) * 5.0
        decoded = ViterbiDecoder().decode_soft(llr)
        assert np.array_equal(decoded, bits)

    def test_soft_beats_hard_with_noise(self):
        rng = np.random.default_rng(4)
        n_trials = 8
        soft_errors = 0
        hard_errors = 0
        for t in range(n_trials):
            data = rng.integers(0, 2, 200, dtype=np.uint8)
            bits, coded = _encode_terminated(data)
            tx = 1.0 - 2.0 * coded
            rx = tx + rng.normal(scale=0.85, size=tx.size)
            soft = ViterbiDecoder().decode_soft(2.0 * rx)
            hard = ViterbiDecoder().decode_hard((rx < 0).astype(np.uint8))
            soft_errors += int((soft != bits).sum())
            hard_errors += int((hard != bits).sum())
        assert soft_errors <= hard_errors

    @pytest.mark.parametrize("rate", [(2, 3), (3, 4)])
    def test_punctured_roundtrip(self, rate):
        rng = np.random.default_rng(5)
        n = 120 if rate == (2, 3) else 120
        data = rng.integers(0, 2, n, dtype=np.uint8)
        bits, coded = _encode_terminated(data)
        # Trim to a multiple of the puncture period.
        period = 4 if rate == (2, 3) else 6
        usable = coded.size - coded.size % period
        coded = coded[:usable]
        kept = puncture(coded, rate)
        llr = depuncture((1.0 - 2.0 * kept) * 4.0, rate)
        decoded = ViterbiDecoder(terminated=False).decode_soft(llr)
        assert np.array_equal(decoded, bits[: decoded.size])

    def test_erasures_only_decodes_something(self):
        # All-zero LLRs carry no information; decoding must not crash and
        # must return a valid bit array.
        decoded = ViterbiDecoder(terminated=False).decode_soft(np.zeros(100))
        assert decoded.size == 50
        assert set(np.unique(decoded)) <= {0, 1}


class TestTermination:
    def test_unterminated_tail_needs_best_state(self):
        rng = np.random.default_rng(6)
        data = rng.integers(0, 2, 64, dtype=np.uint8)  # no tail bits
        coded = ConvolutionalEncoder().encode(data)
        llr = (1.0 - 2.0 * coded) * 3.0
        decoded = ViterbiDecoder(terminated=False).decode_soft(llr)
        assert np.array_equal(decoded, data)

    def test_terminated_flag_wrong_degrades_tail(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 2, 64, dtype=np.uint8)
        data[-1] = 1  # ensure a non-zero final state
        coded = ConvolutionalEncoder().encode(data)
        llr = (1.0 - 2.0 * coded) * 3.0
        decoded = ViterbiDecoder(terminated=True).decode_soft(llr)
        # Forcing state 0 at the end corrupts at least the final bit.
        assert not np.array_equal(decoded, data)


def _reference_decode_soft(llr, terminated=True):
    """The pre-vectorization ACS loop, kept verbatim as a bit-exactness
    oracle for the hoisted branch-metric computation."""
    from repro.dsp import viterbi as vt

    llr = np.asarray(llr, dtype=float)
    n_steps = llr.size // 2
    la = llr[0::2]
    lb = llr[1::2]
    metrics = np.full(vt._N_STATES, -np.inf)
    metrics[0] = 0.0
    decisions = np.empty((n_steps, vt._N_STATES), dtype=np.uint8)
    sign_a = 1.0 - 2.0 * vt._PREV_OUT_A
    sign_b = 1.0 - 2.0 * vt._PREV_OUT_B
    prev = vt._PREV_STATE
    for t in range(n_steps):
        branch = sign_a * la[t] + sign_b * lb[t]
        cand = metrics[prev] + branch
        best = np.argmax(cand, axis=1)
        decisions[t] = best
        metrics = cand[np.arange(vt._N_STATES), best]
    state = 0 if terminated else int(np.argmax(metrics))
    bits = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        slot = decisions[t, state]
        bits[t] = vt._PREV_BIT[state, slot]
        state = vt._PREV_STATE[state, slot]
    return bits


class TestVectorizedBranchMetrics:
    """The hoisted (n_steps, 64, 2) branch computation is the same IEEE
    multiply/add per element as the old per-step form, so decoding must
    be bit-exact against it — including on noisy and erasure-laden
    inputs where tie-breaking could expose any numeric difference."""

    @pytest.mark.parametrize("terminated", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_exact_vs_reference(self, terminated, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, 240, dtype=np.uint8)
        bits, coded = _encode_terminated(data)
        llr = (1.0 - 2.0 * coded) * 2.0 + rng.normal(0.0, 2.0, coded.size)
        llr[rng.integers(0, llr.size, 30)] = 0.0  # erasures
        got = ViterbiDecoder(terminated=terminated).decode_soft(llr)
        want = _reference_decode_soft(llr, terminated=terminated)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("first_kind", [0, 1, 2])
    @pytest.mark.parametrize("n_steps", [0, 1, 24, 246])
    @pytest.mark.parametrize("terminated", [True, False])
    @pytest.mark.parametrize(
        "n_rows",
        [1, 2, _TRACEBACK_ROW_CUTOVER, _TRACEBACK_ROW_CUTOVER + 1, 32],
    )
    def test_rows_bit_exact_vs_reference(
        self, n_rows, terminated, n_steps, first_kind
    ):
        # Both tracebacks (per-row Python walk up to the cut-over, the
        # vectorized one above it) must match the per-step oracle on
        # every row.  Row r is of kind (first_kind + r) % 3: noisy soft
        # LLRs with erasures, integer-valued LLRs (exact path-metric
        # ties), or all erasures.
        rng = np.random.default_rng([n_rows, n_steps, first_kind])
        llr = np.empty((n_rows, 2 * n_steps))
        for r in range(n_rows):
            kind = (first_kind + r) % 3
            if kind == 0:
                _, coded = _encode_terminated(
                    rng.integers(0, 2, n_steps, dtype=np.uint8)
                )
                row = (1.0 - 2.0 * coded[: 2 * n_steps]) * 2.0
                row += rng.normal(0.0, 2.0, row.size)
                row[rng.integers(0, max(row.size, 1), row.size // 8)] = 0.0
            elif kind == 1:
                row = rng.integers(-2, 3, 2 * n_steps).astype(float)
            else:
                row = np.zeros(2 * n_steps)
            llr[r] = row
        decoder = ViterbiDecoder(terminated=terminated)
        got = decoder.decode_soft(llr)
        assert got.dtype == np.uint8
        assert got.shape == (n_rows, n_steps)
        for r in range(n_rows):
            want = _reference_decode_soft(llr[r], terminated=terminated)
            assert np.array_equal(got[r], want), f"row {r}"
        single = decoder.decode_soft(llr[0])
        assert single.dtype == np.uint8
        assert single.shape == (n_steps,)
        assert np.array_equal(single, got[0])

    def test_bit_exact_on_hard_input(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 2, 120, dtype=np.uint8)
        bits, coded = _encode_terminated(data)
        got = ViterbiDecoder().decode_hard(coded)
        want = _reference_decode_soft(1.0 - 2.0 * coded.astype(float))
        assert np.array_equal(got, want)
