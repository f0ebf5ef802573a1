"""Viterbi decoder for the 802.11a convolutional code.

The decoder operates on the rate-1/2 mother code; punctured positions must be
re-inserted as zero-LLR erasures by :func:`repro.dsp.convcode.depuncture`
before decoding.

Soft decision input convention: positive LLR means "bit 0 more likely".
Hard bits are converted to LLRs of +/-1 internally.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dsp.convcode import CONSTRAINT_LENGTH, G0, G1

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)

#: Largest row count whose traceback walks each row in plain Python; above
#: it the vectorized walk is faster.  Chosen from the ``viterbi`` row of
#: ``BENCH_perf.json`` (``benchmarks/bench_viterbi.py``).
_TRACEBACK_ROW_CUTOVER = 16


def _build_trellis():
    """Precompute next-state and output tables.

    State encodes the most recent K-1 input bits, newest bit in the MSB
    (so the shift matches the encoder's sliding window orientation).
    """
    next_state = np.zeros((_N_STATES, 2), dtype=np.int64)
    out_a = np.zeros((_N_STATES, 2), dtype=np.int64)
    out_b = np.zeros((_N_STATES, 2), dtype=np.int64)
    for state in range(_N_STATES):
        for bit in range(2):
            # Register contents newest..oldest: input bit then state bits.
            reg = (bit << (CONSTRAINT_LENGTH - 1)) | state
            a = bin(reg & G0).count("1") & 1
            b = bin(reg & G1).count("1") & 1
            next_state[state, bit] = reg >> 1
            out_a[state, bit] = a
            out_b[state, bit] = b
    return next_state, out_a, out_b


_NEXT_STATE, _OUT_A, _OUT_B = _build_trellis()

# Predecessor tables: for each state, the two (prev_state, input_bit) pairs.
_PREV_STATE = np.zeros((_N_STATES, 2), dtype=np.int64)
_PREV_BIT = np.zeros((_N_STATES, 2), dtype=np.int64)
_PREV_OUT_A = np.zeros((_N_STATES, 2), dtype=np.int64)
_PREV_OUT_B = np.zeros((_N_STATES, 2), dtype=np.int64)
_counts = np.zeros(_N_STATES, dtype=np.int64)
for _s in range(_N_STATES):
    for _bit in range(2):
        _ns = _NEXT_STATE[_s, _bit]
        _slot = _counts[_ns]
        _PREV_STATE[_ns, _slot] = _s
        _PREV_BIT[_ns, _slot] = _bit
        _PREV_OUT_A[_ns, _slot] = _OUT_A[_s, _bit]
        _PREV_OUT_B[_ns, _slot] = _OUT_B[_s, _bit]
        _counts[_ns] += 1
del _counts, _s, _bit, _ns, _slot

# The (133, 171) trellis is a butterfly: state ``ns`` is reached from
# ``2*(ns & 31)`` (slot 0) and ``2*(ns & 31) + 1`` (slot 1), and the input
# bit that led there is ``ns >> 5`` regardless of slot.  The ACS recursion
# and traceback below exploit this closed form, so pin it down here.
_half = np.arange(_N_STATES) & 31
assert np.array_equal(_PREV_STATE, np.stack([2 * _half, 2 * _half + 1], axis=1))
assert np.array_equal(_PREV_BIT, np.repeat(np.arange(_N_STATES) >> 5, 2).reshape(-1, 2))
del _half


@lru_cache(maxsize=None)
def acs_tables():
    """Constant factors of the hoisted branch-metric table (cached).

    The per-call branch tensor is ``sign_a * la + sign_b * lb`` — the LLR
    vectors change every decode, but the ``(64, 2)`` sign tables derived
    from the predecessor outputs are constant.  They used to be rebuilt on
    every ``decode_soft`` call; now every decode (any rate — puncturing
    only affects the erasure pattern, handled by
    :func:`repro.dsp.convcode.kept_indices`, which is cached per
    rate/length) shares the same read-only arrays.

    Returns:
        ``(sign_a, sign_b)`` — ``+1`` where the branch emits coded bit 0,
        ``-1`` where it emits bit 1, for the A and B generator outputs.
    """
    sign_a = 1.0 - 2.0 * _PREV_OUT_A  # (_N_STATES, 2)
    sign_b = 1.0 - 2.0 * _PREV_OUT_B
    sign_a.setflags(write=False)
    sign_b.setflags(write=False)
    return sign_a, sign_b


@lru_cache(maxsize=None)
def branch_codes():
    """Per-branch index into the four distinct branch-metric values (cached).

    A branch metric is ``±la ± lb``, so each trellis step has only four
    distinct values per packet: ``la+lb``, ``la-lb``, ``lb-la`` and
    ``-(la+lb)``.  This table maps every ``(state, slot)`` branch to one of
    those, letting the decoder build the full branch tensor with a single
    gather instead of two full-size multiplies and an add.  Negation and
    the single rounded addition commute with sign flips in IEEE-754, so
    the gathered values equal ``sign_a*la + sign_b*lb`` bit-for-bit.
    """
    sign_a, sign_b = acs_tables()
    code = (((1 - sign_a) // 2) * 2 + ((1 - sign_b) // 2)).astype(np.intp)
    code.setflags(write=False)
    return code


class ViterbiDecoder:
    """Maximum-likelihood decoder for the K=7 (133, 171) code.

    Args:
        terminated: if True (the 802.11a case) the encoder ends in the zero
            state thanks to the tail bits, and traceback starts from state 0.
            If False, traceback starts from the best surviving state.
    """

    def __init__(self, terminated: bool = True):
        self.terminated = terminated

    def decode_hard(self, coded_bits: np.ndarray) -> np.ndarray:
        """Decode hard bits (0/1), length must be even."""
        coded_bits = np.asarray(coded_bits, dtype=float)
        llr = 1.0 - 2.0 * coded_bits
        return self.decode_soft(llr)

    def decode_soft(self, llr: np.ndarray) -> np.ndarray:
        """Decode soft values.

        Args:
            llr: sequence of log-likelihood ratios for the interleaved
                A0 B0 A1 B1 ... coded bits; positive favours bit 0, zero is
                an erasure.  Length must be even.  A 2-D ``(n_packets,
                n_llr)`` array decodes every row in one pass: the ACS
                recursion runs each trellis step across all 64 states and
                all packets at once, and each row's result is bit-identical
                to decoding it alone.

        Returns:
            The decoded data bits (including any tail bits that were
            encoded; the caller strips them), one row per input row.
        """
        llr = np.asarray(llr, dtype=float)
        single = llr.ndim == 1
        rows = llr[None, :] if single else llr
        if rows.ndim != 2:
            raise ValueError("LLR input must be 1-D or 2-D")
        if rows.shape[-1] % 2:
            raise ValueError("LLR stream length must be even")
        bits = self._decode_rows(rows)
        return bits[0] if single else bits

    def _decode_rows(self, llr_rows: np.ndarray) -> np.ndarray:
        """Batched ACS recursion + traceback over ``(n_rows, n_llr)``."""
        decisions, metrics = _acs(llr_rows)
        n_rows = llr_rows.shape[0]
        if self.terminated:
            state = np.zeros(n_rows, dtype=np.int64)
        else:
            state = np.argmax(metrics, axis=1)
        if n_rows <= _TRACEBACK_ROW_CUTOVER:
            return _traceback_per_row(decisions, state)
        return _traceback_vectorized(decisions, state)


def _acs(llr_rows: np.ndarray):
    """Batched add-compare-select over ``(n_rows, n_llr)`` LLR rows.

    Returns:
        ``(decisions, metrics)``: the ``(n_steps, n_rows, 64)`` uint8
        survivor slots (1 where slot 1 won) and the final
        ``(n_rows, 64)`` path metrics.
    """
    n_rows = llr_rows.shape[0]
    n_steps = llr_rows.shape[1] // 2
    # (n_steps, n_rows) layout keeps each trellis step contiguous.
    la = np.ascontiguousarray(llr_rows[:, 0::2].T)
    lb = np.ascontiguousarray(llr_rows[:, 1::2].T)

    # Path metric: higher is better.  Branch metric for coded bit c with
    # LLR l is +l/2 if c == 0 else -l/2; we drop the 1/2 scale.  Every
    # branch metric is ±la ± lb, so build the four distinct values per
    # (step, row) and gather the full (n_steps, n_rows, 64, 2) tensor in
    # one indexed read — bit-exact with the per-branch multiply/add form
    # (see :func:`branch_codes`).
    four = np.empty((n_steps, n_rows, 4))
    np.add(la, lb, out=four[:, :, 0])
    np.subtract(la, lb, out=four[:, :, 1])
    np.subtract(lb, la, out=four[:, :, 2])
    np.negative(four[:, :, 0], out=four[:, :, 3])
    # View the branches as (slot-of-32-pairs, prev-pair, slot): because
    # _PREV_STATE[ns] = [2*(ns & 31), 2*(ns & 31) + 1], the candidate
    # gather metrics[:, _PREV_STATE] is just metrics viewed as
    # (n_rows, 32, 2) broadcast over the two halves of the state space —
    # no fancy indexing inside the loop.
    br = four[:, :, branch_codes()].reshape(n_steps, n_rows, 2, 32, 2)

    # Two metric buffers, read and written alternately: step t reads
    # buffer t & 1 and writes the other.  Every view the loop touches is
    # built here once, so each step is three ufunc calls.
    metrics = np.full((2, n_rows, _N_STATES), -np.inf)
    metrics[0, :, 0] = 0.0
    flat = (metrics[0], metrics[1])
    pairs = tuple(m.reshape(n_rows, 1, 32, 2) for m in flat)
    decisions = np.empty((n_steps, n_rows, _N_STATES), dtype=np.uint8)
    # np.greater writes decisions straight into the uint8 buffer through
    # a bool view; traceback reads it back as integers.
    dec_bool = decisions.view(bool)
    cand = np.empty((n_rows, 2, 32, 2))
    c0 = cand[..., 0].reshape(n_rows, _N_STATES)
    c1 = cand[..., 1].reshape(n_rows, _N_STATES)
    add, greater, maximum = np.add, np.greater, np.maximum

    for t, (br_t, dec_t) in enumerate(zip(br, dec_bool)):
        add(pairs[t & 1], br_t, out=cand)
        # argmax over the slot axis with first-max tie-break == "slot 1
        # strictly better".  maximum() agrees with the picked candidate
        # except possibly the sign of a ±0.0 tie, which no comparison or
        # argmax downstream can distinguish.
        greater(c1, c0, out=dec_t)
        maximum(c0, c1, out=flat[(t + 1) & 1])
    return decisions, flat[n_steps & 1]


# Both tracebacks use the closed form asserted above: the input bit is the
# state's MSB independent of slot, and the predecessor is
# 2*(state & 31) + slot.


def _traceback_per_row(
    decisions: np.ndarray, state: np.ndarray
) -> np.ndarray:
    """Trace each row back in plain Python over its decision bytes.

    Cheaper than :func:`_traceback_vectorized` at small row counts, where
    the per-step cost of numpy calls outweighs walking rows one by one.
    """
    n_steps, n_rows, _ = decisions.shape
    bits = np.empty((n_rows, n_steps), dtype=np.uint8)
    out = [0] * n_steps
    for r, s in enumerate(state.tolist()):
        # Step t's decision for state s sits at byte (t << 6) + s.
        dec = decisions[:, r, :].tobytes()
        for t in range(n_steps - 1, -1, -1):
            out[t] = s >> 5
            s = ((s & 31) << 1) + dec[(t << 6) + s]
        bits[r] = out
    return bits


def _traceback_vectorized(
    decisions: np.ndarray, state: np.ndarray
) -> np.ndarray:
    """Trace every row back at once, one numpy gather per step."""
    n_steps, n_rows, _ = decisions.shape
    bits = np.empty((n_rows, n_steps), dtype=np.uint8)
    row_idx = np.arange(n_rows)
    for t in range(n_steps - 1, -1, -1):
        bits[:, t] = state >> 5
        slot = decisions[t, row_idx, state]
        state = ((state & 31) << 1) + slot
    return bits
