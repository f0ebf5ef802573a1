"""IEEE 802.11a receiver (the DSP part of figure 1).

Implements the complete chain the paper's block diagram shows: timing and
frequency synchronization, cyclic-prefix removal, FFT demodulation, channel
correction, constellation demapping, deinterleaving, depuncturing, Viterbi
decoding and descrambling.

Two operating modes are provided:

* the *practical* receiver with full synchronization and channel
  estimation (the SPW demo-system receiver of the paper), and
* an *ideal* (genie) receiver with known timing, no CFO correction and an
  ideal channel, used for EVM measurements exactly as in section 5.2 of the
  paper ("an EVM measurement was only performed while simulating a WLAN
  system which includes an ideal receiver model").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.dsp.channel_est import (
    equalize,
    equalize_mmse,
    estimate_channel_ls,
    estimate_noise_variance,
    pilot_phase_correction,
    smooth_channel_estimate,
)
from repro.dsp.convcode import depuncture
from repro.dsp.interleaver import deinterleave
from repro.dsp.modulation import Demapper
from repro.dsp.ofdm import OfdmDemodulator
from repro.dsp.params import (
    N_SERVICE_BITS,
    N_SYMBOL,
    RATES,
    RateParameters,
    SAMPLE_RATE,
    symbols_for_psdu,
)
from repro.dsp.preamble import (
    PREAMBLE_LENGTH,
    STF_LENGTH,
    decode_signal_field,  # unused here; benchmarks/e2e/layers.py patches it
    decode_signal_fields,
)
from repro.dsp.scrambler import Scrambler, check_seed
from repro.dsp.synchronization import (
    apply_cfo,
    coarse_cfo_estimate,
    detect_packet,
    fine_cfo_estimate,
    symbol_timing,
)
from repro.dsp.viterbi import ViterbiDecoder


@dataclass(frozen=True)
class RxConfig:
    """Receiver configuration.

    Attributes:
        scrambler_seed: must match the transmitter (the standard recovers
            it from the SERVICE field; we configure it explicitly).
        genie_timing: if True, assume the packet starts at sample 0 and
            skip packet detection / timing search.
        genie_cfo: if True, skip CFO estimation and correction.
        genie_rate_mbps: if set, skip SIGNAL decoding and use this rate.
        genie_length_bytes: if set with ``genie_rate_mbps``, the PSDU length.
        soft_decision: use soft-decision (LLR) Viterbi decoding.
        csi_weighting: weight the per-subcarrier LLRs by the channel
            state information |H_k|^2, the standard coded-OFDM trick that
            makes faded subcarriers count less in the Viterbi metric.
        equalizer: ``"zf"`` (zero forcing) or ``"mmse"``.
        channel_smoothing_taps: when set, denoise the LS channel estimate
            by time-domain truncation to this many taps.
        sample_rate: input sample rate (must be 20 MHz; RF front ends
            decimate before the DSP receiver, as in the paper's flow).
    """

    scrambler_seed: int = 0b1011101
    genie_timing: bool = False
    genie_cfo: bool = False
    genie_rate_mbps: Optional[int] = None
    genie_length_bytes: Optional[int] = None
    soft_decision: bool = True
    csi_weighting: bool = True
    equalizer: str = "zf"
    channel_smoothing_taps: Optional[int] = None
    sample_rate: float = SAMPLE_RATE

    def __post_init__(self):
        if self.equalizer not in ("zf", "mmse"):
            raise ValueError(f"unknown equalizer {self.equalizer!r}")
        if self.genie_rate_mbps is not None and (
            self.genie_rate_mbps not in RATES
        ):
            raise ValueError(
                f"unsupported genie_rate_mbps {self.genie_rate_mbps} Mbps"
            )
        check_seed(self.scrambler_seed)


@dataclass
class RxResult:
    """Outcome of one packet reception.

    Attributes:
        success: True when a packet was detected and decoded.
        psdu: decoded payload bytes (empty on failure).
        rate: data rate used for the DATA field, if known.
        length_bytes: decoded PSDU length.
        signal_parity_ok: parity check result of the SIGNAL field.
        packet_start: detected packet start index.
        cfo_hz: total estimated carrier frequency offset.
        noise_var: estimated per-subcarrier noise variance.
        data_symbols: equalized DATA constellation points (n_sym, 48),
            kept for EVM evaluation.
        failure: short reason string when ``success`` is False.
    """

    success: bool
    psdu: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    rate: Optional[RateParameters] = None
    length_bytes: int = 0
    signal_parity_ok: bool = False
    packet_start: Optional[int] = None
    cfo_hz: float = 0.0
    noise_var: float = 0.0
    data_symbols: Optional[np.ndarray] = None
    failure: str = ""


class Receiver:
    """Full 802.11a packet receiver."""

    def __init__(self, config: RxConfig = RxConfig()):
        self.config = config
        self._ofdm = OfdmDemodulator()
        # The DATA field is not trellis-terminated at the end: the scrambled
        # pad bits are encoded *after* the six tail bits, so the final state
        # is data dependent.  (The tail bits still protect the PSDU: they sit
        # between the payload and the pad.)
        self._viterbi = ViterbiDecoder(terminated=False)

    def _sync_and_estimate(self, samples: np.ndarray):
        """Per-packet front half of :meth:`receive_batch`.

        Runs timing synchronization, CFO correction and channel/noise
        estimation — the stages that are inherently sequential per packet.

        Returns:
            ``(failure, state)`` where exactly one is None.  ``failure`` is
            the :class:`RxResult` to return; ``state`` is the tuple
            ``(start, work, h_est, noise_var, cfo_total)`` the decoding
            half consumes.
        """
        cfg = self.config

        # --- Timing synchronization -----------------------------------
        if cfg.genie_timing:
            start = 0
        else:
            detect = detect_packet(samples)
            if detect is None:
                return RxResult(False, failure="packet not detected"), None
            ltf_gi = symbol_timing(samples, search_start=detect + 96)
            if ltf_gi is None:
                return RxResult(False, failure="timing search failed"), None
            start = ltf_gi - STF_LENGTH
            if start < 0:
                return RxResult(False, failure="packet truncated"), None

        if samples.size < start + PREAMBLE_LENGTH + N_SYMBOL:
            return RxResult(False, failure="packet truncated"), None

        # --- Frequency synchronization --------------------------------
        cfo_total = 0.0
        work = samples[start:]
        if not cfg.genie_cfo:
            coarse = coarse_cfo_estimate(work[:STF_LENGTH], cfg.sample_rate)
            work = apply_cfo(work, -coarse, cfg.sample_rate)
            fine = fine_cfo_estimate(
                work[STF_LENGTH:PREAMBLE_LENGTH], cfg.sample_rate
            )
            work = apply_cfo(work, -fine, cfg.sample_rate)
            cfo_total = coarse + fine

        # --- Channel estimation ----------------------------------------
        ltf = work[STF_LENGTH:PREAMBLE_LENGTH]
        h_est = estimate_channel_ls(ltf)
        noise_var = max(estimate_noise_variance(ltf), 1e-12)
        if cfg.channel_smoothing_taps is not None:
            h_est = smooth_channel_estimate(
                h_est, cfg.channel_smoothing_taps
            )
        return None, (start, work, h_est, noise_var, cfo_total)

    def receive(self, samples: np.ndarray) -> RxResult:
        """Decode one PPDU: a batch of one through :meth:`receive_batch`.

        Args:
            samples: complex baseband samples at 20 MHz containing (at
                least) one complete PPDU.

        Returns:
            An :class:`RxResult`; ``result.success`` is False with a
            ``failure`` reason if any stage fails.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("expected a 1-D (n_samples,) sample stream")
        return self.receive_batch(samples[None, :])[0]

    def _equalize_rows(
        self, rows: np.ndarray, h_stack: np.ndarray, noise: np.ndarray
    ) -> np.ndarray:
        """Equalize a ``(n_packets, n_symbols, 64)`` stack per packet."""
        if self.config.equalizer == "mmse":
            return equalize_mmse(rows, h_stack, noise)
        return equalize(rows, h_stack)

    def receive_batch(self, sample_rows: np.ndarray) -> list:
        """Decode a batch of PPDUs with the heavy DSP stages stacked.

        Synchronization, CFO correction and channel estimation stay
        per-packet (they are data-dependent and cheap); FFT demodulation,
        equalization, pilot tracking, SIGNAL decoding and the whole DATA
        decode chain (demap, deinterleave, depuncture, Viterbi, descramble)
        run as single stacked array operations over all packets that share
        a (rate, length) combination.

        Args:
            sample_rows: ``(n_packets, n_samples)`` received baseband
                sample streams, one packet per row.

        Returns:
            List of :class:`RxResult`, one per row; the outcome of a row
            does not depend on the other rows of the batch.
        """
        cfg = self.config
        sample_rows = np.asarray(sample_rows, dtype=complex)
        if sample_rows.ndim != 2:
            raise ValueError("expected (n_packets, n_samples) input")
        n_packets = sample_rows.shape[0]
        results: list = [None] * n_packets
        states: list = [None] * n_packets

        for k in range(n_packets):
            failure, state = self._sync_and_estimate(sample_rows[k])
            if failure is not None:
                results[k] = failure
            else:
                states[k] = state

        live = [k for k in range(n_packets) if states[k] is not None]

        # --- SIGNAL field (batched across all live packets) -----------
        signal_info: dict = {}  # k -> (rate, length, parity_ok)
        if cfg.genie_rate_mbps is not None:
            if cfg.genie_length_bytes is None:
                for k in live:
                    results[k] = RxResult(
                        False, failure="genie rate requires genie length"
                    )
                live = []
            else:
                rate = RATES[cfg.genie_rate_mbps]
                for k in live:
                    signal_info[k] = (rate, cfg.genie_length_bytes, True)
        elif live:
            sig_stack = np.stack([
                states[k][1][PREAMBLE_LENGTH : PREAMBLE_LENGTH + N_SYMBOL]
                for k in live
            ])
            sig_rows = self._ofdm.demodulate_batch(sig_stack)
            h_stack = np.stack([states[k][2] for k in live])[:, None, :]
            noise_vars = np.array([states[k][3] for k in live])
            sig_eq = self._equalize_rows(
                sig_rows, h_stack, noise_vars[:, None, None]
            )
            sig_eq = pilot_phase_correction(sig_eq, first_symbol_index=-1)
            sig_data = self._ofdm.extract_data(sig_eq)[:, 0, :]
            contents = decode_signal_fields(sig_data, noise_vars)
            for k, content in zip(live, contents):
                start, _, _, _, cfo_total = states[k]
                if content is None:
                    results[k] = RxResult(
                        False,
                        packet_start=start,
                        cfo_hz=cfo_total,
                        failure="invalid SIGNAL rate field",
                    )
                elif not content.parity_ok:
                    results[k] = RxResult(
                        False,
                        packet_start=start,
                        cfo_hz=cfo_total,
                        rate=content.rate,
                        length_bytes=content.length_bytes,
                        failure="SIGNAL parity error",
                    )
                else:
                    signal_info[k] = (
                        content.rate, content.length_bytes, content.parity_ok
                    )

        # --- DATA field (batched per (rate, length) group) ------------
        groups: dict = {}
        for k, (rate, length, _parity) in signal_info.items():
            if length < 1:
                results[k] = RxResult(False, failure="zero-length PSDU")
                continue
            groups.setdefault((rate.data_rate_mbps, length), []).append(k)

        for (rate_mbps, length), members in groups.items():
            rate = RATES[rate_mbps]
            n_sym = symbols_for_psdu(length, rate)
            data_start = PREAMBLE_LENGTH + N_SYMBOL
            data_end = data_start + n_sym * N_SYMBOL
            decodable = []
            for k in members:
                start, work, _, _, _ = states[k]
                if work.size < data_end:
                    results[k] = RxResult(
                        False,
                        packet_start=start,
                        rate=rate,
                        length_bytes=length,
                        failure="DATA field truncated",
                    )
                else:
                    decodable.append(k)
            if not decodable:
                continue
            stack = np.stack([
                states[k][1][data_start:data_end] for k in decodable
            ])
            rows = self._ofdm.demodulate_batch(stack)
            h_stack = np.stack([states[k][2] for k in decodable])
            noise_vars = np.array([states[k][3] for k in decodable])
            rows = self._equalize_rows(
                rows, h_stack[:, None, :], noise_vars[:, None, None]
            )
            rows = pilot_phase_correction(rows, first_symbol_index=0)
            data_points = self._ofdm.extract_data(rows)
            csi_rows = None
            if cfg.csi_weighting:
                csi_rows = np.abs(self._ofdm.extract_data(h_stack)) ** 2
            psdus = self._decode_data_batch(
                data_points, rate, length, noise_vars, csi_rows
            )
            for i, k in enumerate(decodable):
                start, _, _, noise_var, cfo_total = states[k]
                results[k] = RxResult(
                    True,
                    psdu=psdus[i],
                    rate=rate,
                    length_bytes=length,
                    signal_parity_ok=signal_info[k][2],
                    packet_start=start,
                    cfo_hz=cfo_total,
                    noise_var=noise_var,
                    data_symbols=data_points[i],
                )
        return results

    def _decode_data_batch(
        self,
        data_points: np.ndarray,
        rate: RateParameters,
        length: int,
        noise_vars: np.ndarray,
        csi_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Demap, decode and descramble ``(n_packets, n_sym, 48)`` points.

        Returns the ``(n_packets, length)`` decoded PSDU bytes.
        """
        cfg = self.config
        demapper = Demapper(rate.modulation)
        n_packets, n_sym, _ = data_points.shape
        if cfg.soft_decision:
            llr = demapper.demap_soft_rows(
                data_points.reshape(n_packets, -1), noise_vars
            )
            if csi_rows is not None:
                # Per-subcarrier CSI weighting: each symbol's bits carry
                # confidence proportional to its channel power.
                weights = np.repeat(
                    np.tile(csi_rows, (1, n_sym)), rate.n_bpsc, axis=1
                )
                llr = llr * weights
        else:
            hard = demapper.demap_hard(data_points.reshape(-1))
            llr = 1.0 - 2.0 * hard.astype(float).reshape(n_packets, -1)
        # Bound the LLR magnitude: Viterbi decisions are scale-invariant,
        # but unbounded LLRs (noise_var -> 0) lose precision in the path
        # metric accumulation.
        peak = np.max(np.abs(llr), axis=1)
        safe = np.where(peak > 0, peak, 1.0)
        scale = np.where(peak > 0, 20.0 / safe, 1.0)
        llr = llr * scale[:, None]
        llr = deinterleave(llr, rate.n_cbps, rate.n_bpsc)
        llr = depuncture(llr, rate.coding_rate)
        decoded = self._viterbi.decode_soft(llr)
        descrambled = Scrambler(cfg.scrambler_seed).process(decoded)
        psdu_bits = descrambled[
            :, N_SERVICE_BITS : N_SERVICE_BITS + 8 * length
        ]
        return np.packbits(psdu_bits, axis=-1, bitorder="little")


def ideal_receiver_config(rate_mbps: int, length_bytes: int) -> RxConfig:
    """Configuration of the paper's "ideal receiver model" used for EVM."""
    return RxConfig(
        genie_timing=True,
        genie_cfo=True,
        genie_rate_mbps=rate_mbps,
        genie_length_bytes=length_bytes,
    )
