"""Batch-size invariance of the PHY engine.

The TX -> channel -> RX chain has one implementation, the batched one
(``WlanTestbench.run_packet_batch``, ``Transmitter.transmit_batch``,
``Receiver.receive_batch``); the per-packet calls (``run_packet``,
``transmit``, ``receive``, ...) run it as a batch of one.  Batching must
be a pure throughput optimization: a batch of N must reproduce N batches
of one bit for bit — decoded bits, BER/PER KPIs, probe summaries,
early-stop behaviour, and the frozen golden digests.  This module is that
promise as a test suite.
"""

import json

import numpy as np
import pytest

from repro import obs, perf
from repro.core.testbench import (
    _BENCH_CACHE,
    TestbenchConfig,
    WlanTestbench,
    _bench_for_config,
    _packet_chunk_task,
)
from repro.dsp.ofdm import OfdmModulator
from repro.dsp.params import RATES
from repro.dsp.receiver import Receiver, RxConfig
from repro.dsp.scrambler import Scrambler, _sequence_period
from repro.dsp.synchronization import detect_packet
from repro.dsp.transmitter import Transmitter, TxConfig
from repro.dsp.viterbi import ViterbiDecoder, acs_tables, branch_codes
from repro.obs.probes import ProbeRegistry, probe_preset
from repro.qa import vectors as vec

ALL_RATES = sorted(RATES)


def _outcomes_equal(a, b):
    """Strict equality of two PacketOutcome lists (bits and symbols)."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.bit_errors == y.bit_errors
        assert x.n_bits == y.n_bits
        assert x.lost == y.lost
        assert x.rx_result.success == y.rx_result.success
        assert x.rx_result.failure == y.rx_result.failure
        if x.rx_result.psdu is None:
            assert y.rx_result.psdu is None
        else:
            assert np.array_equal(x.rx_result.psdu, y.rx_result.psdu)
        if x.rx_result.data_symbols is None:
            assert y.rx_result.data_symbols is None
        else:
            assert np.array_equal(
                x.rx_result.data_symbols, y.rx_result.data_symbols
            )
        assert np.array_equal(x.tx_symbols, y.tx_symbols)


def _kpis(measurement):
    return (
        measurement.ber,
        measurement.per,
        measurement.bit_errors,
        measurement.bits_total,
        measurement.packets,
        measurement.packets_lost,
    )


class TestChainBitExactness:
    """A batch of N == N batches of one (``run_packet``), at every rate."""

    @pytest.mark.parametrize("rate_mbps", ALL_RATES)
    def test_run_packet_batch_matches_scalar(self, rate_mbps):
        cfg = TestbenchConfig(rate_mbps=rate_mbps, snr_db=9.0, psdu_bytes=40)
        bench = WlanTestbench(cfg)
        children = perf.spawn(1234, 6)
        scalar = [
            bench.run_packet(np.random.default_rng(c)) for c in children
        ]
        batched = bench.run_packet_batch(
            [np.random.default_rng(c) for c in children]
        )
        _outcomes_equal(scalar, batched)

    @pytest.mark.parametrize("rate_mbps", ALL_RATES)
    def test_transmit_batch_rows_match_transmit(self, rate_mbps):
        tx = Transmitter(TxConfig(rate_mbps=rate_mbps))
        rng = np.random.default_rng(5)
        psdus = rng.integers(0, 256, size=(4, 33), dtype=np.uint8)
        waves, symbols = tx.transmit_batch(psdus)
        for k in range(4):
            assert np.array_equal(waves[k], tx.transmit(psdus[k]))
            assert np.array_equal(symbols[k], tx.data_symbols(psdus[k]))

    def test_low_snr_failures_match_scalar(self):
        """Failure paths (detect / parity / decode) stay identical too."""
        cfg = TestbenchConfig(rate_mbps=54, snr_db=-2.0, psdu_bytes=40)
        bench = WlanTestbench(cfg)
        children = perf.spawn(77, 8)
        scalar = [
            bench.run_packet(np.random.default_rng(c)) for c in children
        ]
        batched = bench.run_packet_batch(
            [np.random.default_rng(c) for c in children]
        )
        assert any(o.lost for o in scalar)  # the scenario exercises failures
        _outcomes_equal(scalar, batched)


class TestMeasureBerBatchSizes:
    """measure_ber KPIs identical at batch sizes {1, 3, 8, n_packets}."""

    N_PACKETS = 16

    @pytest.mark.parametrize("rate_mbps", ALL_RATES)
    @pytest.mark.parametrize("batch", [3, 8, 16])
    def test_kpis_match_serial(self, rate_mbps, batch):
        cfg = TestbenchConfig(rate_mbps=rate_mbps, snr_db=8.0, psdu_bytes=36)
        bench = WlanTestbench(cfg)
        ref = bench.measure_ber(
            n_packets=self.N_PACKETS, seed=9, batch_size=1
        )
        got = bench.measure_ber(
            n_packets=self.N_PACKETS, seed=9, batch_size=batch
        )
        assert _kpis(got) == _kpis(ref)

    def test_ambient_default_batch_size(self):
        cfg = TestbenchConfig(rate_mbps=24, snr_db=8.0, psdu_bytes=36)
        bench = WlanTestbench(cfg)
        ref = bench.measure_ber(n_packets=8, seed=3, batch_size=1)
        with perf.use_context(batch_size=4):
            assert perf.current_context().batch_size == 4
            got = bench.measure_ber(n_packets=8, seed=3)
        assert _kpis(got) == _kpis(ref)

    def test_resolve_batch_size_validation(self):
        assert (
            perf.resolve_batch_size(None) == perf.current_context().batch_size
        )
        assert perf.resolve_batch_size(5) == 5
        with pytest.raises(ValueError):
            perf.resolve_batch_size(0)
        with pytest.raises(ValueError):
            perf.set_default_batch_size(0)
        with pytest.raises(ValueError):
            perf.RunContext(batch_size=0)

    def test_parallel_jobs_match_serial(self):
        cfg = TestbenchConfig(rate_mbps=24, snr_db=8.0, psdu_bytes=36)
        bench = WlanTestbench(cfg)
        ref = bench.measure_ber(n_packets=8, seed=3, batch_size=1, jobs=1)
        got = bench.measure_ber(n_packets=8, seed=3, batch_size=4, jobs=2)
        assert _kpis(got) == _kpis(ref)

    def test_early_stop_matches_at_pinned_chunk_size(self):
        """Early stop is a per-packet decision: the batched engine must
        stop at the same packet as batch 1, whatever the batch size."""
        cfg = TestbenchConfig(rate_mbps=54, snr_db=3.0, psdu_bytes=36)
        bench = WlanTestbench(cfg)
        ref = bench.measure_ber(
            n_packets=24, seed=11, batch_size=1, max_bit_errors=50,
        )
        got = bench.measure_ber(
            n_packets=24, seed=11, batch_size=4, max_bit_errors=50,
        )
        assert ref.packets + ref.packets_lost < 24  # stop actually fired
        assert _kpis(got) == _kpis(ref)


class TestProbeSummaries:
    """Probe exports are byte-identical for any batching inside one task.

    Each ``parallel_map`` task captures its own probe sums, which the
    parent then adds, so different task sizes may regroup float sums
    in the last bits; batching inside one capture must not.
    """

    def _run(self, batch):
        cfg = TestbenchConfig(rate_mbps=24, snr_db=15.0, psdu_bytes=36)
        children = perf.spawn(21, 8)
        registry = ProbeRegistry(probe_preset("full"))
        previous = obs.set_probes(registry)
        try:
            for i in range(0, len(children), batch):
                _packet_chunk_task((cfg, children[i:i + batch], None))
        finally:
            obs.set_probes(previous)
        return registry.export()

    def test_batch_probe_export_identical(self):
        serial = json.dumps(self._run(batch=1), sort_keys=True)
        for batch in (4, 8):
            batched = json.dumps(self._run(batch=batch), sort_keys=True)
            assert batched == serial


class TestRandomizedLoopback:
    """Hypothesis-style randomized-payload loopback at batch > 1."""

    def test_random_payloads_roundtrip(self):
        rng = np.random.default_rng(2024)
        guard = 200
        for _ in range(10):
            rate_mbps = int(rng.choice(ALL_RATES))
            n_bytes = int(rng.integers(16, 90))
            n_packets = int(rng.integers(2, 6))
            psdus = rng.integers(
                0, 256, size=(n_packets, n_bytes), dtype=np.uint8
            )
            tx = Transmitter(TxConfig(rate_mbps=rate_mbps))
            waves, _ = tx.transmit_batch(psdus)
            padded = np.zeros(
                (n_packets, waves.shape[1] + 2 * guard), dtype=complex
            )
            padded[:, guard : guard + waves.shape[1]] = waves
            padded += 0.004 * (
                rng.normal(size=padded.shape)
                + 1j * rng.normal(size=padded.shape)
            )
            results = Receiver(RxConfig()).receive_batch(padded)
            for k, result in enumerate(results):
                assert result.success, result.failure
                assert np.array_equal(result.psdu, psdus[k])


class TestBenchMemoization:
    """Chunk workers reuse one bench per config instead of rebuilding."""

    def test_same_config_returns_same_bench(self):
        _BENCH_CACHE.clear()
        cfg_a = TestbenchConfig(rate_mbps=24, snr_db=10.0)
        cfg_b = TestbenchConfig(rate_mbps=24, snr_db=10.0)
        cfg_c = TestbenchConfig(rate_mbps=36, snr_db=10.0)
        bench = _bench_for_config(cfg_a)
        assert _bench_for_config(cfg_a) is bench
        assert _bench_for_config(cfg_b) is bench  # equal content, same key
        assert _bench_for_config(cfg_c) is not bench

    def test_memoized_bench_is_deterministic(self):
        """Reusing the bench across chunks leaves results unchanged."""
        _BENCH_CACHE.clear()
        cfg = TestbenchConfig(rate_mbps=24, snr_db=8.0, psdu_bytes=36)
        bench = WlanTestbench(cfg)
        first = bench.measure_ber(n_packets=6, seed=4, batch_size=2)
        again = bench.measure_ber(n_packets=6, seed=4, batch_size=2)
        assert _kpis(first) == _kpis(again)

    def test_cache_capacity_bounded(self):
        from repro.core.testbench import _BENCH_CACHE_MAX

        _BENCH_CACHE.clear()
        for rate in ALL_RATES:
            for snr in (5.0, 10.0):
                _bench_for_config(TestbenchConfig(rate_mbps=rate, snr_db=snr))
        assert len(_BENCH_CACHE) <= _BENCH_CACHE_MAX


class TestViterbiTableCache:
    """The hoisted branch-metric tables are built once and reused."""

    def test_tables_cached_and_read_only(self):
        sa1, sb1 = acs_tables()
        sa2, sb2 = acs_tables()
        assert sa1 is sa2 and sb1 is sb2
        assert branch_codes() is branch_codes()
        assert not sa1.flags.writeable
        assert not branch_codes().flags.writeable

    def test_decodes_identical_across_instances(self):
        """Two decoder instances share tables and agree bit for bit."""
        rng = np.random.default_rng(8)
        llr = rng.normal(size=(5, 2 * 200)) * 4.0
        llr[rng.random(llr.shape) < 0.3] = 0.0
        first = ViterbiDecoder(terminated=False).decode_soft(llr)
        second = ViterbiDecoder(terminated=False).decode_soft(llr)
        assert np.array_equal(first, second)


class TestOfdmStackedGolden:
    """The stacked-FFT modulator reproduces the frozen Annex-G symbol."""

    def test_first_data_symbol_frozen(self):
        tx = Transmitter(TxConfig(
            rate_mbps=vec.REFERENCE_RATE_MBPS,
            scrambler_seed=vec.SCRAMBLER_SEED,
        ))
        symbols = tx.data_symbols(vec.reference_psdu())
        wave = OfdmModulator().modulate(symbols)
        assert np.allclose(
            wave[:80], vec.first_data_symbol_samples(), atol=1e-9
        )

    def test_modulate_batch_rows_match_modulate(self):
        tx = Transmitter(TxConfig(
            rate_mbps=vec.REFERENCE_RATE_MBPS,
            scrambler_seed=vec.SCRAMBLER_SEED,
        ))
        symbols = tx.data_symbols(vec.reference_psdu())
        stacked = np.stack([symbols, symbols[::-1]])
        ofdm = OfdmModulator()
        batch = ofdm.modulate_batch(stacked)
        for k in range(2):
            assert np.array_equal(batch[k], ofdm.modulate(stacked[k]))


class TestGoldenDigestsBatched:
    """Batched transmit reproduces the frozen per-rate digests."""

    @pytest.mark.parametrize("rate_mbps", ALL_RATES)
    def test_batched_ppdu_digest(self, rate_mbps):
        tx = Transmitter(TxConfig(rate_mbps=rate_mbps))
        psdus = np.tile(vec.fixed_psdu(), (3, 1))
        golden = vec.GOLDEN_RATE_DIGESTS[rate_mbps]
        bits = tx.data_field_bits_batch(psdus)
        waves, _ = tx.transmit_batch(psdus)
        for k in range(3):
            assert vec.digest_bits(bits[k]) == golden["data_bits"]
            assert waves[k].size == golden["n_samples"]
            assert vec.digest_samples(waves[k]) == golden["ppdu"]


class TestScramblerCache:
    """The cached 127-bit scrambler period matches a reference LFSR."""

    def test_sequence_matches_reference_lfsr(self):
        seed = 0b1011101
        state = [(seed >> i) & 1 for i in range(7)]
        ref = []
        for _ in range(200):
            bit = state[6] ^ state[3]  # x^7 + x^4 + 1
            ref.append(bit)
            state = [bit] + state[:6]
        assert np.array_equal(
            Scrambler(seed).sequence(200), np.array(ref, dtype=np.uint8)
        )

    def test_period_is_cached(self):
        assert _sequence_period(0b1011101) is _sequence_period(0b1011101)


class TestDetectPacketVectorized:
    """The sliding-window detector equals the scalar run-count reference."""

    @staticmethod
    def _reference_detect(samples, threshold=0.6, min_run=64):
        samples = np.asarray(samples, dtype=complex)
        d = 16
        if samples.size < 160:
            return None
        prod = samples[d:] * np.conj(samples[:-d])
        energy = np.abs(samples[d:]) ** 2
        window = np.ones(2 * d)
        corr = np.convolve(prod, window, mode="valid")
        norm = np.convolve(energy, window, mode="valid")
        metric = np.abs(corr) / np.maximum(norm, 1e-30)
        run = 0
        for i, above in enumerate(metric > threshold):
            run = run + 1 if above else 0
            if run >= min_run:
                return i - min_run + 1
        return None

    def test_matches_reference_on_packets_and_noise(self):
        rng = np.random.default_rng(31)
        tx = Transmitter(TxConfig(rate_mbps=24))
        for guard in (0, 37, 150):
            wave = tx.transmit(rng.integers(0, 256, 40, dtype=np.uint8))
            samples = np.concatenate([np.zeros(guard), wave])
            samples = samples + 0.05 * (
                rng.normal(size=samples.size)
                + 1j * rng.normal(size=samples.size)
            )
            assert detect_packet(samples) == self._reference_detect(samples)
        noise = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        assert detect_packet(noise) is None
        assert self._reference_detect(noise) is None
