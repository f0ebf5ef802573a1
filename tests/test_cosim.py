"""Tests for the co-simulation engine (repro.flow.cosim)."""

import numpy as np
import pytest

from repro.flow.cosim import (
    CoSimAbort,
    CoSimConfig,
    CoSimulation,
    InterpretedFrontend,
)
from repro.rf.cascade import friis_noise_figure_db, frontend_stages
from repro.rf.frontend import FrontendConfig, ideal_frontend_config
from repro.rf.signal import Signal, dbm_to_watts


class TestCascadeNf:
    def test_friis_dominated_by_first_stage(self):
        cfg = FrontendConfig(lna_nf_db=3.0, lna_gain_db=16.0)
        total = friis_noise_figure_db(frontend_stages(cfg))
        assert 3.0 < total < 5.0

    def test_zero_everything(self):
        cfg = FrontendConfig(lna_nf_db=0.0, mixer1_nf_db=0.0, mixer2_nf_db=0.0)
        total = friis_noise_figure_db(frontend_stages(cfg))
        assert total == pytest.approx(0.0)


class TestInterpretedFrontend:
    def test_matches_vectorized_frontend_on_tone(self):
        # The interpreted (AMS-side) evaluation must track the vectorized
        # behavioral model closely for a noiseless in-band tone.
        from repro.rf.frontend import DoubleConversionReceiver

        cfg = ideal_frontend_config(adc_bits=10)
        n = 8192
        t = np.arange(n) / 80e6
        tone = np.sqrt(dbm_to_watts(-50.0)) * np.exp(2j * np.pi * 1e6 * t)
        rng = np.random.default_rng(0)
        vec = DoubleConversionReceiver(cfg).process(
            Signal(tone, 80e6, 5.2e9), rng
        )
        interp = InterpretedFrontend(cfg, noise_enabled=False, substeps=2)
        out = interp.run(tone, rng)
        # Compare steady-state powers (different AGC dynamics at the very
        # start are expected).
        p_vec = np.mean(np.abs(vec.samples[512:]) ** 2)
        p_int = np.mean(np.abs(out[512:]) ** 2)
        assert 10 * np.log10(p_int / p_vec) == pytest.approx(0.0, abs=1.5)

    def test_output_rate_decimated(self):
        cfg = ideal_frontend_config()
        interp = InterpretedFrontend(cfg, substeps=1)
        out = interp.run(np.zeros(400, complex), np.random.default_rng(0))
        assert out.size == 100

    def test_substeps_validation(self):
        with pytest.raises(ValueError):
            InterpretedFrontend(FrontendConfig(), substeps=0)

    def test_noise_enabled_changes_output(self):
        cfg = FrontendConfig()
        silent = np.zeros(2000, complex)
        quiet = InterpretedFrontend(cfg, noise_enabled=False, substeps=1).run(
            silent, np.random.default_rng(1)
        )
        noisy = InterpretedFrontend(cfg, noise_enabled=True, substeps=1).run(
            silent, np.random.default_rng(1)
        )
        assert np.mean(np.abs(noisy) ** 2) > np.mean(np.abs(quiet) ** 2)


class TestCoSimulation:
    @pytest.fixture(scope="class")
    def cosim(self):
        return CoSimulation(
            FrontendConfig(),
            CoSimConfig(
                rate_mbps=24,
                psdu_bytes=40,
                input_level_dbm=-55.0,
                analog_substeps=2,
            ),
        )

    def test_system_run_decodes(self, cosim):
        report = cosim.run_system_only(2, seed=0)
        assert report.mode == "system"
        assert report.ber == 0.0
        assert report.packets_lost == 0

    def test_cosim_run_decodes(self, cosim):
        report = cosim.run_cosim(2, seed=0)
        assert report.mode == "cosim"
        assert report.ber == 0.0
        assert not report.rf_noise_active  # AMS limitation by default
        assert report.warnings  # the compiler warning is surfaced

    def test_cosim_slower_than_system(self, cosim):
        rows = cosim.compare(packet_counts=(1,), seed=1)
        assert rows[0]["slowdown"] > 2.0

    def test_noise_gap_ber_ordering(self):
        # Near sensitivity the noiseless co-sim must be optimistic.
        config = CoSimConfig(
            rate_mbps=24,
            psdu_bytes=40,
            input_level_dbm=-92.0,
            analog_substeps=1,
        )
        cs = CoSimulation(FrontendConfig(), config)
        system = cs.run_system_only(4, seed=3)
        cosim = cs.run_cosim(4, seed=3)
        assert cosim.ber <= system.ber
        assert system.ber > 0.0

    def test_random_functions_workaround_restores_noise(self):
        config = CoSimConfig(
            rate_mbps=24,
            psdu_bytes=30,
            input_level_dbm=-60.0,
            noise_workaround="random_functions",
            analog_substeps=1,
        )
        cs = CoSimulation(FrontendConfig(), config)
        report = cs.run_cosim(1, seed=4)
        assert report.rf_noise_active

    def test_system_side_workaround_adds_stimulus_noise(self):
        config = CoSimConfig(
            rate_mbps=24,
            psdu_bytes=30,
            input_level_dbm=-60.0,
            noise_workaround="system_side",
            analog_substeps=1,
        )
        cs = CoSimulation(FrontendConfig(), config)
        rng = np.random.default_rng(5)
        sig, _ = cs._stimulus(rng)
        config_none = CoSimConfig(
            rate_mbps=24, psdu_bytes=30, input_level_dbm=-60.0,
            analog_substeps=1,
        )
        cs2 = CoSimulation(FrontendConfig(), config_none)
        sig2, _ = cs2._stimulus(np.random.default_rng(5))
        assert sig.power_watts() > sig2.power_watts()

    def test_unknown_workaround_rejected(self):
        with pytest.raises(ValueError):
            CoSimConfig(noise_workaround="prayer")


class TestEdgeCases:
    """Degenerate stimuli must fail cleanly, not hang or index-fault."""

    def test_zero_length_stimulus(self):
        interp = InterpretedFrontend(FrontendConfig(), substeps=1)
        out = interp.run(np.zeros(0, complex), np.random.default_rng(0))
        assert out.size == 0
        assert out.dtype == complex

    def test_multidimensional_stimulus_rejected(self):
        interp = InterpretedFrontend(FrontendConfig(), substeps=1)
        with pytest.raises(ValueError, match="one-dimensional"):
            interp.run(np.zeros((4, 4), complex), np.random.default_rng(0))

    def test_mismatched_sample_rate_rejected(self):
        cfg = FrontendConfig()
        interp = InterpretedFrontend(cfg, substeps=1)
        wrong = Signal(np.zeros(16, complex), cfg.sample_rate_in / 2)
        with pytest.raises(ValueError, match="expects"):
            interp.run_signal(wrong, np.random.default_rng(0))

    def test_matched_sample_rate_accepted(self):
        cfg = FrontendConfig()
        interp = InterpretedFrontend(cfg, substeps=1)
        sig = Signal(np.zeros(cfg.decimation * 8, complex), cfg.sample_rate_in)
        out = interp.run_signal(sig, np.random.default_rng(0))
        assert out.sample_rate == pytest.approx(20e6)
        assert len(out) == 8

    def test_max_steps_validation(self):
        with pytest.raises(ValueError):
            InterpretedFrontend(FrontendConfig(), max_steps=0)

    def test_lockstep_abort_mid_packet(self):
        # A sub-step budget models the analog solver giving up mid-packet:
        # the engine must raise a diagnosable abort, not hang or return a
        # truncated waveform that decodes to garbage downstream.
        interp = InterpretedFrontend(
            FrontendConfig(), noise_enabled=False, substeps=4, max_steps=10
        )
        with pytest.raises(CoSimAbort) as excinfo:
            interp.run(np.full(16, 1e-3 + 0j), np.random.default_rng(0))
        abort = excinfo.value
        assert abort.steps_completed == 10
        assert abort.samples_completed == 10 // 4
        assert "aborted" in str(abort)

    def test_sufficient_budget_does_not_abort(self):
        interp = InterpretedFrontend(
            FrontendConfig(), noise_enabled=False, substeps=2, max_steps=32
        )
        out = interp.run(np.zeros(16, complex), np.random.default_rng(0))
        assert out.size == 16 // FrontendConfig().decimation
