"""Analytic-oracle tests: theory sanity, Monte-Carlo BER, cascade budget."""

import numpy as np
import pytest

from repro.core.metrics import binomial_confidence
from repro.qa import oracles


class TestTheory:
    def test_bpsk_known_point(self):
        # Q(sqrt(2)) at Eb/N0 = 0 dB: the textbook 7.865e-2.
        assert oracles.theoretical_ber("BPSK", 0.0) == pytest.approx(
            0.0786496, rel=1e-4
        )

    def test_qpsk_equals_bpsk_per_bit(self):
        for ebn0 in (0.0, 4.0, 8.0):
            assert oracles.theoretical_ber("QPSK", ebn0) == pytest.approx(
                oracles.theoretical_ber("BPSK", ebn0), rel=1e-12
            )

    def test_monotonic_in_ebn0(self):
        for mod in ("BPSK", "QPSK", "QAM16", "QAM64"):
            bers = [oracles.theoretical_ber(mod, e) for e in range(0, 16, 2)]
            assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_denser_constellations_are_worse(self):
        ebn0 = 8.0
        bpsk = oracles.theoretical_ber("BPSK", ebn0)
        qam16 = oracles.theoretical_ber("QAM16", ebn0)
        qam64 = oracles.theoretical_ber("QAM64", ebn0)
        assert bpsk < qam16 < qam64

    def test_qam16_cho_yoon_known_point(self):
        # Independent numeric evaluation of the Cho-Yoon closed form at
        # Eb/N0 = 10 dB (gamma_b = 10): 16-QAM Gray BER ~ 1.754e-3.
        assert oracles.theoretical_ber("QAM16", 10.0) == pytest.approx(
            1.754e-3, rel=5e-3
        )

    def test_unknown_modulation_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            oracles.theoretical_ber("QAM256", 10.0)

    def test_rate_modulation_table_covers_all_rates(self):
        from repro.dsp.params import RATES

        assert sorted(oracles.RATE_MODULATIONS) == sorted(RATES)


class TestBinomialConfidence:
    def test_contains_point_estimate(self):
        low, high = binomial_confidence(37, 1000)
        assert low < 0.037 < high
        assert 0.0 <= low and high <= 1.0

    def test_zero_errors(self):
        low, high = binomial_confidence(0, 1000)
        assert low == 0.0
        assert 0.0 < high < 0.05

    def test_interval_shrinks_with_trials(self):
        low1, high1 = binomial_confidence(10, 100)
        low2, high2 = binomial_confidence(1000, 10_000)
        assert (high2 - low2) < (high1 - low1)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            binomial_confidence(0, 0)


class TestUncodedBerOracle:
    def test_bpsk_quick(self):
        check = oracles.check_uncoded_ber("BPSK", 4.0, n_bits=30_000, seed=1)
        assert check.passed, check.detail

    def test_simulation_is_deterministic(self):
        a = oracles.simulate_uncoded_ber("QPSK", 4.0, n_bits=20_000, seed=7)
        b = oracles.simulate_uncoded_ber("QPSK", 4.0, n_bits=20_000, seed=7)
        assert a.errors == b.errors
        assert a.ber == b.ber

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "modulation", sorted(oracles.UNCODED_ORACLE_POINTS)
    )
    def test_all_modulations_match_theory(self, modulation):
        ebn0 = oracles.UNCODED_ORACLE_POINTS[modulation]
        check = oracles.check_uncoded_ber(
            modulation, ebn0, n_bits=200_000, seed=0
        )
        assert check.passed, check.detail
        # The Monte-Carlo point must also be close in ratio, not merely
        # inside the (wide) statistical gate.
        assert check.measured == pytest.approx(check.expected, rel=0.25)

    @pytest.mark.slow
    def test_wrong_theory_is_rejected(self):
        # The gate has power: a point simulated 2 dB off theory fails.
        sim = oracles.simulate_uncoded_ber("BPSK", 6.0, n_bits=200_000, seed=3)
        low, high = binomial_confidence(sim.errors, sim.bits)
        assert not (low <= oracles.theoretical_ber("BPSK", 4.0) <= high)


class TestCodedBerOracle:
    @pytest.mark.slow
    def test_coded_chain_beats_uncoded_bound(self):
        check = oracles.check_coded_ber_bound(seed=0)
        assert check.passed, check.detail


class TestCascadeOracle:
    @pytest.fixture(scope="class")
    def checks(self):
        return {c.name: c for c in oracles.check_cascade_characterization()}

    def test_emits_four_figures(self, checks):
        assert sorted(checks) == [
            "cascade_gain_db",
            "cascade_iip3_dbm",
            "cascade_nf_db",
            "cascade_p1db_dbm",
        ]

    @pytest.mark.parametrize(
        "name,expected,tol",
        [
            ("cascade_gain_db", 30.0, 0.5),
            ("cascade_nf_db", 3.455, 0.75),
            ("cascade_iip3_dbm", -14.405, 1.0),
            ("cascade_p1db_dbm", -24.041, 1.5),
        ],
    )
    def test_characterize_matches_friis_budget(self, checks, name, expected, tol):
        check = checks[name]
        assert check.passed, check.detail
        assert check.expected == pytest.approx(expected, abs=0.05)
        assert abs(check.measured - check.expected) <= tol

    def test_link_budget_iip3_matches_characterize(self, checks):
        """The user-facing line-up budget agrees with the measurement."""
        from repro.rf import FrontendConfig, cascade_iip3_dbm, frontend_stages

        budget = cascade_iip3_dbm(frontend_stages(FrontendConfig()))
        measured = checks["cascade_iip3_dbm"].measured
        tol = oracles.CASCADE_TOLERANCES_DB["iip3"]
        assert abs(budget - measured) <= tol


class TestCascadeFormulas:
    def test_friis_single_stage(self):
        from repro.rf import StageSpec, friis_noise_figure_db

        stages = [StageSpec("lna", gain_db=20.0, nf_db=2.5)]
        assert friis_noise_figure_db(stages) == pytest.approx(2.5)

    def test_friis_second_stage_suppressed_by_gain(self):
        from repro.rf import StageSpec, friis_noise_figure_db

        stages = [
            StageSpec("lna", gain_db=20.0, nf_db=2.0),
            StageSpec("mixer", gain_db=0.0, nf_db=10.0),
        ]
        total = friis_noise_figure_db(stages)
        assert 2.0 < total < 3.0

    def test_cascade_iip3_dominated_by_last_stage(self):
        from repro.rf import StageSpec, cascade_iip3_dbm

        stages = [
            StageSpec("lna", gain_db=20.0, iip3_dbm=10.0),
            StageSpec("mixer", gain_db=0.0, iip3_dbm=5.0),
        ]
        # Referred to the input, the mixer contributes at 5 - 20 dBm.
        assert cascade_iip3_dbm(stages) == pytest.approx(-15.0, abs=0.2)

    def test_gain_sums(self):
        from repro.rf import StageSpec, cascade_gain_db

        stages = [
            StageSpec("a", gain_db=12.0),
            StageSpec("b", gain_db=-3.0),
            StageSpec("c", gain_db=21.0),
        ]
        assert cascade_gain_db(stages) == pytest.approx(30.0)
