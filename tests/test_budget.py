"""Tests for the RF line-up budget (repro.rf.cascade)."""

import numpy as np
import pytest

from repro.rf.cascade import (
    StageSpec,
    active_stage_cascade,
    cascade_gain_db,
    cascade_iip3_dbm,
    cascade_table,
    friis_noise_figure_db,
    frontend_stages,
    sensitivity_dbm,
    spurious_free_range_db,
    tap_prefixes,
)
from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
from repro.rf.zeroif import ZeroIfConfig


class TestCascadeAnalysis:
    def test_single_stage(self):
        stages = [StageSpec("amp", 10.0, 3.0, 5.0)]
        assert cascade_gain_db(stages) == pytest.approx(10.0)
        assert friis_noise_figure_db(stages) == pytest.approx(3.0)
        assert cascade_iip3_dbm(stages) == pytest.approx(5.0)

    def test_gain_adds(self):
        stages = [
            StageSpec("a", 10.0), StageSpec("b", 8.0), StageSpec("c", -2.0)
        ]
        assert cascade_gain_db(stages) == pytest.approx(16.0)

    def test_first_stage_dominates_nf(self):
        front_heavy = [
            StageSpec("lna", 20.0, 2.0), StageSpec("mix", 0.0, 12.0)
        ]
        # With 20 dB in front, the 12 dB second stage barely matters.
        assert friis_noise_figure_db(front_heavy) < 3.0

    def test_rows_are_cumulative(self):
        stages = frontend_stages(FrontendConfig())
        cuts = tap_prefixes(stages)
        assert list(cuts) == ["lna", "mixer1", "mixer2"]
        gains = [cascade_gain_db(stages[:c]) for c in cuts.values()]
        assert gains == sorted(gains)  # all stages have positive gain
        nfs = [friis_noise_figure_db(stages[:c]) for c in cuts.values()]
        assert nfs == sorted(nfs)  # NF can only grow along the chain

    def test_infinite_iip3_linear_chain(self):
        stages = [StageSpec("ideal", 10.0, 0.0, np.inf)]
        assert cascade_iip3_dbm(stages) == np.inf
        assert spurious_free_range_db(stages, -30.0) == np.inf


class TestFrontendStages:
    def test_double_conversion_lineup(self):
        stages = frontend_stages(FrontendConfig())
        assert [s.name for s in stages] == [
            "lna", "mixer1", "mixer1_nl", "mixer2", "mixer2_nl",
        ]
        # The mixer nonlinearities sit after the conversion gain.
        assert stages[1].iip3_dbm == np.inf
        assert stages[2].gain_db == 0.0 and stages[2].iip3_dbm == 14.0

    def test_zero_if_lineup(self):
        stages = frontend_stages(ZeroIfConfig())
        assert [s.name for s in stages] == ["lna", "mixer", "mixer_nl"]
        assert tap_prefixes(stages) == {"lna": 1, "mixer": 3}

    def test_matches_active_stage_cascade(self):
        rx = DoubleConversionReceiver(FrontendConfig(lna_p1db_dbm=-20.0))
        assert active_stage_cascade(rx)[1] == frontend_stages(rx.config)

    def test_paper_receiver_figures(self):
        """The budget of the paper's receiver: -14.4 dBm IIP3, 3.46 dB NF."""
        stages = frontend_stages(FrontendConfig())
        assert cascade_iip3_dbm(stages) == pytest.approx(-14.405, abs=0.01)
        assert friis_noise_figure_db(stages) == pytest.approx(3.455, abs=0.01)
        assert spurious_free_range_db(stages, -30.0) == pytest.approx(
            31.19, abs=0.01
        )


class TestStageValidation:
    def test_negative_nf_rejected(self):
        with pytest.raises(ValueError, match="noise figure"):
            StageSpec("amp", 10.0, nf_db=-0.5)

    @pytest.mark.parametrize("field", ["gain_db", "nf_db", "iip3_dbm"])
    def test_nan_rejected(self, field):
        kwargs = {"gain_db": 10.0, "nf_db": 3.0, "iip3_dbm": 0.0}
        kwargs[field] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            StageSpec("amp", **kwargs)

    @pytest.mark.parametrize(
        "field", ["lna_nf_db", "mixer1_nf_db", "mixer2_nf_db"]
    )
    def test_frontend_config_rejects_negative_nf(self, field):
        with pytest.raises(ValueError, match=field):
            FrontendConfig(**{field: -3.0})

    @pytest.mark.parametrize("field", ["lna_nf_db", "mixer_nf_db"])
    def test_zero_if_config_rejects_negative_nf(self, field):
        with pytest.raises(ValueError, match=field):
            ZeroIfConfig(**{field: -3.0})


class TestSensitivityEstimate:
    def test_formula(self):
        stages = [StageSpec("amp", 10.0, 4.0)]
        s = sensitivity_dbm(stages, required_snr_db=10.0, bandwidth_hz=16.6e6)
        expected = -174.0 + 10 * np.log10(16.6e6) + 4.0 + 10.0
        assert s == pytest.approx(expected, abs=0.1)

    def test_budget_predicts_measured_sensitivity(self):
        """The paper-style cross-check: link budget vs simulated BER.

        24 Mbps (16-QAM r=1/2) needs ~11 dB SNR; the measured sensitivity
        of the default front end (-87 dBm, see bench_sensitivity) must
        agree with the budget within a couple of dB.
        """
        budget = sensitivity_dbm(
            frontend_stages(FrontendConfig()), required_snr_db=11.0
        )
        assert budget == pytest.approx(-87.0, abs=3.0)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            sensitivity_dbm([StageSpec("amp", 10.0)], 10.0, bandwidth_hz=0.0)

    def test_spurious_free_range(self):
        stages = [StageSpec("amp", 0.0, 0.0, 0.0)]
        assert spurious_free_range_db(stages, -20.0) == pytest.approx(40.0)


class TestRendering:
    def test_table_renders(self):
        table = cascade_table(frontend_stages(FrontendConfig()))
        assert "lna" in table
        assert "mixer1_nl" not in table  # one row per probe tap
        assert "cum NF [dB]" in table
        assert "-14.4" in table
