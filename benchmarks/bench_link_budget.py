"""Link-budget cross-check: analytic cascade vs simulated measurements.

The RF systems view of the paper's front end: the Friis cascade table, the
budget-predicted sensitivity, and the cross-check of both against the
SpectreRF-style measurement and the end-to-end BER simulation — closing
the loop between hand analysis, block characterization and system
simulation.
"""

import numpy as np

from repro.core.reporting import render_table
from repro.core.sensitivity import find_sensitivity
from repro.flow.blackbox import extract_blackbox
from repro.rf.cascade import (
    cascade_gain_db,
    cascade_table,
    friis_noise_figure_db,
    frontend_stages,
    sensitivity_dbm,
)
from repro.rf.frontend import FrontendConfig

#: Approximate SNR requirements of the coded 802.11a modes [dB].
REQUIRED_SNR_DB = {6: 4.0, 12: 7.0, 24: 11.0, 54: 20.0}


def _analysis():
    from dataclasses import replace

    cfg = FrontendConfig()
    stages = frontend_stages(cfg)
    # Measure the NF of the actual chain: the black-box extraction does a
    # bandwidth-aware (ENB) noise measurement with the AGC pinned.
    quiet_cfg = replace(cfg, dc_offset_dbm=None, flicker_power_dbm=None)
    measured_nf = extract_blackbox(
        quiet_cfg, rng=np.random.default_rng(0)
    ).characterization
    budget_sens = {
        rate: sensitivity_dbm(stages, snr)
        for rate, snr in REQUIRED_SNR_DB.items()
    }
    simulated = find_sensitivity(
        24, n_packets=5, psdu_bytes=100, start_dbm=-78.0, seed=4
    )
    return stages, measured_nf, budget_sens, simulated


def test_link_budget_cross_check(benchmark, save_result):
    stages, measured_nf, budget_sens, simulated = benchmark.pedantic(
        _analysis, rounds=1, iterations=1
    )
    nf_db = friis_noise_figure_db(stages)
    parts = [
        "RF cascade (Friis) analysis of the figure-2 front end",
        cascade_table(stages),
        "",
        f"analytic cascade NF: {nf_db:.2f} dB; measured "
        f"(black-box extraction, ENB-referred): "
        f"{measured_nf.noise_figure_db:.2f} dB",
        "",
        render_table(
            ["rate [Mbps]", "budget sensitivity [dBm]"],
            [[str(r), f"{s:.1f}"] for r, s in sorted(budget_sens.items())],
        ),
        "",
        f"simulated sensitivity at 24 Mbps: "
        f"{simulated.sensitivity_dbm:.0f} dBm "
        f"(budget: {budget_sens[24]:.1f} dBm)",
    ]
    save_result("link_budget", "\n".join(parts))

    # Budget NF vs block-level measurement agree within a dB (the chain
    # measurement sees the in-band noise after the channel filter).
    assert measured_nf.noise_figure_db == (
        __import__("pytest").approx(nf_db, abs=1.5)
    )
    # Budget sensitivity tracks the simulated sensitivity within ~2 dB.
    assert abs(budget_sens[24] - simulated.sensitivity_dbm) < 2.5
    # Cascade facts: gain 30 dB, NF LNA-dominated.
    assert cascade_gain_db(stages) == __import__("pytest").approx(30.0)
    assert 3.0 < nf_db < 5.0
