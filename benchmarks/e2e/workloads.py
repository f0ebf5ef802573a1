"""The four benchmark workloads and the sweeps each one runs.

Each workload is a fixed list of BER sweeps built from ``--seed``.  The
sweep grids are plain data here so that ``run.py`` can name workloads
and count their operations without importing the simulator; the sweeps
themselves are built (and ``repro`` imported) only inside a repetition
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Added to the workload seed for the warm-up batch, so that set-up
#: never simulates one of the timed packets.
WARMUP_SEED_OFFSET = 1_000_003

FIG5_LPF_EDGES_HZ = tuple(r * 1e8 for r in (0.04, 0.06, 0.08, 0.10, 0.14, 0.20))
FIG6_LNA_P1DB_DBM = (-55.0, -45.0, -40.0, -35.0, -25.0, -15.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name given to ``--workload``.
        points: sweep points per sweep, in sweep order; one sweep point is
            one outermost pool task, the unit ``attempted`` counts.
        packets: packets per sweep point.
        batch_size: packets per stacked PHY-chain pass.
        jobs: pool worker processes for the sweep points.
        probes: signal-probe preset, or None for probes off.
    """

    name: str
    points: Tuple[int, ...]
    packets: int
    batch_size: int
    jobs: int = 1
    probes: Optional[str] = None

    @property
    def ops_per_pass(self) -> int:
        return sum(self.points)

    @property
    def packets_per_pass(self) -> int:
        return self.ops_per_pass * self.packets


#: Why each workload is here is in BENCHMARK.json and README.md; in short:
#: fig5/fig6 are the paper's RF-path figures (fig6 is the only one through
#: the process pool and probes), dsp-awgn is the DSP-only batch-1 path that
#: RF/channel changes must not move, and hostile-coexistence is the
#: emitter/fading-bound scenario preset with no RF front end.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig5-adjacent", points=(len(FIG5_LPF_EDGES_HZ),),
                 packets=32, batch_size=16),
        Workload("fig6-compression",
                 points=(len(FIG6_LNA_P1DB_DBM), len(FIG6_LNA_P1DB_DBM)),
                 packets=32, batch_size=16, jobs=2, probes="basic"),
        Workload("dsp-awgn", points=(2,), packets=64, batch_size=1),
        Workload("hostile-coexistence", points=(4,), packets=6,
                 batch_size=16),
    )
}


def build_sweeps(workload: Workload, seed: int):
    """The workload's ``ParameterSweep`` objects for one seed, in order."""
    from repro.channel.interference import InterferenceScenario
    from repro.core.sweep import ParameterSweep
    from repro.core.testbench import TestbenchConfig
    from repro.rf.frontend import FrontendConfig
    from repro.scenario import Scenario

    def rf_bench(interference):
        return TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=60,
            thermal_floor=True,
            frontend=FrontendConfig(),
            interference=interference,
            input_level_dbm=-60.0,
        )

    if workload.name == "fig5-adjacent":
        specs = [(
            rf_bench(InterferenceScenario.adjacent()),
            "frontend.lpf_edge_hz",
            list(FIG5_LPF_EDGES_HZ),
        )]
    elif workload.name == "fig6-compression":
        specs = [
            (rf_bench(scenario), "frontend.lna_p1db_dbm",
             list(FIG6_LNA_P1DB_DBM))
            for scenario in (
                InterferenceScenario.none(), InterferenceScenario.adjacent()
            )
        ]
    elif workload.name == "dsp-awgn":
        specs = [(
            TestbenchConfig(rate_mbps=6, psdu_bytes=100, snr_db=17.0),
            "rate_mbps",
            [6, 54],
        )]
    elif workload.name == "hostile-coexistence":
        specs = [(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=60,
                scenario=Scenario.preset("hostile-coexistence"),
            ),
            "snr_db",
            [8.0, 12.0, 16.0, 20.0],
        )]
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    sweeps = [
        ParameterSweep(
            base_config=config,
            parameter=parameter,
            values=values,
            n_packets=workload.packets,
            seed=seed,
        )
        for config, parameter, values in specs
    ]
    assert tuple(len(s.values) for s in sweeps) == workload.points
    return sweeps
