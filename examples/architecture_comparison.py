"""Double-conversion vs zero-IF architecture comparison.

Quantifies section 2.2 of the paper: why the 5.2 GHz receiver uses two
mixer stages sharing a half-frequency LO instead of direct conversion —
plus the RF link-budget view of the chosen design.

Run:  python examples/architecture_comparison.py
"""

from repro.core.reporting import render_table
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.cascade import (
    cascade_gain_db,
    cascade_iip3_dbm,
    cascade_table,
    friis_noise_figure_db,
    frontend_stages,
    sensitivity_dbm,
)
from repro.rf.frontend import FrontendConfig
from repro.rf.zeroif import ZeroIfConfig


def ber(frontend, level, rate=54, seed=9):
    bench = WlanTestbench(
        TestbenchConfig(
            rate_mbps=rate,
            psdu_bytes=60,
            thermal_floor=True,
            frontend=frontend,
            input_level_dbm=level,
        )
    )
    return bench.measure_ber(n_packets=3, seed=seed).ber


def main():
    print("=== link budget of the double-conversion front end ===\n")
    stages = frontend_stages(FrontendConfig())
    print(cascade_table(stages))
    print(f"\ncascade: gain {cascade_gain_db(stages):+.1f} dB, "
          f"NF {friis_noise_figure_db(stages):.2f} dB, "
          f"IIP3 {cascade_iip3_dbm(stages):+.1f} dBm")
    print(f"budget sensitivity at 24 Mbps (11 dB SNR): "
          f"{sensitivity_dbm(stages, 11.0):.1f} dBm")

    print("\n=== architecture shoot-out (54 Mbps, 10 ppm LO error) ===\n")
    double = FrontendConfig(lo_error_ppm=10.0)
    zif = ZeroIfConfig(lo_error_ppm=10.0)
    zif_raw = ZeroIfConfig(lo_error_ppm=10.0, dc_block_cutoff_hz=0.0)
    rows = []
    for level in (-55.0, -72.0, -76.0, -78.0):
        rows.append(
            [f"{level:+.0f}",
             f"{ber(double, level):.3f}",
             f"{ber(zif, level):.3f}",
             f"{ber(zif_raw, level):.3f}"]
        )
    print(
        render_table(
            ["input [dBm]", "double conv.", "zero-IF + DC block",
             "zero-IF raw"],
            rows,
        )
    )
    print(
        "\nThe raw zero-IF fails at every level: its -25 dBm self-mixing\n"
        "DC offset (the LO sits at the RF carrier) swamps 64-QAM.  With a\n"
        "DC block it works, but gives up sensitivity to in-band flicker\n"
        "noise — the double conversion receiver's 2.6 GHz LO avoids both\n"
        "problems, which is exactly the paper's architectural argument."
    )


if __name__ == "__main__":
    main()
