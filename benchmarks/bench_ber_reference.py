"""Reference BER curves of the 802.11a demo system (ablation baseline).

The SPW demo system "performs a bit error rate (BER) measurement [over] an
additive white gaussian noise (AWGN) or a fading channel".  This bench
regenerates the BER-vs-SNR reference curves of the pure DSP system (no RF
front end) for all four constellations on AWGN, and one fading-channel
curve, establishing the baseline the RF experiments perturb.
"""

import numpy as np

from repro.channel.fading import FadingChannel
from repro.core.reporting import render_ascii_plot, render_table
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.scenario import Scenario

SNRS = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0]
RATES = [6, 12, 24, 54]
N_PACKETS = 4


def _awgn_curves():
    curves = {}
    for rate in RATES:
        bers = []
        for snr in SNRS:
            bench = WlanTestbench(
                TestbenchConfig(rate_mbps=rate, psdu_bytes=60, snr_db=snr)
            )
            bers.append(bench.measure_ber(n_packets=N_PACKETS, seed=90).ber)
        curves[rate] = bers
    return curves


def _fading_curve():
    bers = []
    for snr in SNRS:
        bench = WlanTestbench(
            TestbenchConfig(
                rate_mbps=12,
                psdu_bytes=60,
                snr_db=snr,
                scenario=Scenario(
                    fading=FadingChannel(rms_delay_spread_s=50e-9)
                ),
            )
        )
        bers.append(bench.measure_ber(n_packets=N_PACKETS, seed=91).ber)
    return bers


def test_awgn_ber_reference_curves(benchmark, save_result):
    curves = benchmark.pedantic(_awgn_curves, rounds=1, iterations=1)
    rows = []
    for rate in RATES:
        rows.append(
            [f"{rate} Mbps"] + [f"{b:.3f}" for b in curves[rate]]
        )
    table = render_table(
        ["rate"] + [f"{s:.0f} dB" for s in SNRS], rows
    )
    plot = render_ascii_plot(
        SNRS, curves[54], width=60, height=12,
        title="BER vs SNR, 54 Mbps AWGN (reference)",
        x_label="SNR [dB]", y_label="BER",
    )
    save_result("ber_reference_awgn", table + "\n\n" + plot)
    # Waterfalls: every curve is (weakly) monotone decreasing and the
    # robust 6 Mbps mode outperforms 54 Mbps at every SNR.
    for rate in RATES:
        bers = curves[rate]
        assert bers[0] >= bers[-1]
    for lo, hi in zip(curves[6], curves[54]):
        assert lo <= hi + 1e-9
    # 6 Mbps is error-free by 12 dB; 54 Mbps still fails there.
    assert curves[6][2] < 1e-3
    assert curves[54][2] > 0.05


def test_fading_ber_curve(benchmark, save_result):
    fading = benchmark.pedantic(_fading_curve, rounds=1, iterations=1)
    awgn = []
    for snr in SNRS:
        bench = WlanTestbench(
            TestbenchConfig(rate_mbps=12, psdu_bytes=60, snr_db=snr)
        )
        awgn.append(bench.measure_ber(n_packets=N_PACKETS, seed=90).ber)
    rows = [
        [f"{s:.0f}", f"{a:.3f}", f"{f:.3f}"]
        for s, a, f in zip(SNRS, awgn, fading)
    ]
    save_result(
        "ber_reference_fading",
        "BER vs SNR at 12 Mbps: AWGN vs 50 ns fading channel\n"
        + render_table(["SNR [dB]", "AWGN", "fading"], rows),
    )
    # Fading costs SNR: at the waterfall the fading BER is the worse one.
    assert sum(fading) >= sum(awgn)
