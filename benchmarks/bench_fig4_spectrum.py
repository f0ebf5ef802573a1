"""Figure 4 of the paper: OFDM signal and adjacent channel at 5.2 GHz.

Generates the wanted OFDM signal plus the +16 dB adjacent channel at a
20 MHz offset ("the transmitter model was duplicated and its OFDM signal
was shifted by 20 MHz in the frequency domain; the baseband signal was
over-sampled to fulfill the sampling theorem") and renders their combined
power spectral density around the 5.2 GHz carrier.
"""

import numpy as np

from repro.channel.interference import InterferenceScenario
from repro.core.reporting import render_ascii_plot, render_table
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.rf.signal import Signal
from repro.spectrum.psd import adjacent_channel_power_ratio_db, welch_psd


def _spectrum():
    rng = np.random.default_rng(4)
    wave = Transmitter(TxConfig(rate_mbps=24, oversample=4)).transmit(
        random_psdu(500, rng)
    )
    wanted = Signal(wave, 80e6, 5.2e9).scaled_to_dbm(-40.0)
    combined = InterferenceScenario.adjacent().apply(wanted, rng)
    psd = welch_psd(combined, nperseg=2048)
    acpr = adjacent_channel_power_ratio_db(combined)
    return psd, acpr


def test_fig4_ofdm_and_adjacent_channel(benchmark, save_result):
    psd, acpr = benchmark.pedantic(_spectrum, rounds=1, iterations=1)
    plot = render_ascii_plot(
        psd.absolute_freqs_hz / 1e9,
        psd.psd_dbm_hz,
        width=72,
        height=18,
        title="Figure 4 — OFDM signal and adjacent channel (PSD, dBm/Hz)",
        x_label="frequency [GHz]",
        y_label="PSD",
    )
    markers = []
    for offset in (-5e6, 0.0, 5e6, 15e6, 25e6, 35e6):
        idx = int(np.argmin(np.abs(psd.freqs_hz - offset)))
        markers.append(
            [f"{(5.2e9 + offset) / 1e9:.3f}",
             f"{psd.psd_dbm_hz[idx]:.1f}"]
        )
    table = render_table(["freq [GHz]", "PSD [dBm/Hz]"], markers)
    save_result(
        "fig4_spectrum",
        plot + "\n\n" + table + f"\n\nACPR upper (interferer): {acpr[1]:+.1f} dB",
    )
    # The wanted channel occupies 5.2 GHz; the interferer is ~16 dB hotter
    # and centered 20 MHz above.
    in_band = psd.band_power_watts(-8e6, 8e6)
    adjacent = psd.band_power_watts(12e6, 28e6)
    ratio_db = 10 * np.log10(adjacent / in_band)
    assert 13.0 < ratio_db < 19.0
    assert acpr[1] > 10.0


def test_fig4_oversampling_requirement(benchmark):
    """Without oversampling the 20 MHz offset violates Nyquist."""
    from repro.scenario import WlanEmitter

    def attempt():
        src = WlanEmitter(offset_channels=1)
        try:
            src.generate(1000, 20e6, 1e-6, np.random.default_rng(0))
        except ValueError as exc:
            return str(exc)
        return ""

    message = benchmark(attempt)
    assert "sampling theorem" in message
