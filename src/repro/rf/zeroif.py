"""Direct-conversion (zero-IF) receiver — the architecture the paper's
double-conversion design avoids.

Section 2.2 motivates the double conversion: converting 5.2 GHz straight
to baseband with a single quadrature mixer puts the LO at the RF
frequency, so LO leakage self-mixes into a *large* in-band DC offset, and
the mixer's flicker noise lands directly on the signal.  The only remedy —
a baseband DC-blocking high-pass — now trades DC rejection against
notching out the OFDM subcarriers nearest to DC (the first data carriers
sit only 312.5 kHz away).

:class:`ZeroIfReceiver` implements that architecture with the same
building blocks and interface as
:class:`repro.rf.frontend.DoubleConversionReceiver`, so the two can be
compared head-to-head in the system test bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.dsp.params import CARRIER_FREQUENCY, SAMPLE_RATE
from repro.rf.adc import Adc
from repro.rf.amplifier import AgcAmplifier, Amplifier
from repro.rf.filters import (
    butterworth_highpass,
    check_filter_edge,
    chebyshev_lowpass,
)
from repro.rf.mixer import QuadratureMixer
from repro.rf.noise import check_noise_figures
from repro.rf.oscillator import LocalOscillator
from repro.rf.signal import Signal


@dataclass
class ZeroIfConfig:
    """Zero-IF receiver parameters.

    The defaults deliberately carry the architecture's burdens: a strong
    self-mixing DC offset (the LO sits at the RF carrier and leaks through
    the LNA) and elevated flicker noise at baseband.

    Attributes:
        sample_rate_in / carrier_frequency: as in the double-conversion
            front end.
        lna_*: low-noise amplifier.
        mixer_*: the single quadrature down-conversion stage.
        dc_offset_dbm: self-mixing DC product at the mixer output —
            typically 20-30 dB larger than in the double-conversion design.
        flicker_power_dbm / flicker_corner_hz: baseband 1/f noise.
        dc_block_cutoff_hz: baseband high-pass cutoff; 0 disables the
            DC block entirely.  The architectural dilemma: a cutoff big
            enough to remove the offset starts eroding subcarrier +/-1 at
            312.5 kHz.
        lpf_*: channel-selection low-pass.
        agc_* / adc_*: as in the double-conversion design.
    """

    sample_rate_in: float = 4 * SAMPLE_RATE
    carrier_frequency: float = CARRIER_FREQUENCY

    lna_gain_db: float = 16.0
    lna_nf_db: float = 3.0
    lna_p1db_dbm: float = -12.0

    mixer_gain_db: float = 10.0
    mixer_nf_db: float = 12.0
    mixer_iip3_dbm: float = 16.0
    dc_offset_dbm: Optional[float] = -25.0
    flicker_power_dbm: Optional[float] = -65.0
    flicker_corner_hz: float = 1e6
    iq_amplitude_db: float = 0.2
    iq_phase_deg: float = 1.0

    lo_error_ppm: float = 0.0
    lo_phase_noise_dbc_hz: Optional[float] = None

    dc_block_cutoff_hz: float = 200e3
    dc_block_order: int = 1

    lpf_edge_hz: float = 8.6e6
    lpf_order: int = 7
    lpf_ripple_db: float = 0.5

    agc_target_dbm: float = -12.0
    agc_min_gain_db: float = -20.0
    agc_max_gain_db: float = 70.0

    adc_bits: Optional[int] = 10
    adc_full_scale_dbm: float = 0.0

    noise_enabled: bool = True

    def __post_init__(self):
        ratio = self.sample_rate_in / SAMPLE_RATE
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError(
                "sample_rate_in must be an integer multiple of 20 MHz"
            )
        check_noise_figures(self)
        check_filter_edge("lpf_edge_hz", self.lpf_edge_hz, self.sample_rate_in)
        check_filter_edge(
            "dc_block_cutoff_hz", self.dc_block_cutoff_hz,
            self.sample_rate_in, allow_zero=True,
        )

    @property
    def decimation(self) -> int:
        """ADC decimation down to the 20 MHz DSP rate."""
        return int(round(self.sample_rate_in / SAMPLE_RATE))


class ZeroIfReceiver:
    """Executable model of a direct-conversion receiver front end."""

    def __init__(self, config: ZeroIfConfig = ZeroIfConfig()):
        self.config = config
        self._build()

    def _build(self):
        cfg = self.config
        self.lna = Amplifier.spw_style(
            cfg.lna_gain_db, cfg.lna_nf_db, cfg.lna_p1db_dbm
        )
        self.lna.noise_enabled = cfg.noise_enabled
        self.lo = LocalOscillator(
            frequency_hz=cfg.carrier_frequency,
            frequency_error_ppm=cfg.lo_error_ppm,
            phase_noise_dbc_hz=cfg.lo_phase_noise_dbc_hz,
        )
        self.mixer = QuadratureMixer(
            lo=self.lo,
            conversion_gain_db=cfg.mixer_gain_db,
            noise_figure_db=cfg.mixer_nf_db,
            dc_offset_dbm=cfg.dc_offset_dbm,
            flicker_power_dbm=cfg.flicker_power_dbm,
            flicker_corner_hz=cfg.flicker_corner_hz,
            amplitude_imbalance_db=cfg.iq_amplitude_db,
            phase_imbalance_deg=cfg.iq_phase_deg,
            noise_enabled=cfg.noise_enabled,
        )
        from repro.rf.nonlinearity import CubicNonlinearity

        self._mixer_nl = CubicNonlinearity(
            gain_db=0.0, iip3_dbm=cfg.mixer_iip3_dbm
        )
        self.dc_block = (
            butterworth_highpass(
                cfg.dc_block_cutoff_hz,
                cfg.sample_rate_in,
                order=cfg.dc_block_order,
            )
            if cfg.dc_block_cutoff_hz > 0
            else None
        )
        self.lpf = chebyshev_lowpass(
            cfg.lpf_edge_hz,
            cfg.sample_rate_in,
            order=cfg.lpf_order,
            ripple_db=cfg.lpf_ripple_db,
        )
        self.agc = AgcAmplifier(
            target_dbm=cfg.agc_target_dbm,
            min_gain_db=cfg.agc_min_gain_db,
            max_gain_db=cfg.agc_max_gain_db,
        )
        self.adc = Adc(
            n_bits=cfg.adc_bits,
            full_scale_dbm=cfg.adc_full_scale_dbm,
            decimation=cfg.decimation,
        )

    def process(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Signal:
        """Run a received RF signal through the zero-IF chain."""
        return self.stage_outputs(signal, rng)[-1][1]

    def stage_outputs(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> List[Tuple[str, Signal]]:
        """Per-stage signal trace (mirrors the double-conversion API)."""
        cfg = self.config
        if signal.sample_rate != cfg.sample_rate_in:
            raise ValueError(
                f"expected input at {cfg.sample_rate_in:g} Hz"
            )
        stages: List[Tuple[str, Signal]] = [("input", signal)]
        s = self.lna.process(signal, rng)
        stages.append(("lna", s))
        s = self.mixer.process(s, rng)
        s = s.with_samples(self._mixer_nl.apply(s.samples))
        stages.append(("mixer", s))
        if self.dc_block is not None:
            s = self.dc_block.process(s)
        stages.append(("dc_block", s))
        s = self.lpf.process(s)
        stages.append(("lpf", s))
        s = self.agc.process(s, rng)
        stages.append(("agc", s))
        s = self.adc.process(s)
        stages.append(("adc", s))
        return stages
