"""The double-conversion receiver front-end of figure 2.

Signal path (both mixers share the 2.6 GHz LO):

    RF (5.2 GHz) -> LNA -> mixer 1 (to 2.6 GHz IF) -> inter-stage high-pass
    -> quadrature mixer 2 (to baseband) -> Chebyshev channel-select low-pass
    -> AGC amplifier -> ADC (20 MHz)

Complex-baseband modeling note: the envelope is referenced to the wanted
channel's carrier, so the first mixer's self-mixing product (at absolute
0 Hz, far outside the simulated band) vanishes from the representation —
the very property of the architecture the paper highlights ("as there is no
signal at 0 Hz, this architecture overcomes problems concerning image
rejection").  The second mixer's self-mixing lands at envelope DC and is
modeled, together with its flicker noise; the inter-stage high-pass (a
coupling element in figure 2) consequently acts on the down-converted
envelope, where it performs its functional job of blocking DC and 1/f
noise.

Three ready-made configurations mirror the paper's model libraries:

* :func:`spw_library_config` — P1dB-parameterized cubic nonlinearities, no
  AM/PM (the SPW rflib parameterization),
* :func:`spectre_library_config` — IIP3-parameterized Rapp models with
  AM/PM conversion (the Spectre rflib parameterization; the paper notes
  "the model parameters from Spectre and SPW models are different in some
  cases"),
* :func:`ideal_frontend_config` — an impairment-free reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.dsp.params import CARRIER_FREQUENCY, SAMPLE_RATE
from repro.rf.adc import Adc
from repro.rf.amplifier import AgcAmplifier, Amplifier
from repro.rf.filters import (
    AnalogFilter,
    butterworth_highpass,
    check_filter_edge,
    chebyshev_lowpass,
)
from repro.rf.mixer import Mixer, QuadratureMixer
from repro.rf.noise import check_noise_figures
from repro.rf.nonlinearity import CubicNonlinearity
from repro.rf.oscillator import LocalOscillator
from repro.rf.signal import Signal

#: The paper's LO frequency: half the 5.2 GHz RF carrier.
LO_FREQUENCY = 2.6e9


@dataclass
class FrontendConfig:
    """All parameters of the double-conversion receiver.

    The defaults describe a plausible 802.11a front end meeting the paper's
    requirements (input range -88..-23 dBm, adjacent channel +16 dB).

    Attributes:
        sample_rate_in: input (oversampled) envelope rate; must be an
            integer multiple of 20 MHz.
        carrier_frequency: RF carrier of the wanted channel.
        lna_gain_db / lna_nf_db / lna_p1db_dbm: first LNA parameters;
            ``lna_p1db_dbm`` is the figure-6 sweep parameter.
        lna_model: ``"cubic"`` (SPW-style) or ``"rapp"`` (Spectre-style).
        lna_am_pm_deg: AM/PM conversion (Rapp model only).
        mixer1_gain_db / mixer1_nf_db / mixer1_iip3_dbm: first mixer.
        image_rejection_db: image-rejection ratio of the first conversion.
        mixer2_gain_db / mixer2_nf_db: quadrature mixer.
        dc_offset_dbm: self-mixing DC product at the mixer-2 output.
        flicker_power_dbm / flicker_corner_hz: mixer-2 1/f noise.
        iq_amplitude_db / iq_phase_deg: quadrature imbalance.
        lo_error_ppm / lo_phase_noise_dbc_hz: shared-LO impairments.
        hpf_enabled / hpf_cutoff_hz / hpf_order: inter-stage DC-blocking
            high-pass (disabling it mimics a direct-conversion design with
            no DC-offset removal).
        lpf_edge_hz / lpf_order / lpf_ripple_db: Chebyshev channel filter;
            ``lpf_edge_hz`` is the figure-5 sweep parameter.
        agc_target_dbm: AGC output level (ADC headroom for OFDM PAPR).
        adc_bits: ADC resolution; None for an ideal ADC.
        adc_full_scale_dbm: ADC full-scale envelope power.
        noise_enabled: master noise switch (the co-simulation
            "no noise functions" mode clears it).
    """

    sample_rate_in: float = 4 * SAMPLE_RATE
    carrier_frequency: float = CARRIER_FREQUENCY

    lna_gain_db: float = 16.0
    lna_nf_db: float = 3.0
    lna_p1db_dbm: float = -12.0
    lna_model: str = "cubic"
    lna_am_pm_deg: float = 0.0

    mixer1_gain_db: float = 8.0
    mixer1_nf_db: float = 9.0
    mixer1_iip3_dbm: float = 14.0
    image_rejection_db: float = np.inf

    mixer2_gain_db: float = 6.0
    mixer2_nf_db: float = 11.0
    mixer2_iip3_dbm: float = 18.0
    dc_offset_dbm: Optional[float] = -45.0
    flicker_power_dbm: Optional[float] = -75.0
    flicker_corner_hz: float = 1e6
    iq_amplitude_db: float = 0.0
    iq_phase_deg: float = 0.0

    lo_error_ppm: float = 0.0
    lo_phase_noise_dbc_hz: Optional[float] = None
    lo_phase_noise_ref_hz: float = 1e6

    hpf_enabled: bool = True
    hpf_cutoff_hz: float = 120e3
    hpf_order: int = 2

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
            "hpf_cutoff_hz", self.hpf_cutoff_hz, self.sample_rate_in
        )

    @property
    def decimation(self) -> int:
        """ADC decimation factor down to the 20 MHz DSP rate."""
        return int(round(self.sample_rate_in / SAMPLE_RATE))


def ideal_frontend_config(**overrides) -> FrontendConfig:
    """A front end free of noise, compression and offset impairments."""
    cfg = FrontendConfig(
        lna_nf_db=0.0,
        lna_p1db_dbm=60.0,
        mixer1_nf_db=0.0,
        mixer1_iip3_dbm=80.0,
        mixer2_nf_db=0.0,
        mixer2_iip3_dbm=80.0,
        dc_offset_dbm=None,
        flicker_power_dbm=None,
        adc_bits=None,
        noise_enabled=False,
    )
    return replace(cfg, **overrides)


def spw_library_config(**overrides) -> FrontendConfig:
    """SPW rflib parameterization: cubic models referenced to P1dB."""
    return replace(FrontendConfig(lna_model="cubic"), **overrides)


def spectre_library_config(**overrides) -> FrontendConfig:
    """Spectre rflib parameterization: Rapp models with AM/PM, IIP3 refs."""
    cfg = FrontendConfig(lna_model="rapp", lna_am_pm_deg=4.0)
    return replace(cfg, **overrides)


class DoubleConversionReceiver:
    """Executable model of the figure-2 receiver front end."""

    def __init__(self, config: FrontendConfig = FrontendConfig()):
        self.config = config
        self._build()

    def _build(self):
        cfg = self.config
        if cfg.lna_model == "cubic":
            self.lna = Amplifier.spw_style(
                cfg.lna_gain_db, cfg.lna_nf_db, cfg.lna_p1db_dbm
            )
        elif cfg.lna_model == "rapp":
            from repro.rf.nonlinearity import iip3_from_p1db

            self.lna = Amplifier.spectre_style(
                cfg.lna_gain_db,
                cfg.lna_nf_db,
                iip3_from_p1db(cfg.lna_p1db_dbm),
                am_pm_deg=cfg.lna_am_pm_deg,
            )
        else:
            raise ValueError(f"unknown LNA model {cfg.lna_model!r}")
        self.lna.noise_enabled = cfg.noise_enabled

        self.lo = LocalOscillator(
            frequency_hz=LO_FREQUENCY,
            frequency_error_ppm=cfg.lo_error_ppm,
            phase_noise_dbc_hz=cfg.lo_phase_noise_dbc_hz,
            phase_noise_ref_hz=cfg.lo_phase_noise_ref_hz,
        )
        self.mixer1 = Mixer(
            lo=self.lo,
            conversion_gain_db=cfg.mixer1_gain_db,
            noise_figure_db=cfg.mixer1_nf_db,
            image_rejection_db=cfg.image_rejection_db,
            noise_enabled=cfg.noise_enabled,
        )
        mixer1_nl = CubicNonlinearity(
            gain_db=0.0, iip3_dbm=cfg.mixer1_iip3_dbm
        )
        self._mixer1_nl = mixer1_nl
        self.mixer2 = QuadratureMixer(
            lo=self.lo,
            conversion_gain_db=cfg.mixer2_gain_db,
            noise_figure_db=cfg.mixer2_nf_db,
            dc_offset_dbm=cfg.dc_offset_dbm,
            flicker_power_dbm=cfg.flicker_power_dbm,
            flicker_corner_hz=cfg.flicker_corner_hz,
            amplitude_imbalance_db=cfg.iq_amplitude_db,
            phase_imbalance_deg=cfg.iq_phase_deg,
            noise_enabled=cfg.noise_enabled,
        )
        self._mixer2_nl = CubicNonlinearity(
            gain_db=0.0, iip3_dbm=cfg.mixer2_iip3_dbm
        )
        self.hpf = butterworth_highpass(
            cfg.hpf_cutoff_hz, cfg.sample_rate_in, order=cfg.hpf_order
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

    def set_noise_enabled(self, enabled: bool):
        """Toggle all noise sources (the co-simulation noise-gap switch)."""
        self.config = replace(self.config, noise_enabled=enabled)
        self._build()

    def process(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> Signal:
        """Run a received RF signal through the complete front end.

        Args:
            signal: oversampled complex envelope at the RF carrier
                reference (``config.sample_rate_in``).
            rng: random generator for the noise sources.

        Returns:
            Digitized complex baseband at 20 MHz.
        """
        return self.stage_outputs(signal, rng)[-1][1]

    def stage_outputs(
        self, signal: Signal, rng: Optional[np.random.Generator] = None
    ) -> List[Tuple[str, Signal]]:
        """Like :meth:`process`, but returns every intermediate signal.

        Used by the figure-2 bench to trace signal levels through the
        chain.
        """
        cfg = self.config
        if signal.sample_rate != cfg.sample_rate_in:
            raise ValueError(
                f"expected input at {cfg.sample_rate_in:g} Hz, got "
                f"{signal.sample_rate:g} Hz"
            )
        stages: List[Tuple[str, Signal]] = [("input", signal)]
        s = self.lna.process(signal, rng)
        stages.append(("lna", s))
        s = self.mixer1.process(s, rng)
        s = s.with_samples(self._mixer1_nl.apply(s.samples))
        stages.append(("mixer1", s))
        s = self.mixer2.process(s, rng)
        s = s.with_samples(self._mixer2_nl.apply(s.samples))
        stages.append(("mixer2", s))
        if cfg.hpf_enabled:
            s = self.hpf.process(s)
        stages.append(("hpf", s))
        s = self.lpf.process(s)
        stages.append(("lpf", s))
        s = self.agc.process(s, rng)
        stages.append(("agc", s))
        s = self.adc.process(s)
        stages.append(("adc", s))
        return stages
