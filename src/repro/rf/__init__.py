"""Complex-baseband behavioral models of the analog RF subsystem.

The paper models the double-conversion receiver (figure 2) with behavioral
RF models from the SPW and Spectre ``rflib`` libraries; "to keep the
simulation handily, it is mandatory to use complex baseband modeling
technique in the RF system part".  This subpackage provides those models:
amplifiers with noise and compression, mixers with DC offset and I/Q
imbalance, IIR channel filters, oscillators with phase noise, AGC and ADC,
plus the assembled :class:`repro.rf.frontend.DoubleConversionReceiver`.
"""

from repro.rf.signal import Signal, dbm_to_watts, watts_to_dbm
from repro.rf.noise import (
    BOLTZMANN,
    NoiseSource,
    thermal_noise_power,
    thermal_noise_psd_dbm_hz,
    white_noise,
    flicker_noise,
)
from repro.rf.nonlinearity import (
    CubicNonlinearity,
    RappNonlinearity,
    iip3_from_p1db,
    p1db_from_iip3,
)
from repro.rf.amplifier import Amplifier, AgcAmplifier
from repro.rf.mixer import Mixer, QuadratureMixer
from repro.rf.filters import (
    AnalogFilter,
    chebyshev_lowpass,
    butterworth_highpass,
    chebyshev_bandpass,
)
from repro.rf.oscillator import LocalOscillator
from repro.rf.adc import Adc
from repro.rf.pa import PowerAmplifier
from repro.rf.zeroif import ZeroIfConfig, ZeroIfReceiver
from repro.rf.cascade import (
    BlockCascade,
    StageSpec,
    active_stage_cascade,
    cascade_gain_db,
    cascade_iip3_dbm,
    cascade_input_p1db_dbm,
    cascade_table,
    frontend_stages,
    friis_noise_figure_db,
    sensitivity_dbm,
    spurious_free_range_db,
    tap_prefixes,
)
from repro.rf.frontend import (
    DoubleConversionReceiver,
    FrontendConfig,
    ideal_frontend_config,
    spw_library_config,
    spectre_library_config,
)

__all__ = [
    "Signal",
    "dbm_to_watts",
    "watts_to_dbm",
    "BOLTZMANN",
    "NoiseSource",
    "thermal_noise_power",
    "thermal_noise_psd_dbm_hz",
    "white_noise",
    "flicker_noise",
    "CubicNonlinearity",
    "RappNonlinearity",
    "iip3_from_p1db",
    "p1db_from_iip3",
    "Amplifier",
    "AgcAmplifier",
    "Mixer",
    "QuadratureMixer",
    "AnalogFilter",
    "chebyshev_lowpass",
    "butterworth_highpass",
    "chebyshev_bandpass",
    "LocalOscillator",
    "Adc",
    "PowerAmplifier",
    "ZeroIfConfig",
    "ZeroIfReceiver",
    "BlockCascade",
    "StageSpec",
    "active_stage_cascade",
    "cascade_gain_db",
    "cascade_iip3_dbm",
    "cascade_input_p1db_dbm",
    "cascade_table",
    "frontend_stages",
    "friis_noise_figure_db",
    "sensitivity_dbm",
    "spurious_free_range_db",
    "tap_prefixes",
    "DoubleConversionReceiver",
    "FrontendConfig",
    "ideal_frontend_config",
    "spw_library_config",
    "spectre_library_config",
]
