"""The paper's verification methodology (its primary contribution).

BER/EVM metrics, the WLAN system test bench with the RF subsystem in the
loop, simulation-manager parameter sweeps, behavioral-model calibration
against circuit-level references, and the executable top-down design flow
of section 4.
"""

from repro.core.metrics import (
    BerCounter,
    BerMeasurement,
    error_vector_magnitude,
    subcarrier_error_profile,
    evm_to_snr_db,
    snr_to_evm_percent,
)
from repro.core.testbench import (
    WlanTestbench,
    TestbenchConfig,
    PacketOutcome,
    EvmMeasurement,
)
from repro.core.sweep import ParameterSweep, SweepResult, SimulationManager
from repro.core.calibration import (
    CircuitLevelAmplifier,
    CalibrationReport,
    calibrate_amplifier,
    compare_model_libraries,
)
from repro.core.sensitivity import (
    SensitivityResult,
    RejectionResult,
    find_sensitivity,
    measure_adjacent_rejection,
    measure_per,
    STANDARD_SENSITIVITY_DBM,
    STANDARD_ADJACENT_REJECTION_DB,
)
from repro.core.verification import (
    DesignFlow,
    FlowStepReport,
    DesignComparison,
    compare_designs,
)
from repro.core.campaign import VerificationCampaign, CampaignReport, CheckResult
from repro.core.reporting import render_table, render_ascii_plot

__all__ = [
    "BerCounter",
    "BerMeasurement",
    "error_vector_magnitude",
    "subcarrier_error_profile",
    "evm_to_snr_db",
    "snr_to_evm_percent",
    "WlanTestbench",
    "TestbenchConfig",
    "PacketOutcome",
    "EvmMeasurement",
    "ParameterSweep",
    "SweepResult",
    "SimulationManager",
    "CircuitLevelAmplifier",
    "CalibrationReport",
    "calibrate_amplifier",
    "compare_model_libraries",
    "SensitivityResult",
    "RejectionResult",
    "find_sensitivity",
    "measure_adjacent_rejection",
    "measure_per",
    "STANDARD_SENSITIVITY_DBM",
    "STANDARD_ADJACENT_REJECTION_DB",
    "DesignFlow",
    "FlowStepReport",
    "DesignComparison",
    "compare_designs",
    "VerificationCampaign",
    "CampaignReport",
    "CheckResult",
    "render_table",
    "render_ascii_plot",
]
