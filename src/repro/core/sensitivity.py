"""Receiver minimum sensitivity and adjacent-channel rejection.

These are the 802.11a receiver requirements (17.3.10) that motivate the
paper's RF specifications ("the input signal of the receiver is in the
range from -88 to -23 dBm for the wanted channel; the first adjacent
channel may be 16 dBm, the second adjacent channel 32 dBm above this
level"):

* **minimum sensitivity** (17.3.10.1): the input level at which the packet
  error rate of 1000-byte PSDUs is less than 10%, per rate;
* **adjacent channel rejection** (17.3.10.2/3): with the wanted signal
  3 dB above sensitivity, the interferer level (relative to the wanted)
  that still keeps PER below 10%.

The standard's reference numbers assume a 10 dB noise figure and 5 dB
implementation margin; a front end with a better NF out-performs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.frontend import FrontendConfig
from repro.scenario import Scenario, WlanEmitter

#: Minimum sensitivity levels required by IEEE 802.11a table 91 [dBm].
STANDARD_SENSITIVITY_DBM: Dict[int, float] = {
    6: -82.0, 9: -81.0, 12: -79.0, 18: -77.0,
    24: -74.0, 36: -70.0, 48: -66.0, 54: -65.0,
}

#: Adjacent-channel rejection required by table 91 [dB].
STANDARD_ADJACENT_REJECTION_DB: Dict[int, float] = {
    6: 16.0, 9: 15.0, 12: 13.0, 18: 11.0,
    24: 8.0, 36: 4.0, 48: 0.0, 54: -1.0,
}


@dataclass
class SensitivityResult:
    """Outcome of a sensitivity search.

    Attributes:
        rate_mbps: measured data rate.
        sensitivity_dbm: lowest level with PER below the target.
        per_at_sensitivity: PER measured at that level.
        standard_requirement_dbm: table-91 requirement.
        margin_db: how much better than the requirement (positive = pass).
    """

    rate_mbps: int
    sensitivity_dbm: float
    per_at_sensitivity: float
    standard_requirement_dbm: float

    @property
    def margin_db(self) -> float:
        return self.standard_requirement_dbm - self.sensitivity_dbm

    @property
    def meets_standard(self) -> bool:
        return self.margin_db >= 0.0


def measure_per(
    config: TestbenchConfig, n_packets: int, seed: int
) -> float:
    """Packet error rate of a test-bench configuration."""
    bench = WlanTestbench(config)
    rng = np.random.default_rng(seed)
    errored = 0
    for _ in range(n_packets):
        outcome = bench.run_packet(rng)
        if outcome.lost or outcome.bit_errors > 0:
            errored += 1
    return errored / n_packets


def find_sensitivity(
    rate_mbps: int,
    frontend: Optional[FrontendConfig] = None,
    per_target: float = 0.1,
    psdu_bytes: int = 250,
    n_packets: int = 10,
    step_db: float = 1.0,
    start_dbm: float = -70.0,
    floor_dbm: float = -100.0,
    seed: int = 0,
) -> SensitivityResult:
    """Search for the receiver's minimum sensitivity at a given rate.

    Descends from ``start_dbm`` in ``step_db`` steps until the PER exceeds
    ``per_target``; the sensitivity is the last passing level.

    Note:
        The standard specifies 1000-byte PSDUs; the default here is 250
        bytes to keep the search fast — the PER difference is below 1 dB
        for these packet sizes (pass ``psdu_bytes=1000`` for the strict
        measurement).
    """
    if rate_mbps not in STANDARD_SENSITIVITY_DBM:
        raise ValueError(f"unknown rate {rate_mbps}")
    base = TestbenchConfig(
        rate_mbps=rate_mbps,
        psdu_bytes=psdu_bytes,
        thermal_floor=True,
        frontend=frontend if frontend is not None else FrontendConfig(),
        input_level_dbm=start_dbm,
    )
    level = start_dbm
    last_pass = None
    last_per = 1.0
    while level >= floor_dbm:
        per = measure_per(
            replace(base, input_level_dbm=level), n_packets, seed
        )
        if per <= per_target:
            last_pass = level
            last_per = per
            level -= step_db
        else:
            break
    if last_pass is None:
        raise RuntimeError(
            f"receiver fails PER target even at {start_dbm} dBm"
        )
    return SensitivityResult(
        rate_mbps=rate_mbps,
        sensitivity_dbm=last_pass,
        per_at_sensitivity=last_per,
        standard_requirement_dbm=STANDARD_SENSITIVITY_DBM[rate_mbps],
    )


@dataclass
class RejectionResult:
    """Outcome of an adjacent-channel rejection measurement.

    Attributes:
        rate_mbps: measured rate.
        offset_channels: interferer offset (1 = adjacent, 2 = alternate).
        rejection_db: highest interferer excess (dB over the wanted) still
            meeting the PER target.
        standard_requirement_db: table-91 requirement (adjacent only).
    """

    rate_mbps: int
    offset_channels: int
    rejection_db: float
    standard_requirement_db: Optional[float]

    @property
    def meets_standard(self) -> bool:
        if self.standard_requirement_db is None:
            return True
        return self.rejection_db >= self.standard_requirement_db


def measure_adjacent_rejection(
    rate_mbps: int,
    sensitivity_dbm: float,
    frontend: Optional[FrontendConfig] = None,
    offset_channels: int = 1,
    per_target: float = 0.1,
    psdu_bytes: int = 250,
    n_packets: int = 10,
    step_db: float = 2.0,
    max_excess_db: float = 40.0,
    seed: int = 0,
) -> RejectionResult:
    """Measure adjacent-channel rejection per 17.3.10.2.

    The wanted signal sits 3 dB above ``sensitivity_dbm``; the interferer
    excess is raised from 0 dB in ``step_db`` steps until the PER target
    breaks.

    Args:
        rate_mbps: wanted-signal rate.
        sensitivity_dbm: measured sensitivity (from
            :func:`find_sensitivity`).
        frontend: front-end design under test; the simulation bandwidth
            must cover the interferer offset (``TestbenchConfig`` raises
            otherwise).
        offset_channels: 1 for adjacent (+20 MHz), 2 for alternate
            (+40 MHz — requires a >=120 MHz front end).
    """
    fe = frontend if frontend is not None else FrontendConfig()
    wanted_dbm = sensitivity_dbm + 3.0
    excess = 0.0
    passing = -np.inf
    while excess <= max_excess_db:
        cfg = TestbenchConfig(
            rate_mbps=rate_mbps,
            psdu_bytes=psdu_bytes,
            thermal_floor=True,
            frontend=fe,
            scenario=Scenario(emitters=[WlanEmitter(
                offset_channels=offset_channels, excess_db=excess
            )]),
            input_level_dbm=wanted_dbm,
        )
        per = measure_per(cfg, n_packets, seed)
        if per <= per_target:
            passing = excess
            excess += step_db
        else:
            break
    requirement = (
        STANDARD_ADJACENT_REJECTION_DB.get(rate_mbps)
        if offset_channels == 1
        else None
    )
    return RejectionResult(
        rate_mbps=rate_mbps,
        offset_channels=offset_channels,
        rejection_db=passing,
        standard_requirement_db=requirement,
    )
