"""Frozen oversampled waveforms: shaping, resampling and RF front end.

``test_golden_vectors.py`` pins PPDUs only at ``oversample=1``.  These
digests pin the oversampled paths as well: transmit interpolation and
pulse shaping, every stage of both receiver front ends, the ADC's
anti-alias decimator, the bench's channel + RF path under each way of
describing a channel, and the dataflow adjacent-channel block.  They were
recorded from the implementation that designed every filter afresh on
each call, so any change to where a filter comes from must leave them
untouched.
"""

import hashlib

import numpy as np
import pytest

from repro.channel.interference import InterferenceScenario
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.flow.blocks import AdjacentChannelBlock
from repro.flow.dataflow import SimulationContext
from repro.obs.probes import get_probes
from repro.rf.adc import Adc
from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
from repro.rf.signal import Signal
from repro.rf.zeroif import ZeroIfConfig, ZeroIfReceiver
from repro.scenario import Scenario


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _psdus(n_packets=3, n_bytes=40, seed=20261014):
    rng = np.random.default_rng(seed)
    return np.stack([random_psdu(n_bytes, rng) for _ in range(n_packets)])


def _rf_input(seed=7):
    """A 36 Mb/s PPDU at 80 MHz and -60 dBm, padded with guard zeros."""
    tx = Transmitter(TxConfig(rate_mbps=36, oversample=4))
    wave = tx.transmit(_psdus(1, 60, seed)[0])
    guard = np.zeros(600, dtype=complex)
    return Signal(
        np.concatenate([guard, wave, guard]), 80e6, 5.2e9
    ).scaled_to_dbm(-60.0)


#: (rate, oversample, shaping) -> digest of ``transmit_batch`` waveforms.
FROZEN_TX = {
    (24, 2, False): "22781d4566ceee71",
    (24, 2, True): "6b586d2f22094cda",
    (24, 4, False): "a62ae83d734d8456",
    (24, 4, True): "837890a75992e154",
    (24, 8, False): "e7ccd8987e8cc950",
    (24, 8, True): "fd038b27be05d53c",
    (54, 2, False): "9ac39bba67477aa4",
    (54, 2, True): "ff6c0a5a89a4e323",
    (54, 4, False): "047126287e3102fc",
    (54, 4, True): "e36b03a390001c07",
    (54, 8, False): "7ed619e6e78567e1",
    (54, 8, True): "f82d52ce6a400715",
}

#: LPF edge -> digest of every ``stage_outputs`` signal, in stage order.
FROZEN_FRONTEND = {
    4e6: "306bedf0c782336c",
    8e6: "96dbc7ac543f3f48",
    20e6: "eab7a51ac01b1ca8",
}

FROZEN_ZEROIF = "35d9905ec8717690"
FROZEN_ADC_ANTI_ALIAS = "7714f8ad88a4abe6"

#: Bench name -> digest of three packets' ``_propagate`` basebands.
FROZEN_PROPAGATE = {
    "adjacent-120mhz": "f06dcd5b78e9994c",
    "co-channel": "b540fa0729d63484",
    "fig5-adjacent": "3f3c806ab5f8b35d",
    "hostile-coexistence": "d6ede2e818de1131",
    "indoor-fading": "b5cf68ec1b4bfdf0",
    "non-adjacent-baseband": "b69f7543ab4a04fc",
}

FROZEN_ADJACENT_BLOCK = "0741ab8c7e383f64"


def _bench(name):
    if name == "fig5-adjacent":
        return TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=60,
            thermal_floor=True,
            frontend=FrontendConfig(lpf_edge_hz=6e6),
            interference=InterferenceScenario.adjacent(),
            input_level_dbm=-60.0,
        )
    if name == "adjacent-120mhz":
        return TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=60,
            thermal_floor=True,
            frontend=FrontendConfig(sample_rate_in=120e6),
            interference=InterferenceScenario.adjacent(),
            input_level_dbm=-60.0,
        )
    if name == "non-adjacent-baseband":
        return TestbenchConfig(
            rate_mbps=24,
            psdu_bytes=60,
            snr_db=20.0,
            interference=InterferenceScenario.non_adjacent(),
        )
    return TestbenchConfig(
        rate_mbps=24,
        psdu_bytes=60,
        snr_db=12.0,
        scenario=Scenario.preset(name),
    )


@pytest.mark.parametrize("key", sorted(FROZEN_TX))
def test_transmit_batch_digest(key):
    rate, oversample, shaping = key
    tx = Transmitter(
        TxConfig(rate_mbps=rate, oversample=oversample,
                 spectral_shaping=shaping)
    )
    waves, symbols = tx.transmit_batch(_psdus())
    assert _digest(waves, symbols) == FROZEN_TX[key]


@pytest.mark.parametrize("edge", sorted(FROZEN_FRONTEND))
def test_double_conversion_stage_digest(edge):
    frontend = DoubleConversionReceiver(FrontendConfig(lpf_edge_hz=edge))
    stages = frontend.stage_outputs(_rf_input(), np.random.default_rng(3))
    assert [name for name, _ in stages] == [
        "input", "lna", "mixer1", "mixer2", "hpf", "lpf", "agc", "adc",
    ]
    assert _digest(*(s.samples for _, s in stages)) == FROZEN_FRONTEND[edge]


def test_zero_if_digest():
    out = ZeroIfReceiver(ZeroIfConfig()).process(
        _rf_input(), np.random.default_rng(4)
    )
    assert _digest(out.samples) == FROZEN_ZEROIF


def test_adc_anti_alias_digest():
    adc = Adc(n_bits=10, decimation=4, anti_alias=True)
    assert _digest(adc.process(_rf_input()).samples) == FROZEN_ADC_ANTI_ALIAS


@pytest.mark.parametrize("name", sorted(FROZEN_PROPAGATE))
def test_propagate_digest(name):
    bench = WlanTestbench(_bench(name))
    waves, _ = bench._transmitter.transmit_batch(_psdus(3, 60))
    basebands = []
    for k, wave in enumerate(waves):
        baseband, log_weight = bench._propagate(
            wave, np.random.default_rng(100 + k), get_probes()
        )
        assert log_weight == 0.0
        basebands.append(baseband)
    assert _digest(*basebands) == FROZEN_PROPAGATE[name]


def test_adjacent_channel_block_digest():
    tx = Transmitter(TxConfig(rate_mbps=36, oversample=4))
    guard = np.zeros(600, dtype=complex)
    x = np.concatenate([guard, tx.transmit(_psdus(1, 60, 9)[0]), guard])
    ctx = SimulationContext(rng=np.random.default_rng(11), sample_rate=80e6)
    out = AdjacentChannelBlock(oversample=4).work({"in": x}, ctx)["out"]
    assert _digest(out) == FROZEN_ADJACENT_BLOCK
