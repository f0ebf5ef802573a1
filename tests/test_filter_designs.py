"""Memoized filter designs (repro.dsp.designs).

Steady-state packets must design no filter: after one warm-up batch,
every IIR section and polyphase FIR the chain uses comes from the memo.
The memoized arrays are read-only and bit-equal to a fresh design.
"""

import sys

import numpy as np
import pytest
from scipy import signal as sps
from scipy.signal import _filter_design, _fir_filter_design

from repro.channel.interference import InterferenceScenario
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.dsp.designs import iir_sos, resample_window
from repro.rf.filters import (
    butterworth_highpass,
    chebyshev_bandpass,
    chebyshev_lowpass,
)
from repro.rf.frontend import FrontendConfig
from repro.rf.zeroif import ZeroIfConfig
from repro.scenario import Scenario


def _count_calls(monkeypatch, func) -> list:
    """Count calls to ``func`` through every module that binds it.

    ``from x import f`` copies the binding, so patching the defining
    module alone would miss callers such as ``resample_poly``.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is func:
                monkeypatch.setattr(module, name, counted)
    return calls


CONFIGS = {
    "fig5-adjacent": TestbenchConfig(
        rate_mbps=36,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(lpf_edge_hz=6e6),
        interference=InterferenceScenario.adjacent(),
        input_level_dbm=-60.0,
    ),
    "zero-if": TestbenchConfig(
        rate_mbps=24,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=ZeroIfConfig(),
        input_level_dbm=-60.0,
    ),
    "hostile-coexistence": TestbenchConfig(
        rate_mbps=24,
        psdu_bytes=60,
        snr_db=12.0,
        scenario=Scenario.preset("hostile-coexistence"),
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_steady_state_batch_designs_no_filter(monkeypatch, name):
    iirfilter = _count_calls(monkeypatch, _filter_design.iirfilter)
    firwin = _count_calls(monkeypatch, _fir_filter_design.firwin)
    iir_sos.cache_clear()
    resample_window.cache_clear()
    bench = WlanTestbench(CONFIGS[name])
    assert not iirfilter and not firwin  # nothing designed at construction

    def batch(seed):
        rngs = [np.random.default_rng([seed, k]) for k in range(3)]
        return bench.run_packet_batch(rngs, [f"{seed}:{k}" for k in range(3)])

    batch(1)
    assert iirfilter and firwin  # the counters see the warm-up designs
    del iirfilter[:], firwin[:]
    batch(2)
    assert (len(iirfilter), len(firwin)) == (0, 0)


#: Name -> (memoized design, fresh scipy design), built lazily.
DESIGNS = {
    "cheby1-low": lambda: (
        chebyshev_lowpass(6e6, 80e6, order=7).sos,
        sps.cheby1(7, 0.5, 6e6 / 40e6, btype="low", output="sos"),
    ),
    "butter-high": lambda: (
        butterworth_highpass(120e3, 80e6).sos,
        sps.butter(2, 120e3 / 40e6, btype="high", output="sos"),
    ),
    "cheby1-band": lambda: (
        chebyshev_bandpass(10e6, 4e6, 80e6).sos,
        sps.cheby1(4, 0.5, [8e6 / 40e6, 12e6 / 40e6], btype="band",
                   output="sos"),
    ),
    "butter-shaping": lambda: (
        iir_sos("butter", 7, 9.5e6 / 40e6, "low"),
        sps.butter(7, 9.5e6 / 40e6, btype="low", output="sos"),
    ),
}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_memoized_sos_is_read_only_and_exact(name):
    memo, fresh = DESIGNS[name]()
    assert memo.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        memo[0, 0] = 0.0


def test_filters_share_one_design():
    a = chebyshev_lowpass(8e6, 80e6)
    b = chebyshev_lowpass(8e6, 80e6)
    assert a.sos is b.sos
    assert chebyshev_lowpass(9e6, 80e6).sos is not a.sos


@pytest.mark.parametrize("up, down", [(4, 1), (1, 4), (8, 1), (1, 8), (6, 4)])
def test_resample_window_matches_scipy_default(up, down):
    x = np.random.default_rng(5).standard_normal((2, 300)) * (1 + 0.5j)
    window = resample_window(up, down)
    with pytest.raises(ValueError):
        window[0] = 0.0
    ours = sps.resample_poly(x, up, down, axis=-1, window=window)
    default = sps.resample_poly(x, up, down, axis=-1)
    assert ours.tobytes() == default.tobytes()


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown IIR family"):
        iir_sos("ellip", 4, 0.2, "low")
