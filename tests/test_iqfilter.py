"""Real-row IQ filters (repro.dsp.iqfilter) against scipy's complex calls.

Every comparison is bitwise, on ``uint64`` views, so a ``-0.0`` where
scipy gives ``+0.0`` fails.
"""

import numpy as np
import pytest
import scipy.signal as sps

from repro.dsp import iqfilter
from repro.dsp.designs import iir_sos, iir_zi
from repro.dsp.iqfilter import resample, zero_phase

#: The transmit shaping filter at ×6 and at ×8 (9.5 MHz edge).
SHAPING_X6 = ("butter", 7, 9.5e6 / 60e6, "low")
SHAPING_X8 = ("butter", 7, 9.5e6 / 80e6, "low")


def _assert_identical(ours, theirs):
    ours, theirs = np.ascontiguousarray(ours), np.ascontiguousarray(theirs)
    assert ours.dtype == theirs.dtype == np.complex128
    assert ours.shape == theirs.shape
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def _noise(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _edge_rows(n):
    """Rows with zero runs, ``-0.0`` parts and 1e-300 values."""
    x = _noise((7, n), 9)
    x[0, : n // 3] = 0.0
    x[1, n // 3 :] = complex(-0.0, -0.0)
    x[2, :] = complex(0.0, -0.0)
    x[3, :] = complex(-0.0, 0.0)
    x[4, ::3] = complex(-0.0, -2.0)
    x[4, ::5] = complex(3.0, -0.0)
    x[5, n // 4 : n // 2] = 1e-300 * (1 - 1j)
    x[6, :] = 0.0
    x[6, 0] = complex(1e-300, -1e-300)
    return x


def _scipy_zero_phase(x, design):
    return sps.sosfiltfilt(iir_sos(*design), x, axis=-1)


RESAMPLE_SHAPES = [(2160,), (1, 2160), (16, 720), (4, 2160), (2, 3, 300)]


@pytest.mark.parametrize("up, down", [(6, 1), (8, 1), (1, 6), (1, 8)])
@pytest.mark.parametrize("shape", RESAMPLE_SHAPES)
def test_resample_matches_scipy(shape, up, down):
    x = _noise(shape, 1)
    _assert_identical(
        resample(x, up, down), sps.resample_poly(x, up, down, axis=-1)
    )


@pytest.mark.parametrize("up, down", [(6, 1), (8, 1), (1, 6), (1, 8)])
def test_resample_edge_values_match_scipy(up, down):
    x = _edge_rows(480)
    _assert_identical(
        resample(x, up, down), sps.resample_poly(x, up, down, axis=-1)
    )


def _block_rows(n):
    return iqfilter._ZERO_PHASE_BLOCK_SAMPLES // n


ZERO_PHASE_SHAPES = [
    (12960,),
    (1, 12960),
    (16, 4320),
    (4, 12960),
    (_block_rows(4320), 4320),
    (_block_rows(4320) + 1, 4320),
    (2, 3, 1000),
]


@pytest.mark.parametrize("design", [SHAPING_X6, SHAPING_X8])
@pytest.mark.parametrize("shape", ZERO_PHASE_SHAPES)
def test_zero_phase_matches_scipy(shape, design):
    x = _noise(shape, 2)
    _assert_identical(zero_phase(x, *design), _scipy_zero_phase(x, design))


@pytest.mark.parametrize("design", [SHAPING_X6, SHAPING_X8])
def test_zero_phase_edge_values_match_scipy(design):
    x = _edge_rows(600)
    _assert_identical(zero_phase(x, *design), _scipy_zero_phase(x, design))


def test_zero_phase_just_above_pad_length():
    pad = iqfilter._pad_length(iir_sos(*SHAPING_X6))
    x = _noise((3, pad + 1), 3)
    _assert_identical(
        zero_phase(x, *SHAPING_X6), _scipy_zero_phase(x, SHAPING_X6)
    )


@pytest.mark.parametrize("n", [1, 10, 24])
def test_zero_phase_too_short_raises_like_scipy(n):
    x = _noise((2, n), 4)
    with pytest.raises(ValueError) as theirs:
        _scipy_zero_phase(x, SHAPING_X6)
    with pytest.raises(ValueError) as ours:
        zero_phase(x, *SHAPING_X6)
    assert str(ours.value) == str(theirs.value)


def test_read_only_design_stays_read_only():
    sos = iir_sos(*SHAPING_X6)
    assert not sos.flags.writeable
    x = _noise((2, 2000), 5)
    _assert_identical(zero_phase(x, *SHAPING_X6), sps.sosfiltfilt(sos, x))
    assert not iir_sos(*SHAPING_X6).flags.writeable
    assert not iir_zi(*SHAPING_X6).flags.writeable


def test_zi_designed_once_per_design(monkeypatch):
    calls = []
    design_zi = sps.sosfilt_zi

    def counted(sos):
        calls.append(1)
        return design_zi(sos)

    monkeypatch.setattr(sps, "sosfilt_zi", counted)
    iir_zi.cache_clear()
    x = _noise((2, 1000), 6)
    for _ in range(5):
        zero_phase(x, *SHAPING_X6)
    assert len(calls) == 1
    for _ in range(5):
        zero_phase(x, *SHAPING_X8)
    assert len(calls) == 2
    iir_zi.cache_clear()
