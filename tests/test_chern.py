"""Winding-number certificate for the boundary-frame determinant loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repvar import claims
from repvar.chern import (
    CONTOUR,
    DETERMINANT_MODULUS,
    MIN_SAMPLES_PER_SEGMENT,
    chern_pairing,
    closed_form_gap,
    contour_determinants,
    junction_gaps,
    modulus_deviation,
    winding_number,
    _first_contour,
    _loop_winding,
)


def test_contour_has_eight_connected_segments():
    assert len(CONTOUR) == 8
    names = [s.name for s in CONTOUR]
    assert len(set(names)) == 8
    assert np.max(junction_gaps()) < 1e-12


def test_pinned_determinant_values():
    # disc1-outer at 0, cut-lower at 0, disc2-outer at pi, disc1-above-cut
    # at 2 pi
    pins = [(0, 0.0, 32.0), (2, 0.0, -32.0j), (4, math.pi, -32.0),
            (7, 2 * math.pi, 32.0)]
    for index, t, expected in pins:
        values = np.linalg.det(CONTOUR[index].frame(np.array([t])))
        assert values.shape == (1,)
        assert values[0] == pytest.approx(expected, abs=1e-12)


def test_frames_are_4x4_and_match_closed_forms():
    for seg in CONTOUR:
        assert seg.frame(seg.start).shape == (4, 4)
    assert closed_form_gap() < 1e-12
    assert closed_form_gap(samples_per_segment=128) < 1e-12


def test_batched_frames_equal_per_parameter_frames():
    for seg in CONTOUR:
        params = seg.parameters(16)
        frames = seg.frame(params)
        assert frames.shape == (16, 4, 4)
        assert frames.dtype == np.complex128
        for k, t in enumerate(params):
            assert np.array_equal(frames[k], seg.frame(t)), (seg.name, k)


def test_determinant_modulus_is_constant():
    assert DETERMINANT_MODULUS == 32.0
    assert modulus_deviation() < 1e-12
    assert modulus_deviation(second_contour=True) < 1e-12


def test_second_contour_is_the_pointwise_negation():
    first = contour_determinants()
    second = contour_determinants(second_contour=True)
    assert np.max(np.abs(first + second)) < 1e-12


def test_contour_memo_is_read_only_and_shared():
    claims.clear_memos()
    first = contour_determinants()
    assert first is _first_contour(64)
    assert first.shape == (8 * 64,)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    second = contour_determinants(second_contour=True)
    assert np.array_equal(second, -first)
    assert second is contour_determinants(second_contour=True)
    assert not second.flags.writeable


def test_stacked_determinants_equal_per_segment_determinants():
    values = contour_determinants(128).reshape(8, 128)
    for seg, row in zip(CONTOUR, values):
        want = np.linalg.det(seg.frame(seg.parameters(128)))
        assert np.array_equal(row, want), seg.name


def test_junction_gaps_equal_an_evaluation_at_the_segment_ends():
    ends = np.array([np.linalg.det(seg.frame(np.array([seg.start, seg.end])))
                     for seg in CONTOUR])
    want = np.abs(ends[:, 1] - np.roll(ends[:, 0], -1))
    for samples in (64, 257):
        assert np.array_equal(junction_gaps(samples), want)


def test_winding_numbers():
    assert winding_number() == -1
    assert winding_number(second_contour=True) == -1
    assert winding_number(samples_per_segment=256) == -1
    # reversing the traversal (an orientation control) flips the sign
    assert _loop_winding(contour_determinants()[::-1]) == 1
    assert _loop_winding(contour_determinants(second_contour=True)[::-1]) == 1


def test_sampling_floor_is_enforced():
    assert MIN_SAMPLES_PER_SEGMENT == 64
    with pytest.raises(ValueError):
        winding_number(samples_per_segment=63)
    with pytest.raises(ValueError):
        contour_determinants(samples_per_segment=10)


def test_winding_guards():
    t = np.linspace(0.0, 2 * math.pi, 512)
    loop = 32.0 * np.exp(1j * t)
    assert _loop_winding(loop) == 1
    # too close to the origin for a trustworthy argument
    with pytest.raises(ValueError):
        _loop_winding(2.0 * np.exp(1j * t))
    # a non-closing arc has no integer winding
    with pytest.raises(ValueError):
        _loop_winding(32.0 * np.exp(1j * t[: len(t) // 2]))
    # angular steps of pi or more are ambiguous
    coarse = 32.0 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 3))
    with pytest.raises(ValueError):
        _loop_winding(coarse)


def test_junction_tolerance_is_stricter_than_observed():
    (claim,) = [c for c in claims.CLAIMS if c.name == "chern.junction_gap_max"]
    assert np.max(junction_gaps()) < claim.bound


def test_pairing_is_minus_two_for_any_pair_count():
    # the frames do not depend on the pair count, so neither does the pairing
    assert chern_pairing() == -2
    assert chern_pairing(samples_per_segment=128) == -2
