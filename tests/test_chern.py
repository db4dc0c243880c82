"""Winding-number certificate for the boundary-frame determinant loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from repvar import claims
from repvar.chern import (
    CONTOUR,
    DETERMINANT_MODULUS,
    MIN_SAMPLES_PER_SEGMENT,
    closed_form_gap,
    contour_determinants,
    determinants,
    junction_gaps,
    modulus_deviation,
    winding_number,
)


def test_contour_has_eight_connected_segments():
    assert len(CONTOUR) == 8
    names = [s.name for s in CONTOUR]
    assert len(set(names)) == 8
    assert np.max(junction_gaps(contour_determinants())) < 1e-12


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
    values = contour_determinants()
    assert modulus_deviation(values) < 1e-12
    assert modulus_deviation(-values) < 1e-12


def test_contour_is_read_only_and_shared_within_a_run():
    m = claims.Measurements()
    first = m.contour
    assert first is m.contour
    assert first.shape == (8 * 64,)
    assert np.array_equal(first, contour_determinants(64))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    # a new run evaluates the contour afresh
    assert claims.Measurements().contour is not first


@pytest.mark.parametrize("samples", [64, 128, 257])
def test_determinants_agree_with_leibniz_and_lapack(samples):
    frames = np.concatenate([seg.frame(seg.parameters(samples))
                             for seg in CONTOUR])
    values = contour_determinants(samples)
    assert values.shape == (8 * samples,)
    assert np.max(np.abs(values - oracles.leibniz_det(frames))) < 1e-12
    assert np.max(np.abs(values - np.linalg.det(frames))) < 1e-12


def test_determinants_of_random_matrices_agree_with_leibniz():
    rng = np.random.default_rng(11)
    mats = rng.normal(size=(3, 50, 4, 4)) + 1j * rng.normal(size=(3, 50, 4, 4))
    got = determinants(mats)
    assert got.shape == (3, 50)
    assert np.max(np.abs(got - oracles.leibniz_det(mats))) < 1e-12


def test_stacked_determinants_equal_per_segment_determinants():
    # the package kernel on each segment's own frames, not LAPACK's
    values = contour_determinants(128).reshape(8, 128)
    for seg, row in zip(CONTOUR, values):
        want = determinants(seg.frame(seg.parameters(128)))
        assert np.array_equal(row, want), seg.name


def test_junction_gaps_equal_an_evaluation_at_the_segment_ends():
    ends = np.array([determinants(seg.frame(np.array([seg.start, seg.end])))
                     for seg in CONTOUR])
    want = np.abs(ends[:, 1] - np.roll(ends[:, 0], -1))
    for samples in (64, 257):
        assert np.array_equal(junction_gaps(contour_determinants(samples)), want)


def test_winding_numbers():
    values = contour_determinants()
    assert winding_number(values) == -1
    assert winding_number(-values) == -1
    assert winding_number(contour_determinants(256)) == -1
    # reversing the traversal (an orientation control) flips the sign
    assert winding_number(values[::-1]) == 1
    assert winding_number(-values[::-1]) == 1


def test_sampling_floor_is_enforced():
    assert MIN_SAMPLES_PER_SEGMENT == 64
    with pytest.raises(ValueError, match="at least 64 samples"):
        contour_determinants(63)
    with pytest.raises(ValueError):
        contour_determinants(samples_per_segment=10)


def test_winding_guards():
    t = np.linspace(0.0, 2 * math.pi, 512)
    loop = 32.0 * np.exp(1j * t)
    assert winding_number(loop) == 1
    # too close to the origin for a trustworthy argument
    with pytest.raises(ValueError):
        winding_number(2.0 * np.exp(1j * t))
    # a non-closing arc has no integer winding
    with pytest.raises(ValueError):
        winding_number(32.0 * np.exp(1j * t[: len(t) // 2]))
    # angular steps of pi or more are ambiguous
    coarse = 32.0 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 3))
    with pytest.raises(ValueError):
        winding_number(coarse)


def test_junction_tolerance_is_stricter_than_observed():
    (claim,) = [c for c in claims.CLAIMS if c.name == "chern.junction_gap_max"]
    assert np.max(junction_gaps(contour_determinants())) < claim.bound


def test_pairing_is_minus_two_for_any_pair_count():
    # the frames do not depend on the pair count, so neither does the pairing
    assert claims.Measurements().chern_pairing == -2
    values = contour_determinants(128)
    assert winding_number(values) + winding_number(-values) == -2
