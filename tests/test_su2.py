"""Quaternion/Lie-algebra kernels against the matrix and rotation oracles."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repvar.su2 import (
    circle_point,
    pure_quat,
    quat_inverse,
    quat_mul,
    reflect,
    rotate,
    slot_product,
)

RNG = np.random.default_rng(7)


def _normalized(t):
    v = np.array(t, dtype=float)
    return v / np.linalg.norm(v)


def unit_quaternions():
    return (
        st.tuples(
            st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
        )
        .filter(lambda t: sum(c * c for c in t) > 0.01)
        .map(_normalized)
    )


def sphere_points():
    return (
        st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
        .filter(lambda t: sum(c * c for c in t) > 0.01)
        .map(_normalized)
    )


def algebra_vectors():
    return st.tuples(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)
    ).map(lambda t: np.array(t, dtype=float))


@given(unit_quaternions())
def test_inverse_roundtrip(q):
    prod = quat_mul(q, quat_inverse(q))
    assert abs(prod[0] - 1.0) < 1e-12
    assert np.linalg.norm(prod[1:]) < 1e-12


@given(unit_quaternions(), unit_quaternions())
@settings(max_examples=50)
def test_product_matches_matrix_representation(a, b):
    lhs = oracles.su2_matrix(quat_mul(a, b))
    rhs = oracles.su2_matrix(a) @ oracles.su2_matrix(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(unit_quaternions(), unit_quaternions(), unit_quaternions())
@settings(max_examples=50)
def test_product_associates(a, b, c):
    lhs = quat_mul(quat_mul(a, b), c)
    rhs = quat_mul(a, quat_mul(b, c))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(sphere_points())
def test_class_points_square_to_minus_one(p):
    q = pure_quat(p)
    sq = quat_mul(q, q)
    assert np.max(np.abs(sq - np.array([-1.0, 0.0, 0.0, 0.0]))) < 1e-12


def test_inner_is_minus_half_trace():
    for _ in range(20):
        x = RNG.normal(size=3)
        y = RNG.normal(size=3)
        tr = np.trace(
            oracles.su2_matrix(pure_quat(x)) @ oracles.su2_matrix(pure_quat(y))
        )
        assert abs(tr.imag) < 1e-12
        assert abs(np.dot(x, y) + 0.5 * tr.real) < 1e-12


def test_adjoint_matches_rotation_oracle():
    for _ in range(50):
        g = RNG.normal(size=4)
        g /= np.linalg.norm(g)
        v = RNG.normal(size=3)
        want = oracles.conjugation_as_rotation(g, v)
        assert np.max(np.abs(rotate(g, v) - want)) < 1e-10


def test_reflect_is_the_axis_half_turn():
    # conjugation by a pure unit quaternion p sends v to 2(p.v)p - v
    for _ in range(50):
        p = RNG.normal(size=3)
        p = p / np.linalg.norm(p)
        v = RNG.normal(size=3)
        got = reflect(p, v)
        want = 2.0 * np.dot(p, v) * p - v
        assert np.max(np.abs(got - want)) < 1e-12
        # and it agrees with matrix conjugation by the pure quaternion
        assert np.max(np.abs(got - oracles.conjugation_as_rotation(
            oracles.pure(p), v))) < 1e-10


@given(sphere_points(), algebra_vectors())
def test_reflect_is_an_involution(p, v):
    assert np.max(np.abs(reflect(p, reflect(p, v)) - v)) < 1e-12
    assert np.max(np.abs(reflect(p, p) - p)) < 1e-12


@given(sphere_points(), algebra_vectors(), algebra_vectors())
@settings(max_examples=100)
def test_half_turn_is_self_adjoint(p, x, y):
    # X . Ad(p) Y = Y . Ad(p) X: on the class Ad(p^2) = id, so the
    # antisymmetric part (1/2)(X . Ad(p) Y - Y . Ad(p) X) vanishes
    assert abs(np.dot(x, reflect(p, y)) - np.dot(y, reflect(p, x))) < 1e-12


def test_log_conventions_agree():
    # a velocity X . g has left coefficient g^-1 X g = Ad(g^-1) X, and both
    # coefficients are pure
    g = RNG.normal(size=(20, 4))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    x = RNG.normal(size=(20, 3))
    vel = quat_mul(pure_quat(x), g)
    right = quat_mul(vel, quat_inverse(g))
    left = quat_mul(quat_inverse(g), vel)
    assert np.max(np.abs(right - pure_quat(x))) < 1e-12
    assert np.max(np.abs(left[..., 0])) < 1e-12
    assert np.max(np.abs(left[..., 1:] - rotate(quat_inverse(g), x))) < 1e-12
    assert np.max(np.abs(rotate(g, left[..., 1:]) - x)) < 1e-12


def test_batched_kernels_match_oracle():
    a = RNG.normal(size=(40, 4))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    b = RNG.normal(size=(40, 4))
    b /= np.linalg.norm(b, axis=-1, keepdims=True)
    got = quat_mul(a, b)
    want = np.array([oracles.quat_mul(ra, rb) for ra, rb in zip(a, b)])
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(quat_mul(a, quat_inverse(a))
                         - np.array([1.0, 0, 0, 0]))) < 1e-12
    v = RNG.normal(size=(40, 3))
    got_rot = rotate(a, v)
    want_rot = np.array(
        [oracles.conjugation_as_rotation(ra, rv) for ra, rv in zip(a, v)]
    )
    assert np.max(np.abs(got_rot - want_rot)) < 1e-10


def test_slot_product_is_the_matrix_product_of_the_slots():
    pts = RNG.normal(size=(6, 5, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    got = slot_product(pts)
    assert got.shape == (6, 4)
    for row, config in zip(got, pts):
        want = np.eye(2, dtype=complex)
        for p in config:
            want = want @ oracles.su2_matrix(oracles.pure(p))
        assert np.max(np.abs(oracles.su2_matrix(row) - want)) < 1e-12
    assert np.array_equal(slot_product(pts[:, :0]), np.tile([1.0, 0, 0, 0], (6, 1)))


def test_axis_constants():
    # the x axis, where the circle parametrizations start, is the diagonal
    # trace-free matrix diag(i, -i); the circle runs on through the y axis
    x_axis = circle_point(0.0)
    assert np.array_equal(x_axis, [1.0, 0.0, 0.0])
    m = oracles.su2_matrix(pure_quat(x_axis))
    assert np.max(np.abs(m - np.diag([1j, -1j]))) < 1e-15
    assert np.allclose(circle_point(np.pi / 2), [0.0, 1.0, 0.0])
    pts = circle_point(RNG.uniform(-7.0, 7.0, size=(4, 5)))
    assert pts.shape == (4, 5, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-15
    assert np.all(pts[..., 2] == 0.0)
