"""The two-form: oracle agreement, invariance, the vanishing locus, pairings."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repvar import claims
from repvar.braid import BraidWord, parse_braid, random_configurations
from repvar.su2 import reflect, slot_product
from repvar.symplectic import (
    SPHERE_SAMPLES,
    AdjacentPairSphere,
    CapCylinderSphere,
    _sphere_points,
    check_braid_invariance,
    check_gamma_lagrangian,
    lagrangian_tangent_arrays,
    monotonicity_ratio,
    nondegeneracy_rank,
    omega_c_array,
    product_deviation,
    random_coefficients,
    random_k_points,
    sigma_tilde,
)

RNG = np.random.default_rng(31)
PI_SQ = math.pi * math.pi


def _random_word(rng, strands, length):
    letters = tuple(
        int(k) * int(s)
        for k, s in zip(
            rng.integers(1, strands, size=length), rng.choice([-1, 1], size=length)
        )
    )
    return BraidWord(strands, letters)


# --- the form against the finite-difference oracle --------------------------------


def test_pair_form_matches_finite_difference_oracle():
    worst = 0.0
    for _ in range(30):
        slots = int(RNG.integers(4, 9))
        base = random_configurations(slots, 1, RNG)[0]
        x = random_coefficients(base[None], RNG)[0]
        y = random_coefficients(base[None], RNG)[0]
        # the oracle drives curves by ambient velocities X x p
        vx = np.cross(x, base)
        vy = np.cross(y, base)
        pairs = [oracles.fd_two_form_pair(j, base, vx, vy) for j in range(1, slots)]
        for j, want in enumerate(pairs, start=1):
            got = oracles.omega_pair_array(j, base[None], x[None], y[None])[0]
            worst = max(worst, abs(float(got) - want))
        # the full form is minus the sum of the partial pairings
        total = omega_c_array(base[None], x[None], y[None])[0]
        worst = max(worst, abs(float(total) + sum(pairs)))
    assert worst < 1e-6, worst


@pytest.mark.parametrize("slots", range(2, 9))
def test_form_kernel_equals_the_reference_exactly(slots):
    rng = np.random.default_rng(slots)
    for shape in ((7,), (3, 5)):
        base = random_configurations(slots, math.prod(shape), rng)
        base = base.reshape(shape + (slots, 3))
        x = random_coefficients(base, rng)
        y = random_coefficients(base, rng)
        got = omega_c_array(base, x, y)
        assert got.shape == shape
        assert np.array_equal(got, oracles.omega_c_reference(base, x, y))
    # read-only broadcast views, as nondegeneracy_rank builds its Gram matrix
    pts = random_configurations(slots, 1, rng)[0]
    frames = random_coefficients(np.broadcast_to(pts, (4, slots, 3)), rng)
    shape = (4, 4, slots, 3)
    args = (np.broadcast_to(pts, shape), np.broadcast_to(frames[:, None], shape),
            np.broadcast_to(frames[None, :], shape))
    assert not args[0].flags.writeable
    got = omega_c_array(*args)
    assert got.shape == (4, 4)
    assert np.array_equal(got, oracles.omega_c_reference(*args))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_form_is_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    base = random_configurations(5, 4, rng)
    x = random_coefficients(base, rng)
    y = random_coefficients(base, rng)
    lhs = omega_c_array(base, x, y)
    rhs = omega_c_array(base, y, x)
    assert np.max(np.abs(lhs + rhs)) < 1e-10
    assert np.max(np.abs(omega_c_array(base, x, x))) < 1e-10


def test_form_is_bilinear():
    base = random_configurations(5, 6, RNG)
    x1 = random_coefficients(base, RNG)
    x2 = random_coefficients(base, RNG)
    y = random_coefficients(base, RNG)
    lhs = omega_c_array(base, 2.5 * x1 - x2, y)
    rhs = 2.5 * omega_c_array(base, x1, y) - omega_c_array(base, x2, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_form_is_rotation_invariant():
    base = random_configurations(5, 8, RNG)
    x = random_coefficients(base, RNG)
    y = random_coefficients(base, RNG)
    axis = RNG.normal(size=3)
    axis /= np.linalg.norm(axis)
    R = oracles.rotation_matrix(axis, 2.1)
    lhs = omega_c_array(base, x, y)
    rhs = omega_c_array(base @ R.T, x @ R.T, y @ R.T)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# --- braid invariance ---------------------------------------------------------------


def test_single_generators_preserve_the_form():
    for strands in (4, 6):
        for k in range(1, strands):
            for sign in (1, -1):
                word = BraidWord(strands, (sign * k,))
                dev = check_braid_invariance(word, trials=200)
                assert dev < 1e-10, (strands, sign * k, dev)


def test_composite_words_preserve_the_form():
    rng = np.random.default_rng(42)
    for _ in range(10):
        strands = int(rng.integers(2, 7))
        word = _random_word(rng, strands, int(rng.integers(1, 9)))
        assert check_braid_invariance(word, trials=150) < 1e-10


# --- the mirrored-tuple submanifold --------------------------------------------------


def test_lagrangian_point_mirrors_to_product_one():
    # (p_1, ..., p_n, -p_n, ..., -p_1) telescopes to the identity for any n
    for n in (1, 3, 6):
        half = random_configurations(n, 20, RNG)
        coeffs = random_coefficients(half, RNG)
        base, _ = lagrangian_tangent_arrays(half, coeffs)
        assert base.shape == (20, 2 * n, 3)
        assert np.max(np.abs(base[:, n:] + half[:, ::-1])) == 0.0
        assert np.max(np.abs(slot_product(base) - [1.0, 0.0, 0.0, 0.0])) < 1e-12


def test_lagrangian_tangents_are_tangent_to_the_locus():
    half = random_configurations(3, 16, RNG)
    coeffs = random_coefficients(half, RNG)
    base, frames = lagrangian_tangent_arrays(half, coeffs)
    assert np.max(np.abs(np.sum(base * frames, axis=-1))) < 1e-12
    # finite-difference check: moving along the frame keeps the product one
    eps = 1e-6
    moved = base + eps * np.cross(frames, base)
    moved /= np.linalg.norm(moved, axis=-1, keepdims=True)
    assert np.max(product_deviation(moved)) < 5e-12


def test_single_slot_lagrangian_tangent():
    # a coefficient at slot i moves only p_i and its mirror partner, which
    # carries -Ad(p_i^-1) X
    half = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]])
    coeffs = np.zeros_like(half)
    coeffs[0, 0] = [1.0, 0.0, 0.0]
    _, frames = lagrangian_tangent_arrays(half, coeffs)
    assert np.array_equal(frames[0, 1], np.zeros(3))
    assert np.array_equal(frames[0, 2], np.zeros(3))
    assert np.allclose(frames[0, 3], -reflect(half[0, 0], coeffs[0, 0]))
    assert np.allclose(frames[0, 3], [1.0, 0.0, 0.0])


def test_form_vanishes_on_the_submanifold_and_its_braid_images():
    assert check_gamma_lagrangian(BraidWord(4, ()), trials=300) < 1e-10
    assert check_gamma_lagrangian(BraidWord(6, ()), trials=300) < 1e-10
    doubled = sigma_tilde(parse_braid("2: 1 1 1"))
    assert doubled == parse_braid("4: 3 3 3")
    assert check_gamma_lagrangian(doubled, trials=300) < 1e-10
    rng = np.random.default_rng(9)
    for _ in range(8):
        word = _random_word(rng, 4, int(rng.integers(1, 7)))
        assert check_gamma_lagrangian(word, trials=150) < 1e-10


def test_long_word_pushforward_stays_on_the_sphere():
    # without renormalising the base point after each letter, the drift of
    # the half-turns off the sphere gave |form| = 3.1e-10 on this word
    word = parse_braid("4: 2 2 2 -1 -1 -1 2 2")
    assert check_gamma_lagrangian(word, trials=1000, rng_seed=237772) < 1e-10


def test_sigma_tilde_shifts_into_the_second_half():
    w = sigma_tilde(parse_braid("3: 1 -2 1"))
    assert w.strands == 6
    assert w.letters == (4, -5, 4)


def test_gamma_check_needs_even_strands():
    with pytest.raises(ValueError):
        check_gamma_lagrangian(BraidWord(3, (1,)))


# --- test spheres and their pairings -------------------------------------------------


def test_sphere_charts_stay_in_the_product_one_locus():
    a = RNG.normal(size=(40, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    for pairs in (2, 3, 4):
        cap = CapCylinderSphere(pairs)
        for which in (1, 2):
            assert np.max(product_deviation(cap.cap_configuration(which, a))) < 1e-12
        t1 = RNG.uniform(0, 2 * math.pi, size=40)
        t2 = RNG.uniform(0, 2 * math.pi, size=40)
        t1[0] = t2[0] = 0.0
        cyl = cap.cylinder_configuration(t1, t2)
        assert np.max(product_deviation(cyl)) < 1e-12
        # at the corner (0, 0) every point of the chart's head sits at i
        assert np.allclose(cyl[0, :4], [1.0, 0.0, 0.0])
        for slot in (1, 2, 2 * pairs - 1):
            for sign in (1, -1):
                sphere = AdjacentPairSphere(slot, sign, pairs)
                assert np.max(product_deviation(sphere.configuration(a))) < 1e-12


def test_sphere_parameter_validation():
    with pytest.raises(ValueError):
        AdjacentPairSphere(0, 1, 2)
    with pytest.raises(ValueError):
        AdjacentPairSphere(4, 1, 2)
    with pytest.raises(ValueError):
        AdjacentPairSphere(1, 2, 2)
    with pytest.raises(ValueError):
        CapCylinderSphere(1)


def _cylinder_integrand(pairs, theta1, theta2):
    """The form pulled back to the cylinder chart at the given angles."""
    sphere = CapCylinderSphere(pairs)
    return omega_c_array(sphere.cylinder_configuration(theta1, theta2),
                         *sphere.cylinder_frames(theta1, theta2))


def _sphere_form_maxima(pairs, a, u, v):
    """Largest |form| at the points A with tangent pair (u, v) on each cap,
    then on each adjacent-pair sphere at slots 1, 2 and 2n-1, both signs,
    each chart evaluated alone."""
    cap = CapCylinderSphere(pairs)
    charts = [(cap.cap_configuration(which, a), cap.cap_frame(a, u),
               cap.cap_frame(a, v)) for which in (1, 2)]
    for slot in (1, 2, 2 * pairs - 1):
        for sign in (1, -1):
            sphere = AdjacentPairSphere(slot, sign, pairs)
            charts.append((sphere.configuration(a), sphere.frame(a, u),
                           sphere.frame(a, v)))
    return [float(np.max(np.abs(omega_c_array(*chart)))) for chart in charts]


def test_degree_one_pairing_is_minus_pi_squared():
    val = monotonicity_ratio(-2, pairs=2).fn_integral
    assert abs(val + PI_SQ) < 1e-8
    # quadrature refinement does not move the value
    refined = monotonicity_ratio(-2, pairs=2, quadrature_order=64).fn_integral
    assert abs(refined - val) < 1e-9
    # and the pairing does not depend on the number of pairs
    assert abs(monotonicity_ratio(-2, pairs=3).fn_integral + PI_SQ) < 1e-8


def test_cylinder_integrand_is_constant_minus_half():
    for pairs in (2, 3):
        t1 = RNG.uniform(0, 2 * math.pi, size=50)
        t2 = RNG.uniform(0, 2 * math.pi, size=50)
        vals = _cylinder_integrand(pairs, t1, t2)
        assert np.max(np.abs(vals + 0.5)) < 1e-12


def test_integrand_agrees_with_independent_quadrature():
    got = monotonicity_ratio(-2, pairs=2, quadrature_order=24).fn_integral
    # chart domain: the first angle runs over half a turn, the second over
    # a full one
    want = oracles.gauss_legendre_2d(
        lambda t1, t2: _cylinder_integrand(2, t1, t2),
        0.0, math.pi, 0.0, 2.0 * math.pi, order=24,
    )
    assert abs(got - want) < 1e-10


def test_caps_and_degree_zero_spheres_contribute_nothing():
    # at the lattice points the report reads its maxima at
    lattice = _sphere_points(SPHERE_SAMPLES)
    for pairs in (2, 3):
        assert max(_sphere_form_maxima(pairs, *lattice)) < 1e-12


@pytest.mark.parametrize("pairs", range(2, 6))
def test_sphere_charts_equal_the_stacked_reference_exactly(pairs):
    rng = np.random.default_rng(pairs)
    sphere = CapCylinderSphere(pairs)
    for shape in ((9,), (4, 6)):
        t1 = rng.uniform(0.0, math.pi, size=shape)
        t2 = rng.uniform(0.0, 2.0 * math.pi, size=shape)
        got = sphere.cylinder_configuration(t1, t2)
        assert got.shape == shape + (2 * pairs, 3)
        assert np.array_equal(got, oracles.cylinder_chart(pairs, t1, t2))
        a = rng.normal(size=shape + (3,))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        for which in (1, 2):
            assert np.array_equal(sphere.cap_configuration(which, a),
                                  oracles.cap_chart(pairs, which, a))


def test_sphere_lattice_is_an_orthonormal_frame_covering_the_sphere():
    samples = 256
    a, u, v = _sphere_points(samples)
    assert a.shape == u.shape == v.shape == (samples, 3)
    # (A, u, A x u) is an orthonormal frame at every point
    frame = np.stack([a, u, v], axis=-1)
    gram = np.swapaxes(frame, -1, -2) @ frame
    assert np.max(np.abs(gram - np.eye(3))) < 1e-14
    assert np.max(np.abs(v - np.cross(a, u))) < 1e-15
    # the lattice covers the whole sphere: no direction is far from a point
    directions = np.random.default_rng(5).normal(size=(12_000, 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    nearest = np.max(directions @ a.T, axis=-1)
    assert math.acos(min(1.0, float(np.min(nearest)))) < 0.25


def test_caps_and_adjacent_pair_spheres_vanish_at_random_points():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(500, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    raw = rng.normal(size=(500, 3))
    u = raw - np.sum(raw * a, axis=-1, keepdims=True) * a
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = np.cross(a, u)
    for pairs in (2, 3):
        assert max(_sphere_form_maxima(pairs, a, u, v)) < 1e-12


def test_monotonicity_report():
    report = monotonicity_ratio(claims.Measurements().chern_pairing, pairs=2)
    assert abs(report.fn_integral + PI_SQ) < 1e-8
    assert report.chern_pairing == -2
    assert abs(report.ratio - PI_SQ / 2.0) < 1e-6
    assert report.gamma_form_max < 1e-12
    assert report.cap_form_max < 1e-12


@pytest.mark.parametrize("pairs", (2, 3))
def test_monotonicity_report_reads_what_each_chart_alone_measures(pairs):
    # one evaluation over the stacked charts, read off slices, against one
    # evaluation per chart, each built from its sphere class: the cylinder
    # on the tensor Gauss-Legendre grid, each cap, and the adjacent-pair
    # sphere at slot 3, sign +1, at the lattice points
    report = monotonicity_ratio(-2, pairs=pairs)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    values = _cylinder_integrand(pairs, 0.5 * math.pi * (nodes[:, None] + 1.0),
                                 math.pi * (nodes[None, :] + 1.0))
    fn_integral = float(np.einsum("i,j,ij->", 0.5 * math.pi * weights,
                                  math.pi * weights, values))
    assert report.fn_integral == fn_integral
    assert report.ratio == fn_integral / -2
    a, u, v = _sphere_points(SPHERE_SAMPLES)
    assert report.cap_form_max == max(_sphere_form_maxima(pairs, a, u, v)[:2])
    sphere = AdjacentPairSphere(3, 1, pairs)
    gamma = omega_c_array(sphere.configuration(a), sphere.frame(a, u),
                          sphere.frame(a, v))
    assert report.gamma_form_max == float(np.max(np.abs(gamma)))


# --- nondegeneracy -------------------------------------------------------------------


def test_product_one_points_are_nondegenerate():
    for pairs in (2, 3):
        pts = random_k_points(pairs, 40, np.random.default_rng(4))
        assert np.max(product_deviation(pts)) < 1e-12
        ranks = {nondegeneracy_rank(p) for p in pts}
        assert ranks == {4 * pairs}


def test_product_one_points_on_one_pair_solve_the_flat_case():
    # with no free slots the product to undo is the identity, so the last
    # two points take an arbitrary axis: q = -p
    pts = random_k_points(1, 40, np.random.default_rng(4))
    assert pts.shape == (40, 2, 3)
    assert np.max(product_deviation(pts)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-12


def test_nondegeneracy_rejects_singular_points():
    p = np.array([1.0, 0.0, 0.0])
    singular = np.stack([p, -p, p, -p])
    with pytest.raises(ValueError):
        nondegeneracy_rank(singular)
