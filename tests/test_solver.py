"""Fixed-point solver: residuals, clustering, censuses, exact angle cases."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import oracles
from repvar.braid import (
    BraidWord,
    act_array,
    parse_braid,
    random_configurations,
    tangent_basis,
)
from repvar.solver import (
    AngleCaseSolution,
    SolverConfig,
    _tangent_jacobian,
    angle_case_9_42,
    cluster_indices,
    invariant_features,
    is_singular_config,
    residual_array,
    solve,
    torus_components,
    variety_rank,
)

RNG = np.random.default_rng(23)
FAST = SolverConfig(seeds=256)


# --- residual basics -------------------------------------------------------------


def test_diagonal_configurations_are_always_fixed():
    # (p, p): each generator reflects p across itself, a no-op.
    for word_text in ("2: 1 1 1", "3: 1 -2 1 -2", "4: -1 2 3 3"):
        word = parse_braid(word_text)
        p = RNG.normal(size=3)
        p /= np.linalg.norm(p)
        diag = np.tile(p, (word.strands, 1))
        assert residual_array(word, diag[None])[0] < 1e-15


def test_residual_array_is_zero_exactly_at_fixed_points():
    word = parse_braid("2: 1 1 1")
    pts = random_configurations(2, 50, RNG)
    r = residual_array(word, pts)
    assert np.all(r > 1e-3)  # random points are far from the variety
    # a known fixed family: both points at angle 2pi/3
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3), 0.0])
    assert residual_array(word, np.stack([a, b])[None])[0] < 1e-15


def test_tangent_jacobian_matches_finite_differences():
    # column m of the Jacobian of g -> act(g) - g is the pushforward of the
    # m-th tangent basis vector (slot m // 2, vector e1 or e2) minus itself
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(30):
        strands = int(rng.integers(2, 5))
        length = int(rng.integers(1, 6))
        letters = rng.integers(1, strands, size=length) * rng.choice([-1, 1], size=length)
        word = BraidWord(strands, tuple(int(k) for k in letters))
        pts = random_configurations(strands, 2, rng)
        e1, e2 = tangent_basis(pts)
        jac = _tangent_jacobian(word, pts, e1, e2)
        assert jac.shape == (2, 3 * strands, 2 * strands)
        for s in range(2):
            for m in range(2 * strands):
                slot, which = divmod(m, 2)
                vel = np.zeros((strands, 3))
                vel[slot] = (e1 if which == 0 else e2)[s, slot]
                want = oracles.fd_pushforward(
                    lambda q: act_array(word, q[None])[0], pts[s], vel
                ) - vel
                got = jac[s, :, m].reshape(strands, 3)
                worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-6, worst


def test_residual_is_conjugation_invariant():
    # rotating every slot by one global rotation commutes with the action
    word = parse_braid("3: 1 1 2 -1 2")
    pts = random_configurations(3, 20, RNG)
    axis = RNG.normal(size=3)
    axis /= np.linalg.norm(axis)
    R = oracles.rotation_matrix(axis, 1.234)
    rotated = pts @ R.T
    assert np.max(
        np.abs(residual_array(word, pts) - residual_array(word, rotated))
    ) < 1e-12


# --- clustering ------------------------------------------------------------------


def test_invariant_features_are_rotation_invariant():
    pts = random_configurations(4, 10, RNG)
    axis = RNG.normal(size=3)
    axis /= np.linalg.norm(axis)
    R = oracles.rotation_matrix(axis, 0.777)
    f1 = invariant_features(pts)
    f2 = invariant_features(pts @ R.T)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_invariant_features_separate_mirrors():
    # a chiral triple and its mirror image share all dot products but not
    # the signed volume, so the feature vectors must differ
    pts = random_configurations(3, 1, RNG)[0]
    mirror = pts.copy()
    mirror[:, 2] *= -1.0
    f1, f2 = invariant_features(pts), invariant_features(mirror)
    assert np.max(np.abs(f1 - f2)) > 1e-3


def test_cluster_indices_links_blobs():
    blob1 = np.zeros((5, 2)) + np.linspace(0, 0.04, 5)[:, None]
    blob2 = np.ones((4, 2)) + np.linspace(0, 0.04, 4)[:, None]
    feats = np.concatenate([blob1, blob2])
    clusters = cluster_indices(feats, link_radius=0.05)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [4, 5]
    # radius below the intra-blob spacing shatters them
    assert len(cluster_indices(feats, link_radius=1e-4)) == 9


def test_is_singular_config_detects_the_abelian_locus():
    p = RNG.normal(size=3)
    p /= np.linalg.norm(p)
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    assert is_singular_config(signs[:, None] * p)
    assert not is_singular_config(random_configurations(4, 1, RNG)[0])


# --- solve() ---------------------------------------------------------------------


def test_trivial_words_are_refused_with_full_variety_report():
    for text in ("2:", "3: 1 -1", "3: 1 2 -2 -1"):
        report = solve(parse_braid(text), FAST)
        assert report.full_variety
        assert report.components == ()
        assert "trivial" in report.note


def test_solve_is_deterministic():
    word = parse_braid("2: 1 1 1")
    r1 = solve(word, FAST)
    r2 = solve(word, FAST)
    assert len(r1.components) == len(r2.components)
    for c1, c2 in zip(r1.components, r2.components):
        assert c1.topology_tag == c2.topology_tag
        assert c1.est_dimension == c2.est_dimension
        assert c1.sample_count == c2.sample_count
        assert np.max(
            np.abs(
                c1.representative.as_array() - c2.representative.as_array()
            )
        ) == 0.0


def test_solve_trefoil_census():
    report = solve(parse_braid("2: 1 1 1"), FAST)
    census = sorted((c.topology_tag, c.est_dimension) for c in report.components)
    assert census == [("RP3", 3), ("S2", 2)]
    assert report.seeds_converged > 0
    for comp in report.components:
        assert comp.residual < 1e-10
    sphere = [c for c in report.components if c.topology_tag == "S2"][0]
    assert sphere.is_abelian
    rp3 = [c for c in report.components if c.topology_tag == "RP3"][0]
    assert rp3.is_binary_dihedral and not rp3.is_abelian


def test_solve_component_representatives_are_on_the_variety():
    word = parse_braid("3: 1 -2 1 -2")
    report = solve(word, FAST)
    for comp in report.components:
        rep = comp.representative.as_array()
        assert residual_array(word, rep[None])[0] < 1e-10


# --- reference censuses ------------------------------------------------------------


def test_torus_census_shapes():
    assert [dataclasses.astuple(c) for c in torus_components(2)] == [
        ("S2", 2, 0.0),
        ("S2", 2, math.pi),
    ]
    c3 = torus_components(3)
    assert [c.topology_tag for c in c3] == ["S2", "RP3"]
    assert c3[1].angle == pytest.approx(2 * math.pi / 3)
    c9 = torus_components(9)
    assert [c.topology_tag for c in c9] == ["S2"] + ["RP3"] * 4
    with pytest.raises(ValueError):
        torus_components(0)


def test_angle_cases_for_the_eight_component_knot():
    sols = angle_case_9_42()
    assert len(sols) == 8
    cases = sorted(s.case for s in sols)
    assert cases == ["diagonal"] + ["heptagonal"] * 3 + ["pentagonal"] * 4
    for s in sols:
        assert isinstance(s, AngleCaseSolution)
        assert s.residual < 1e-10, (s.case, s.parameters, s.residual)
    # heptagonal families are coplanar with the origin, pentagonal are not,
    # and the two pentagonal mirrors are separated by the volume sign
    for s in sols:
        if s.case == "heptagonal":
            assert abs(s.triple_volume) < 1e-12
        if s.case == "pentagonal":
            assert abs(s.triple_volume) > 1e-3
    pent = sorted(
        s.triple_volume for s in sols if s.case == "pentagonal"
    )
    assert pent[0] < 0 < pent[-1]


def test_angle_case_points_are_unit_and_distinct():
    sols = angle_case_9_42()
    feats = []
    for s in sols:
        for v in (s.a, s.b, s.c):
            assert abs(np.linalg.norm(np.array(v)) - 1.0) < 1e-12
        feats.append(
            invariant_features(np.array([s.a, s.b, s.c]))
        )
    feats = np.array(feats)
    gaps = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=-1)
    gaps += np.eye(len(sols))
    assert gaps.min() > 1e-3  # no two cases coincide


def test_variety_rank_follows_the_topology_tags(solve_table):
    def rank(name):
        report, _ = solve_table(name)
        return variety_rank(c.topology_tag for c in report.components)

    # S2 + 2 RP3 + RP3 x S1 = 2 + 2 + 2 + 4; S2 + 7 RP3 = 2 + 7 * 2
    assert rank("square") == 10
    assert rank("9_42") == 16
    assert variety_rank(["S2", "UNKNOWN", "RP3"]) is None
    assert variety_rank(["UNKNOWN"]) is None
