"""Fixed-point solver: residuals, clustering, censuses."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import oracles
from repvar import solver
from repvar.braid import (
    BraidWord,
    act_array,
    closure_cycles,
    differential_arrays,
    is_singular_config,
    knot_by_name,
    load_knot_table,
    parse_braid,
    random_configurations,
    tangent_basis,
    tangent_frames,
)
from repvar.claims import census_checks, torus_components
from repvar.solver import (
    DESCENT_TOL,
    NULL_TOL,
    POLISH_TOL,
    FixedPointEquation,
    SolverConfig,
    _classify,
    _levenberg,
    _trace_loop,
    cluster_indices,
    invariant_features,
    residual_array,
    solve,
    variety_rank,
)
from repvar.symplectic import lagrangian_tangent_arrays, sigma_tilde

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


def _random_words(rng, count):
    for _ in range(count):
        strands = int(rng.integers(2, 5))
        length = int(rng.integers(1, 6))
        letters = rng.integers(1, strands, size=length) * rng.choice([-1, 1], size=length)
        yield BraidWord(strands, tuple(int(k) for k in letters))


def test_jacobian_matches_finite_differences():
    # column m of the Jacobian of g -> act(g) - g is the pushforward of the
    # m-th tangent basis vector (slot m // 2, vector e1 or e2) minus itself;
    # a 41-letter torus word amplifies any drift off the spheres
    rng = np.random.default_rng(29)
    worst = 0.0
    for word in itertools.chain(_random_words(rng, 30), [BraidWord(2, (1,) * 41)]):
        strands = word.strands
        pts = random_configurations(strands, 2, rng)
        e1, e2 = tangent_basis(pts)
        jac, f = FixedPointEquation(word).jacobian(pts, e1, e2)
        assert jac.shape == (2, 3 * strands, 2 * strands)
        # the sweep's final state is the action itself, bit for bit, so the
        # residual vector is act(g) - g exactly
        assert np.array_equal(f, (act_array(word, pts) - pts).reshape(2, -1))
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


@pytest.mark.parametrize("n", [12, 13, 17, 25, 35, 41])
def test_long_torus_solves_keep_every_seed(n):
    # a long word amplifies any drift off the spheres: seeds are lost to
    # the polish, and by T(2,35) the Jacobian overflows (LinAlgError); from
    # T(2,12) on, neighbouring orbits are closer than any fixed link radius
    report = solve(BraidWord(2, (1,) * n))
    assert report.seeds_converged == 1536
    checks = census_checks(report)
    assert checks and all(c["passed"] for c in checks), checks


def test_levenberg_steps_only_the_live_seeds():
    # half the batch starts on the variety (the diagonal (p, p), residual
    # at rounding level): no Jacobian is built for it, and it comes back
    # untouched
    word = parse_braid("2: 1 1 1")
    rng = np.random.default_rng(37)
    p = random_configurations(1, 32, rng)
    fixed = np.concatenate([p, p], axis=1)
    pts = np.concatenate([random_configurations(2, 32, rng), fixed])
    rows = []

    class Counting(FixedPointEquation):
        def jacobian(self, pts, e1, e2):
            rows.append(len(pts))
            return super().jacobian(pts, e1, e2)

    out, _ = _levenberg(Counting(word), pts)
    assert rows and max(rows) <= 32, rows
    assert np.array_equal(out[32:], fixed)


def test_seeds_above_the_polish_bound_are_not_samples(monkeypatch):
    # the descent reports residuals between POLISH_TOL and DESCENT_TOL for
    # the planted abelian rows, which come first, and for every tenth row:
    # none of them is counted as converged or as a component's sample
    word = parse_braid("2: 1 1 1")
    planted = 4  # one link component: the four-row minimum
    counts = []

    def levenberg(system, pts):
        out, r = _levenberg(system, pts)
        unpolished = np.arange(len(r)) % 10 == 0
        unpolished[:planted] = True
        polished = r < POLISH_TOL
        counts.append((np.count_nonzero(polished & ~unpolished),
                       np.count_nonzero(polished & unpolished)))
        return out, np.where(unpolished, math.sqrt(POLISH_TOL * DESCENT_TOL), r)

    monkeypatch.setattr(solver, "_levenberg", levenberg)
    report = solve(word, FAST)
    kept, demoted = counts[0]
    assert demoted == 29  # rows 0-3 and every tenth: all polished in fact
    assert report.seeds_converged == kept
    assert sum(c.sample_count for c in report.components) == kept
    assert sum(c.seeded_samples for c in report.components) == 0


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


def test_cluster_indices_matches_the_component_oracle():
    rng = np.random.default_rng(31)
    centers = rng.normal(size=(6, 3))
    blobs = centers[rng.integers(0, 6, size=400)] + 0.1 * rng.normal(size=(400, 3))
    # a chain with two gaps, shuffled: labels must travel ~500 links
    steps = np.full(1500, 0.01)
    steps[[500, 1100]] = 0.05
    chain = np.stack([np.cumsum(steps), np.zeros(1500)], axis=1)
    chain = chain[rng.permutation(1500)]
    for feats, radius in ((blobs, 0.15), (chain, 0.015), (np.zeros((1, 2)), 0.15)):
        got = [c.tolist() for c in cluster_indices(feats, radius)]
        assert got == oracles.radius_components(feats, radius)
    assert len(cluster_indices(chain, 0.015)) == 3


def _orbit_regime():
    """The solver's regime: 3000 seeds on 900 orbits, within 1e-8 of their
    orbit's invariants, and the number of orbits hit.  Half the orbits share
    their first invariant with another, as mirror pairs share every dot
    product."""
    rng = np.random.default_rng(5)
    centres = rng.normal(size=(900, 10))
    centres[450:, 0] = centres[:450, 0]
    orbit = rng.integers(0, 900, size=3000)
    feats = centres[orbit] + 1e-8 * rng.normal(size=(3000, 10))
    return feats, 1e-6, len(np.unique(orbit))


# (features, radius, the expected groups or their number) where a sweep
# along the first feature could part from the all-pairs graph
SWEEP_CASES = {
    # every number here is exact in binary
    "first_features_exactly_the_radius_apart": (
        np.array([[0.25, 0.0], [0.75, 0.0], [-0.25, 3.0], [0.25, 3.0]]), 0.5,
        [[0, 1], [2, 3]]),
    # the rounded difference 5e-324 + 0.1 is 0.1, so the distance test links
    # a pair whose first features are more than 0.1 apart
    "linked_by_rounding_beyond_the_radius": (
        np.array([[-0.1, 0.0], [5e-324, 0.0]]), 0.1, [[0, 1]]),
    "near_in_the_first_feature_only": (
        np.array([[0.0, 0.0], [0.1, 1.0]]), 0.5, [[0], [1]]),
    "all_first_features_equal": (
        np.stack([np.full(300, 0.3), np.random.default_rng(7).uniform(0.0, 3.0, 300)],
                 axis=1), 0.01, None),
    "orbit_regime": _orbit_regime(),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_cluster_indices_sweep_keeps_the_all_pairs_graph(case):
    feats, radius, expected = SWEEP_CASES[case]
    got = [c.tolist() for c in cluster_indices(feats, radius)]
    assert got == oracles.radius_components(feats, radius)
    if isinstance(expected, list):
        assert got == expected
    elif expected is not None:
        assert len(got) == expected


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


def test_classify_reads_the_nullity_off_a_clean_gap():
    # three zeros, the rest well clear of the band around NULL_TOL
    nullity, tag, gap = _classify(np.array([4.0, 1.0, 0.2, 4e-12, 1e-14, 0.0]), False)
    assert (nullity, tag) == (3, "RP3")
    assert gap == (1e-12, 0.05)
    assert gap[0] < NULL_TOL < gap[1]
    sv = np.array([1.0, 0.3, 1e-12, 0.0])
    assert _classify(sv, True)[:2] == (2, "S2")
    assert _classify(sv, False)[:2] == (2, "UNKNOWN")  # a 2-dim nonabelian set
    # one direction more than an orbit: RP3 x S1 only from a traced loop
    sv = np.array([1.0, 0.5, 0.1, 0.05, 1e-9, 0.0, 0.0, 0.0])
    assert _classify(sv, True)[:2] == (4, "UNKNOWN")
    assert _classify(sv, False)[:2] == (4, "UNKNOWN")


def test_classify_without_a_clean_gap_is_unknown():
    # a value inside [NULL_TOL / 100, NULL_TOL * 100], on either side of NULL_TOL
    for blurred in (2e-5, 3e-7, 1.5e-8):
        sv = np.array([1.0, 0.5, blurred, 1e-13, 0.0])
        nullity, tag, gap = _classify(sv, False)
        assert tag == "UNKNOWN"
        assert nullity == (3 if blurred < NULL_TOL else 2)
        assert blurred in gap
    # no value counted as zero: nullity 0, nothing on the zero side of the gap
    nullity, tag, gap = _classify(np.array([2.0, 1.0, 0.5, 0.25]), True)
    assert (nullity, tag, gap) == (0, "UNKNOWN", (None, 0.125))


@pytest.mark.parametrize("n, seed", [
    (9, 103), (10, 7919),
    *((41, seed) for seed in (11, 13, 19, 24, 26, 34, 40)), (40, 5)])
def test_torus_census_at_seeds_that_defeat_sampled_dimensions(n, seed):
    # at the first two seeds a dimension estimated from local samples around
    # one representative comes out wrong; the Jacobian's nullity does not.
    # At the T(2,41) and T(2,40) seeds no random seed reaches an abelian S2;
    # the planted seeds do
    report = solve(BraidWord(2, (1,) * n), SolverConfig(rng_seed=seed))
    checks = census_checks(report)
    names = ["census.torus_components", "census.torus_angles"]
    if n % 2:  # a knot: its one abelian S2 and its Fox colourings too
        names[:0] = ["census.abelian_dimensions", "census.binary_dihedral"]
    assert [c["name"] for c in checks] == names
    assert all(c["passed"] for c in checks), checks


@pytest.mark.parametrize("text, seeds, planted", [
    ("2: 1 1 1", 1536, 4),  # a knot: the diagonal only
    ("2: 1 1 1 1", 1536, 4),  # two components: diagonal and antidiagonal
    ("3: 1 1", 128, 4),  # three components, four sign patterns
    ("4: 1 3 1 3", 128, 8),  # four components: eight patterns, eight rows
    ("2: 1 1 1 1", 1, 1),  # never more rows than seeds
])
def test_planted_abelian_seeds_are_exact_and_counted(text, seeds, planted):
    word = parse_braid(text)
    drawn = random_configurations(word.strands, seeds, np.random.default_rng(5))
    pts = drawn.copy()
    rows = solver._plant_abelian(word, pts)
    assert rows == planted
    assert np.array_equal(pts[rows:], drawn[rows:])
    assert np.array_equal(pts[:rows, 0], drawn[:rows, 0])
    assert np.all(residual_array(word, pts[:rows]) < 1e-24)
    # +-p in every slot, one sign per link component, every pattern up to a
    # global sign while the rows last
    signs = np.sign(np.einsum("rsk,rk->rs", pts[:rows], pts[:rows, 0]))
    assert np.array_equal(pts[:rows], signs[..., None] * pts[:rows, :1])
    labels = np.array(closure_cycles(word))
    for row in signs:
        assert all(len(set(row[labels == c])) == 1 for c in set(labels))
    patterns = 2 ** labels.max()
    assert len({tuple(row) for row in signs}) == min(rows, patterns)
    report = solve(word, SolverConfig(seeds=seeds, rng_seed=5))
    assert sum(c.seeded_samples for c in report.components) == rows
    if word.strands == 2:  # there the abelian points form S2 components
        assert all(c.is_abelian and c.topology_tag == "S2"
                   for c in report.components if c.seeded_samples)


def _planted_sphere_comes_first(report) -> bool:
    """Whether component 0 is the abelian S2 the planted seeds lie on."""
    first = report.components[0]
    return (first.topology_tag == "S2" and first.is_abelian
            and first.seeded_samples > 0)


def test_component_ids_follow_the_seeds(solve_table):
    # the planted seeds are the first drawn, so their S2 is component 0
    for knot in load_knot_table().values():
        report, _ = solve_table(knot.name)
        assert _planted_sphere_comes_first(report), (knot.name, report.components)


@pytest.mark.parametrize("seed", [1, 2])
def test_table_censuses_at_other_solver_seeds(seed):
    for knot in load_knot_table().values():
        report = solve(knot.word, SolverConfig(rng_seed=seed))
        checks = census_checks(report)
        assert checks and all(c["passed"] for c in checks), (knot.name, checks)
        assert _planted_sphere_comes_first(report), (knot.name, report.components)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_stabilised_word_of_9_42_gets_its_census(seed):
    # 9_42's word conjugated and stabilised: the same variety from other
    # equations, with a Jacobian whose sigma_min / sigma_max falls to 1.8e-3
    # near one RP3.  A seed kept unpolished there, at a residual such as
    # 6.9e-15, sits just past the grouping radius of its orbit and makes a
    # ninth component
    word = parse_braid("5: 1 -2 -1 -1 -1 2 -1 2 -1 3 -2 3 1 2 -1 4")
    report = solve(word, SolverConfig(rng_seed=seed))
    census = sorted((c.topology_tag, c.est_dimension) for c in report.components)
    assert census == [("RP3", 3)] * 7 + [("S2", 2)]
    assert [c.is_abelian for c in report.components].count(True) == 1
    checks = census_checks(report)
    assert [c["name"] for c in checks] == ["census.abelian_dimensions",
                                           "census.binary_dihedral"]
    assert all(c["passed"] for c in checks), checks


# Words related to a base word by Markov moves (conjugation and
# stabilisation): the same link, so the same variety from other equations
MARKOV_WORDS = [
    ("3_1", "3: 1 1 1 2"), ("3_1", "3: 1 1 1 -2"), ("3_1", "4: 1 1 1 2 3"),
    ("3_1", "3: 1 2 1 2"),
    ("4_1", "4: 1 -2 1 -2 3"), ("4_1", "4: 1 -2 1 -2 -3"),
    ("5_2", "4: 1 1 1 2 -1 2 -3"),
    ("3: 1 2 1 2 1 2 1 2", "4: 1 2 1 2 1 2 1 2 3"),  # T(3, 4)
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("base, text", MARKOV_WORDS)
def test_words_related_by_markov_moves_get_their_base_census(
        base, text, seed, solve_table):
    # a base is a table knot's name or a braid word
    base = parse_braid(base) if ":" in base else knot_by_name(base).word
    config = SolverConfig(rng_seed=seed)
    base_report = solve_table(base)[0] if seed == 0 else solve(base, config)
    report = solve(parse_braid(text), config)

    def census(r):
        return sorted((c.topology_tag, c.est_dimension) for c in r.components)

    assert census(report) == census(base_report)
    checks = census_checks(report)
    assert [c["name"] for c in checks] == ["census.abelian_dimensions",
                                           "census.binary_dihedral"]
    assert all(c["passed"] for c in checks), checks


def test_gate_solves_are_polished_well_inside_the_gap(solve_table):
    # the words of acceptance criteria 01-04: every representative is on the
    # variety to far below the survivor bound, its stored residual is its
    # own, recomputed from the representative, and its null singular values
    # sit four orders below NULL_TOL, so a looser stopping rule shows here
    # before any census changes
    words = [BraidWord(2, (1,) * n) for n in range(2, 10)]
    for word in words + ["4_1", "5_2", "6_1", "9_42", "square"]:
        report, _ = solve_table(word)
        for comp in report.components:
            rep = comp.representative.as_array()
            [residual] = residual_array(report.word, rep[None])
            assert residual == comp.residual < POLISH_TOL, (word, comp)
            assert comp.null_gap[0] <= NULL_TOL * 1e-4, (word, comp)


def test_square_rp3_x_s1_is_one_closed_loop(monkeypatch):
    # the S1 factor is traced, not read off the nullity: one loop closes,
    # and its component holds every surviving seed of nullity 4
    survivors, paths = [], []

    def features(pts):
        survivors.append(pts)
        return invariant_features(pts)

    def trace(system, start):
        paths.append(_trace_loop(system, start))
        return paths[-1]

    monkeypatch.setattr(solver, "invariant_features", features)
    monkeypatch.setattr(solver, "_trace_loop", trace)
    word = knot_by_name("square").word
    report = solve(word)
    [path] = paths
    steps = np.linalg.norm(np.diff(path, axis=0), axis=-1)
    assert len(path) > 3 and np.linalg.norm(path[-1] - path[0]) <= steps.max()
    pts = survivors[0]
    assert len(pts) == report.seeds_converged
    jac, _ = FixedPointEquation(word).jacobian(pts, *tangent_basis(pts))
    sv = np.linalg.svd(jac, compute_uv=False)
    nullity = np.count_nonzero(sv < NULL_TOL * sv[:, :1], axis=1)
    [loop] = [c for c in report.components if c.topology_tag == "PRODUCT_RP3_S1"]
    assert loop.sample_count == np.count_nonzero(nullity == 4)
    assert "UNKNOWN" not in [c.topology_tag for c in report.components]


def _clean_intersection_dimension(word, g):
    """dim(T L n d sigma~(word) T L) at (p, g), p = -reverse(g), where L is
    the mirrored-tuple Lagrangian: 4n minus the rank of the two tangent
    spaces stacked.  Built from the paper's construction alone, with no
    solver code; also returns the relative singular values of the stack."""
    n = word.strands
    p = -g[::-1]
    # T L from tangent coefficients only: a coefficient along its base point
    # leaves the class, and its pushforward is not a tangent image
    coeffs = tangent_frames(*tangent_basis(p))
    base, frame = lagrangian_tangent_arrays(np.broadcast_to(p, coeffs.shape), coeffs)
    moved, pushed = differential_arrays(sigma_tilde(word), base, frame)
    assert np.max(np.abs(moved - base)) < 1e-6  # (p, g) is fixed by sigma~
    # rank over velocities X x p, not over coefficients
    vel = np.concatenate([np.cross(frame, base), np.cross(pushed, moved)])
    sv = np.linalg.svd(vel.reshape(4 * n, 6 * n), compute_uv=False)
    rel = sv / sv[0]
    return 4 * n - int(np.count_nonzero(rel > 1e-8)), rel


@pytest.mark.parametrize("name", ["3_1", "5_2"])
def test_nullity_is_the_dimension_of_the_lagrangian_intersection(name, solve_table):
    # each component is a clean component of L and sigma~(word)(L): their
    # tangent spaces meet in exactly the component's dimension
    report, _ = solve_table(name)
    word = report.word
    for comp in report.components:
        dim, rel = _clean_intersection_dimension(word, comp.representative.as_array())
        assert dim == comp.est_dimension, (name, comp.id, dim)
        assert not np.any((rel > 1e-12) & (rel < 1e-3)), rel  # a clean gap


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


def test_variety_rank_follows_the_topology_tags(solve_table):
    def rank(name):
        report, _ = solve_table(name)
        return variety_rank(c.topology_tag for c in report.components)

    # S2 + 2 RP3 + RP3 x S1 = 2 + 2 + 2 + 4; S2 + 7 RP3 = 2 + 7 * 2
    assert rank("square") == 10
    assert rank("9_42") == 16
    assert variety_rank(["S2", "UNKNOWN", "RP3"]) is None
    assert variety_rank(["UNKNOWN"]) is None
