"""End-to-end acceptance gate.

One test per published claim, each run at its stated tolerance and wall
budget.  Every test prints exactly one PASS/FAIL line with the measured
numbers (visible under `pytest -s`, and in the captured output of any
failure); the assertion carries the same message.  Criteria 01-04 check
solved censuses against the reference censuses of `repvar.claims`, the ones
`repvar variety` checks, and criteria 07-12 run the geometric claims of the
same registry, the ones `repvar verify` runs.
"""
from __future__ import annotations

import numpy as np

import oracles
from repvar import claims
from repvar.braid import (
    BraidWord,
    act_array,
    differential_arrays,
    knot_by_name,
    random_configurations,
)
from repvar.invariants import alexander, determinant, load_khovanov_ranks
from repvar.solver import variety_rank
from repvar.symplectic import random_coefficients


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line)
    assert ok, line


def _census(report, *names: str) -> tuple[dict[str, dict], bool]:
    """The report's census checks (`repvar.claims`) by name, and whether each
    of `names` is among them and every check passed."""
    checks = {c["name"]: c for c in claims.census_checks(report)}
    ok = set(names) <= set(checks) and all(c["passed"] for c in checks.values())
    return checks, ok


def test_criterion_01_torus_census(solve_table):
    total = 0.0
    for n in range(2, 10):
        report, elapsed = solve_table(BraidWord(2, (1,) * n))
        total += elapsed
        checks, ok = _census(report, "census.torus_components",
                             "census.torus_angles")
        assert ok, (n, list(checks.values()))
    _report(
        "criterion 01 torus-census",
        total < 60.0,
        f"8/8 exact censuses with matching angles in {total:.1f}s (budget 60s)",
    )


def test_criterion_02_two_bridge_counts(solve_table):
    names = ("4_1", "5_2", "6_1")
    counts = []
    worst = 0.0
    for name in names:
        report, elapsed = solve_table(name)
        worst = max(worst, elapsed)
        checks, ok = _census(report, "census.components",
                             "census.abelian_dimensions")
        assert ok, (name, list(checks.values()))
        counts.append(str(len(checks["census.components"]["expected"])))
    _report(
        "criterion 02 component-counts",
        worst < 120.0,
        f"{'/'.join(names)} -> {'/'.join(counts)} components, slowest "
        f"{worst:.1f}s (budget 120s each)",
    )


def test_criterion_03_eight_component_knot(solve_table):
    report, elapsed = solve_table("9_42")
    checks, census_ok = _census(report, "census.dimensions",
                                "census.abelian_dimensions",
                                "census.binary_dihedral")
    matched, flagged = checks["census.binary_dihedral"]["value"]
    ok = census_ok and elapsed < 300.0
    _report(
        "criterion 03 9_42-variety",
        ok,
        f"8 components (1 abelian dim 2, 7 dim 3), {matched}/3 Fox colouring "
        f"classes on their own RP3 and {flagged} flagged binary dihedral, "
        f"solve {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_04_square_knot(solve_table):
    report, elapsed = solve_table("square")
    checks, census_ok = _census(report, "census.dimensions")
    dims = checks["census.dimensions"]
    ok = census_ok and elapsed < 180.0
    _report(
        "criterion 04 square-knot",
        ok,
        f"dimension census {dims['value']} == {dims['expected']}, solve "
        f"{elapsed:.1f}s (budget 180s)",
    )


def test_criterion_05_two_bridge_predictor(solve_table):
    rows = []
    ok = True
    for name in claims.TWO_BRIDGE_KNOTS:
        det = determinant(knot_by_name(name).word)
        report, _ = solve_table(name)
        checks, census_ok = _census(report, "census.components")
        assert census_ok, (name, list(checks.values()))
        want = len(checks["census.components"]["expected"])
        rank = variety_rank(c.topology_tag for c in report.components)
        ok = ok and rank == det + 1
        rows.append(f"{name}:{len(report.components)}={want},rank {rank}={det + 1}")
    _report(
        "criterion 05 count-predictor",
        ok,
        "1 S2 + (det-1)/2 RP3 matches the solver's tagged census and rank "
        f"det+1 on all six knots [{'; '.join(rows)}]",
    )


def test_criterion_06_khovanov_mismatch(solve_table):
    report, _ = solve_table("9_42")
    rank = variety_rank(c.topology_tag for c in report.components)
    khovanov = load_khovanov_ranks()["9_42"]
    ok = rank == 16 and khovanov == 10 and rank != khovanov
    _report(
        "criterion 06 khovanov-mismatch",
        ok,
        f"variety rank {rank} vs khovanov rank {khovanov}: mismatch flagged",
    )


def _claims(tag: str, prefix: str, scope: str) -> None:
    """Run the registry's claims whose names start with `prefix` at seed 0
    and 1000 trials; one line with every measured value."""
    names = [c.name for c in claims.CLAIMS if c.name.startswith(prefix)]
    assert names, f"no claim named {prefix}*"
    checks = claims.run(names, seed=0, trials=1000)
    measured = "; ".join(
        f"{c['name'].partition('.')[2]} {claims.describe(c)}" for c in checks)
    _report(tag, all(c["passed"] for c in checks), f"{scope}: {measured}")


def test_criterion_07_braid_invariance():
    _claims("criterion 07 form-invariance", "symplectic.invariance_",
            "every generator of 4/6/8 strands, 1000 frame pairs each")


def test_criterion_08_lagrangian_vanishing():
    _claims("criterion 08 lagrangian-vanishing", "lagrangian.",
            "mirrored tuples under identity, doubled-trefoil and 40 random "
            "words, 1000 tangent pairs each")


def test_criterion_09_pairings():
    _claims("criterion 09 pairings", "monotone.",
            "area integral -pi^2, degree-zero spheres, first-class pairing "
            "-2, ratio pi^2/2")


def test_criterion_10_nondegeneracy_rank():
    _claims("criterion 10 form-rank", "symplectic.form_rank_",
            "rank 4n at 100 random nonsingular product-one points, n=2 and 3")


def test_criterion_11_second_variation():
    _claims("criterion 11 second-variation", "hessian.",
            "parity conjugation, signature 0, spectral gap, pfaffians by "
            "recurrence and direct elimination for n<=8, det = pf^4 for n<=4")


def test_criterion_12_determinant_contour():
    _claims("criterion 12 boundary-contour", "chern.",
            "|det| = 32 on both contours, junction gaps, windings -1/-1, "
            "pairing -2")


def test_criterion_13_oracle_agreement():
    alex_ok = True
    for name in ("3_1", "4_1", "5_2"):
        poly = alexander(knot_by_name(name).word)
        alex_ok = alex_ok and poly.coeffs == oracles.seifert_alexander(name)
        alex_ok = alex_ok and poly.min_exp == 0
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        strands = int(rng.integers(2, 5))
        length = int(rng.integers(1, 4))
        letters = tuple(
            int(k) * int(s)
            for k, s in zip(
                rng.integers(1, strands, size=length),
                rng.choice([-1, 1], size=length),
            )
        )
        word = BraidWord(strands, letters)
        pts = random_configurations(strands, 1, rng)
        coeffs = random_coefficients(pts, rng)
        moved, got = differential_arrays(word, pts, coeffs)
        want = oracles.fd_pushforward(
            lambda q: act_array(word, q[None])[0],
            pts[0],
            np.cross(coeffs[0], pts[0]),
        )
        got_vel = np.cross(got[0], moved[0])
        worst = max(worst, float(np.max(np.abs(got_vel - want))))
    ok = alex_ok and worst < 1e-6
    _report(
        "criterion 13 oracle-agreement",
        ok,
        f"Burau-route polynomial equals the Seifert oracle exactly for "
        f"3_1/4_1/5_2; pushforward vs central differences on 1000 random "
        f"words/frames: max error {worst:.2e} < 1e-6",
    )
