"""The claim registry: pinned bounds, selection, check records, reference
censuses."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repvar import chern, claims, hessian, symplectic
from repvar.braid import BraidWord, Configuration, load_knot_table, parse_braid
from repvar.solver import ComponentReport, SolveReport

# (name, kind, bound) of every claim, in report order.  A loosened bound or
# a renamed, dropped or reordered claim fails here.
PINNED = (
    ("symplectic.invariance_all_generators_4_strands", "abs_le", 1e-10),
    ("symplectic.invariance_all_generators_6_strands", "abs_le", 1e-10),
    ("symplectic.invariance_all_generators_8_strands", "abs_le", 1e-10),
    ("symplectic.form_rank_on_2_pair_product_one_locus", "equals", [8]),
    ("symplectic.form_rank_on_3_pair_product_one_locus", "equals", [12]),
    ("lagrangian.doubled_word_image", "abs_le", 1e-10),
    ("lagrangian.identity_4_strands", "abs_le", 1e-10),
    ("lagrangian.random_words_4_strands", "abs_le", 1e-10),
    ("lagrangian.identity_6_strands", "abs_le", 1e-10),
    ("lagrangian.random_words_6_strands", "abs_le", 1e-10),
    ("hessian.parity_swap_negates", "equals", [True] * 7),
    ("hessian.signature_zero", "equals", [0] * 7),
    ("hessian.min_abs_eigenvalue", "gt", 1e-2),
    ("hessian.pfaffian_recurrence_vs_direct", "equals", [2, 5, 12, 29, 70, 169, 408]),
    ("hessian.pfaffian_table", "equals", [2, 5, 12, 29, 70, 169, 408]),
    ("hessian.det_equals_pfaffian_fourth", "equals", [True] * 3),
    ("chern.modulus_deviation_first_contour", "abs_le", 1e-9),
    ("chern.modulus_deviation_second_contour", "abs_le", 1e-9),
    ("chern.junction_gap_max", "abs_le", 1e-9),
    ("chern.winding_first_contour", "equals", -1),
    ("chern.winding_second_contour", "equals", -1),
    ("chern.chern_pairing", "equals", -2),
    ("monotone.cylinder_integral_plus_pi_squared", "abs_le", 1e-8),
    ("monotone.cap_pullback_max", "abs_le", 1e-12),
    ("monotone.adjacent_pair_sphere_form_max", "abs_le", 1e-12),
    ("monotone.chern_pairing", "equals", -2),
    ("monotone.ratio_minus_half_pi_squared", "abs_le", 1e-6),
)


def test_registry_matches_the_pinned_bounds():
    assert tuple((c.name, c.kind, c.bound) for c in claims.CLAIMS) == PINNED


def test_run_returns_records_in_registry_order():
    names = ["monotone.chern_pairing", "chern.winding_first_contour",
             "monotone.cylinder_integral_plus_pi_squared"]
    checks = claims.run(names)
    assert [c["name"] for c in checks] == [
        "chern.winding_first_contour",
        "monotone.cylinder_integral_plus_pi_squared",
        "monotone.chern_pairing",
    ]
    assert all(c["passed"] for c in checks)


def test_run_rejects_unknown_names():
    with pytest.raises(KeyError, match="chern.nope"):
        claims.run(["chern.nope"])


def test_check_kinds():
    record = claims.check_record
    assert record("a", "abs_le", -1e-11, 1e-10)["passed"]
    assert not record("a", "abs_le", 2e-10, 1e-10)["passed"]
    assert not record("g", "gt", 1e-2, 1e-2)["passed"]
    assert record("e", "equals", [8], [8]) == {
        "name": "e", "kind": "equals", "value": [8], "expected": [8],
        "passed": True}
    assert claims.describe(record("a", "abs_le", 2e-10, 1e-10)) == (
        "|2.000e-10| <= 1e-10")


def test_each_run_solves_each_hessian_spectrum_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(len(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    names = ["hessian.signature_zero", "hessian.min_abs_eigenvalue"]
    for _ in range(2):
        calls.clear()
        assert all(c["passed"] for c in claims.run(names))
        assert sorted(calls) == [4 * n - 4 for n in claims.HESSIAN_SIZES]


def test_each_run_builds_each_hessian_once(monkeypatch):
    # H(n) and H'(n) only for the largest n: the smaller ones are their
    # leading blocks, and one elimination gives all the Pfaffians
    calls = []
    zeros = np.zeros
    eliminations = []
    eliminate = hessian._eliminate

    def counting(shape, *args, **kwargs):
        calls.append(shape)
        return zeros(shape, *args, **kwargs)

    def counting_eliminate(a, leading):
        eliminations.append(len(a))
        return eliminate(a, leading)

    monkeypatch.setattr(np, "zeros", counting)
    monkeypatch.setattr(hessian, "_eliminate", counting_eliminate)
    names = [c.name for c in claims.CLAIMS if c.name.startswith("hessian.")]
    sizes = [4 * claims.HESSIAN_SIZES[-1] - 4,  # H(8)
             2 * claims.HESSIAN_SIZES[-1] - 2]  # H'(8)
    for _ in range(2):
        calls.clear()
        eliminations.clear()
        assert all(c["passed"] for c in claims.run(names))
        assert sorted(calls) == sorted((s, s) for s in sizes)
        assert eliminations == [14]


def test_each_run_evaluates_the_contour_once(monkeypatch):
    calls = []
    det = np.linalg.det

    def counting(m):
        calls.append(np.shape(m))
        return det(m)

    monkeypatch.setattr(np.linalg, "det", counting)
    names = [c.name for c in claims.CLAIMS
             if c.name.startswith(("chern.", "monotone."))]
    for _ in range(2):
        calls.clear()
        assert all(c["passed"] for c in claims.run(names))
        assert calls == [(8 * 64, 4, 4)]


def test_each_monotone_run_evaluates_the_form_three_times(monkeypatch):
    # the cylinder grid, both caps together and the adjacent-pair sphere
    calls = []
    form = symplectic.omega_c_array

    def counting(base, x, y):
        calls.append(base.shape[:-2])
        return form(base, x, y)

    monkeypatch.setattr(symplectic, "omega_c_array", counting)
    names = [c.name for c in claims.CLAIMS if c.name.startswith("monotone.")]
    for _ in range(2):
        calls.clear()
        assert all(c["passed"] for c in claims.run(names))
        assert sorted(calls) == [(256,), (512,), (1024,)]


@pytest.mark.parametrize("suite", ["chern", "monotone"])
def test_each_run_winds_each_contour_once(monkeypatch, suite):
    calls = []
    winding_number = chern.winding_number

    def counting(values):
        calls.append(len(values))
        return winding_number(values)

    monkeypatch.setattr(chern, "winding_number", counting)
    names = [c.name for c in claims.CLAIMS if c.name.startswith(f"{suite}.")]
    for _ in range(2):
        calls.clear()
        assert all(c["passed"] for c in claims.run(names))
        assert calls == [8 * 64, 8 * 64]


# --- reference censuses ----------------------------------------------------------


def _solved(word: BraidWord, census) -> SolveReport:
    """A report of `word` with one component per (tag, dimension, abelian,
    angle) entry; the angle is the one between the first two points."""
    comps = []
    for cid, (tag, dim, abelian, angle) in enumerate(census):
        rep = np.zeros((word.strands, 3))
        rep[:, 0] = 1.0
        rep[1] = [math.cos(angle), math.sin(angle), 0.0]
        comps.append(ComponentReport(
            cid, Configuration.from_array(rep), 10, dim, tag, False, abelian,
            0.0, (None, None)))
    return SolveReport(word, tuple(comps), 64, 64)


def _torus_census(n: int) -> list[tuple]:
    return [(c.topology_tag, c.est_dimension, c.topology_tag == "S2", c.angle)
            for c in claims.torus_components(n)]


def test_every_table_knot_has_a_reference_census():
    for name, entry in load_knot_table().items():
        checks = claims.census_checks(_solved(entry.word, []))
        assert checks, name
        assert not any(c["passed"] for c in checks), name
        if name in claims.TWO_BRIDGE_KNOTS:
            # one S2 and (det - 1) / 2 RP3, det from the table's own column
            want = checks[0]["expected"]
            assert len(want) == 1 + (entry.expected_determinant - 1) // 2
    assert set(claims.TWO_BRIDGE_KNOTS) | set(claims.KNOT_DIMENSIONS) == set(
        load_knot_table())


def test_a_table_knot_is_checked_against_its_own_census():
    word = load_knot_table()["9_42"].word
    census = [("S2", 2, True, 0.0)] + [("RP3", 3, False, 1.0)] * 7
    checks = claims.census_checks(_solved(word, census))
    assert [c["name"] for c in checks] == ["census.dimensions",
                                           "census.abelian_dimensions"]
    assert all(c["passed"] for c in checks)
    # a second abelian component fails only the abelian check
    census[1] = ("RP3", 3, True, 1.0)
    checks = claims.census_checks(_solved(word, census))
    assert [c["passed"] for c in checks] == [True, False]


@pytest.mark.parametrize("text, n", [("2: 1 1 1 1", 4), ("2: -1 -1 -1 -1 -1", 5),
                                     ("2: 1 -1 1", 1)])
def test_a_two_strand_word_is_checked_against_its_torus_census(text, n):
    checks = claims.census_checks(_solved(parse_braid(text), _torus_census(n)))
    assert [c["name"] for c in checks] == ["census.torus_components",
                                           "census.torus_angles"]
    assert all(c["passed"] for c in checks), checks


def test_a_torus_word_of_the_table_gets_both_censuses():
    checks = claims.census_checks(_solved(parse_braid("2: 1 1 1"),
                                          _torus_census(3)))
    assert [c["name"] for c in checks] == [
        "census.components", "census.abelian_dimensions",
        "census.torus_components", "census.torus_angles"]
    assert all(c["passed"] for c in checks)


def test_torus_angles_must_match():
    word = BraidWord(2, (1,) * 9)
    census = _torus_census(9)
    tag, dim, abelian, angle = census[1]
    census[1] = (tag, dim, abelian, angle + 2e-6)
    angles = claims.census_checks(_solved(word, census))[-1]
    assert angles["name"] == "census.torus_angles"
    assert angles["value"] == pytest.approx(2e-6) and not angles["passed"]
    # a census of the wrong size scores the largest angle error there is
    angles = claims.census_checks(_solved(word, census[1:]))[-1]
    assert angles["value"] == math.pi and not angles["passed"]


@pytest.mark.parametrize("text", ["3: 1 1", "2: 1 -1", "2:", "4: 1 -2 3"])
def test_a_word_with_no_reference_gets_no_checks(text):
    assert claims.census_checks(_solved(parse_braid(text), [])) == []
