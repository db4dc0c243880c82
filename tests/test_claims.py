"""The claim registry: pinned bounds, selection, check records, reference
censuses."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repvar import chern, claims, hessian, symplectic
from repvar.braid import BraidWord, Configuration, load_knot_table, parse_braid
from repvar.invariants import colourings
from repvar.solver import ComponentReport, SolveReport, invariant_features
from repvar.su2 import circle_point

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
    # H(n) only for the largest n: the smaller ones are its leading blocks,
    # H'(n) is read off its odd rows and even columns, one elimination of
    # H'(8) gives all the Pfaffians, one of H(4) the determinants of H(2..4),
    # and one comparison of H(8) the parity results; the spectra still take
    # one eigensolve per H(n)
    calls = []
    zeros = np.zeros
    counted = {"_eliminate": [], "_bareiss": []}
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counting(shape, *args, **kwargs):
        calls.append(shape)
        return zeros(shape, *args, **kwargs)

    def counter(name):
        original = getattr(hessian, name)

        def count(a):
            counted[name].append(len(a))
            return original(a)
        return count

    def counting_eigvalsh(m):
        solves.append(len(m))
        return eigvalsh(m)

    monkeypatch.setattr(np, "zeros", counting)
    for name in counted:
        monkeypatch.setattr(hessian, name, counter(name))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    names = [c.name for c in claims.CLAIMS if c.name.startswith("hessian.")]
    sizes = [4 * claims.HESSIAN_SIZES[-1] - 4]  # H(8)
    for _ in range(2):
        calls.clear()
        solves.clear()
        for log in counted.values():
            log.clear()
        assert all(c["passed"] for c in claims.run(names))
        assert sorted(calls) == sorted((s, s) for s in sizes)
        assert counted == {"_eliminate": [14], "_bareiss": [12]}
        assert sorted(solves) == [4 * n - 4 for n in claims.HESSIAN_SIZES]


def test_each_run_evaluates_the_contour_once(monkeypatch):
    calls = []
    det = chern.determinants

    def counting(m):
        calls.append(np.shape(m))
        return det(m)

    monkeypatch.setattr(chern, "determinants", counting)
    monkeypatch.setattr(np.linalg, "det", lambda m: calls.append("lapack"))
    for suites in (("chern.",), ("monotone.",), ("chern.", "monotone.")):
        names = [c.name for c in claims.CLAIMS if c.name.startswith(suites)]
        for _ in range(2):
            calls.clear()
            assert all(c["passed"] for c in claims.run(names))
            assert calls == [(8 * 64, 4, 4)], suites


def test_each_monotone_run_evaluates_the_form_once(monkeypatch):
    # the cylinder grid, both caps and the adjacent-pair sphere, stacked
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
        assert calls == [(32 * 32 + 2 * 256 + 256,)]


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


def test_contour_and_sphere_inputs_are_built_once_per_process():
    # the contour frames and the stacked charts of the form (cylinder grid,
    # caps, adjacent-pair sphere) are keyed by value, so repeated runs hit
    # the one entry each instead of adding entries, and what they hold is
    # read-only
    caches = ((chern._frames, (64,)),
              (symplectic._monotone_stack, (2, 32)))
    names = [c.name for c in claims.CLAIMS
             if c.name.startswith(("chern.", "monotone."))]
    claims.run(names)
    before = [f.cache_info() for f, _ in caches]
    for _ in range(50):
        assert all(c["passed"] for c in claims.run(names))
    for (f, key), info in zip(caches, before):
        after = f.cache_info()
        assert (after.misses, after.currsize) == (info.misses, info.currsize)
        assert after.hits - info.hits == 50
        held = f(*key)
        for a in held if isinstance(held, tuple) else (held,):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0.0


# --- reference censuses ----------------------------------------------------------


def _solved(word: BraidWord, census, classes=()) -> SolveReport:
    """A report of `word` with one component per (tag, dimension, abelian,
    angle) entry, the angle the one between the first two points, and then
    one RP3 at each class of `classes` (turns of points on one great
    circle).  A class's RP3, and as in the solver every configuration of
    fewer than three points, is flagged binary dihedral."""
    reps = []
    for tag, dim, abelian, angle in census:
        rep = np.zeros((word.strands, 3))
        rep[:, 0] = 1.0
        rep[1] = [math.cos(angle), math.sin(angle), 0.0]
        reps.append((rep, dim, tag, word.strands < 3, abelian))
    for turns in classes:
        rep = circle_point(2.0 * math.pi * np.array(turns, dtype=float))
        reps.append((rep, 3, "RP3", True, False))
    comps = [ComponentReport(cid, Configuration.from_array(rep), 10, dim, tag,
                             dihedral, abelian, 0.0, (None, None))
             for cid, (rep, dim, tag, dihedral, abelian) in enumerate(reps)]
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
    # its 3 heptagonal RP3 are its Fox colouring classes, the other 4 are not
    classes = colourings(word)[1:]
    census = [("S2", 2, True, 0.0)] + [("RP3", 3, False, 1.0)] * 4
    checks = claims.census_checks(_solved(word, census, classes))
    assert [c["name"] for c in checks] == ["census.dimensions",
                                           "census.abelian_dimensions",
                                           "census.binary_dihedral"]
    assert all(c["passed"] for c in checks)
    assert checks[-1]["value"] == [3, 3]
    # a second abelian component fails only the abelian check
    census[1] = ("RP3", 3, True, 1.0)
    checks = claims.census_checks(_solved(word, census, classes))
    assert [c["passed"] for c in checks] == [True, False, True]


@pytest.mark.parametrize("text, n", [("2: 1 1 1 1", 4), ("2: -1 -1 -1 -1 -1", 5),
                                     ("2: 1 -1 1", 1)])
def test_a_two_strand_word_is_checked_against_its_torus_census(text, n):
    checks = claims.census_checks(_solved(parse_braid(text), _torus_census(n)))
    names = ["census.torus_components", "census.torus_angles"]
    if n % 2:  # a knot: its one abelian S2 and its Fox colourings too
        names[:0] = ["census.abelian_dimensions", "census.binary_dihedral"]
    assert [c["name"] for c in checks] == names
    assert all(c["passed"] for c in checks), checks


def test_a_torus_word_of_the_table_gets_both_censuses():
    checks = claims.census_checks(_solved(parse_braid("2: 1 1 1"),
                                          _torus_census(3)))
    assert [c["name"] for c in checks] == [
        "census.components", "census.abelian_dimensions",
        "census.binary_dihedral", "census.torus_components",
        "census.torus_angles"]
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


@pytest.mark.parametrize("n, index, sign", [(3, 0, 1.0), (4, 1, -1.0)])
def test_torus_angles_read_rounding_level_at_0_and_pi(n, index, sign):
    # an S2 representative whose slots' dot product is one rounding unit
    # from +-1: the arccosine of it would read an angle of 2.1e-8
    report = _solved(BraidWord(2, (1,) * n), _torus_census(n))
    sphere = report.components[index]
    assert sphere.topology_tag == "S2"
    rep = Configuration(((1.0, 0.0, 0.0), (sign * (1.0 - 2.0 ** -52), 0.0, 0.0)))
    assert np.dot(*rep.points) == sign * (1.0 - 2.0 ** -52)
    comps = list(report.components)
    comps[index] = dataclasses.replace(sphere, representative=rep)
    report = dataclasses.replace(report, components=tuple(comps))
    angles = claims.census_checks(report)[-1]
    assert angles["name"] == "census.torus_angles"
    assert angles["value"] < 1e-12 and angles["passed"]


@pytest.mark.parametrize("text", ["3: 1 1", "2: 1 -1", "2:"])
def test_a_word_with_no_reference_gets_no_checks(text):
    # no reference census: the report fails census.covered rather than read
    # as a pass, unless the word acts trivially and every point is fixed
    report = _solved(parse_braid(text), [])
    assert claims.census_checks(report) == [{
        "name": "census.covered", "kind": "equals", "value": False,
        "expected": True, "passed": False}]
    full = dataclasses.replace(report, components=(), full_variety=True)
    assert claims.census_checks(full) == []


def _binary_dihedral(report: SolveReport) -> dict:
    [check] = [c for c in claims.census_checks(report)
               if c["name"] == "census.binary_dihedral"]
    return check


def test_any_knot_word_is_checked_against_its_fox_colourings():
    # an unknot on four strands: no nonabelian class, and no RP3
    checks = claims.census_checks(_solved(parse_braid("4: 1 -2 3"), []))
    assert [c["name"] for c in checks] == ["census.abelian_dimensions",
                                           "census.binary_dihedral"]
    check = checks[1]
    assert check["value"] == check["expected"] == [0, 0] and check["passed"]
    # T(3, 4): its one class, then an unflagged RP3 away from it instead
    word = parse_braid("3: 1 2 1 2 1 2 1 2")
    check = _binary_dihedral(_solved(word, [], colourings(word)[1:]))
    assert check["value"] == check["expected"] == [1, 1] and check["passed"]
    check = _binary_dihedral(_solved(word, [("RP3", 3, False, 1.0)]))
    assert check["value"] == [0, 0] and not check["passed"]


def test_any_knot_word_has_one_abelian_sphere():
    # the square knot and a non-table word as well as the two-bridge knots:
    # a knot's determinant is odd, so its one abelian S2 is a component
    words = [parse_braid(text) for text in ("2: 1 1 1", "4: 1 -2 3",
                                            "3: 1 2 1 2 1 2 1 2")]
    census = [("S2", 2, True, 0.0), ("RP3", 3, False, 1.0)]
    for word in [*words, load_knot_table()["square"].word]:
        # one abelian S2 passes; a second abelian component, or none, fails
        for comps, passed in ((census, True), ([census[0]] * 2, False),
                              (census[1:], False)):
            [check] = [c for c in claims.census_checks(_solved(word, comps))
                       if c["name"] == "census.abelian_dimensions"]
            assert check["expected"] == [2] and check["passed"] is passed, word
    # a link gets no such check, nor does a full-variety report
    assert "census.abelian_dimensions" not in [
        c["name"] for c in claims.census_checks(_solved(parse_braid("3: 1 1"), []))]
    full = SolveReport(parse_braid("1:"), (), 0, 0, full_variety=True)
    assert "census.abelian_dimensions" not in [
        c["name"] for c in claims.census_checks(full)]


def test_an_unknown_component_fails_the_census():
    # a link with no reference census gets it after census.covered; a knot
    # word keeps its other checks and gains it last
    unknown = ("UNKNOWN", 5, False, 1.0)
    checks = claims.census_checks(_solved(parse_braid("3: 1 1 1"),
                                          [unknown, unknown]))
    assert [c["name"] for c in checks] == ["census.covered",
                                           "census.unknown_components"]
    assert checks[1] == {"name": "census.unknown_components", "kind": "equals",
                         "value": 2, "expected": 0, "passed": False}
    word = load_knot_table()["4_1"].word
    census = [("S2", 2, True, 0.0), ("RP3", 3, False, 1.0), unknown]
    names = [c["name"] for c in claims.census_checks(_solved(word, census))]
    assert names == ["census.components", "census.abelian_dimensions",
                     "census.binary_dihedral", "census.unknown_components"]
    # no UNKNOWN component, no such check
    assert [c["name"] for c in claims.census_checks(
        _solved(parse_braid("3: 1 1 1"), []))] == ["census.covered"]


def test_a_representative_2e_6_off_its_class_is_not_matched():
    word = parse_braid("3: 1 2 1 2 1 2 1 2")
    [turns] = colourings(word)[1:]
    # turning the last point by d changes only its dot product with the
    # second, which is 2 pi / 3 away: by sin(2 pi / 3) d to first order
    off = np.array(turns, dtype=float) * 2.0 * math.pi
    off[-1] += 2e-6 / math.sin(2.0 * math.pi / 3.0)
    apart = np.linalg.norm(
        invariant_features(circle_point(off))
        - invariant_features(circle_point(np.array(turns, dtype=float)
                                          * 2.0 * math.pi)))
    assert apart == pytest.approx(2e-6, rel=1e-3)
    check = _binary_dihedral(_solved(word, [], [off / (2.0 * math.pi)]))
    assert check["value"] == [0, 1] and not check["passed"]
