"""The claim registry: pinned bounds, selection, check records."""
from __future__ import annotations

import numpy as np
import pytest

from repvar import chern, claims, hessian, symplectic

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
