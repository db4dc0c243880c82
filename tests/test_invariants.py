"""Laurent-polynomial arithmetic and the classical invariants pipeline."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repvar.braid import BraidWord, knot_by_name, load_knot_table, parse_braid
from repvar.invariants import (
    InexactDivisionError,
    LaurentPoly,
    NonKnotError,
    alexander,
    burau_reduced,
    determinant,
    load_khovanov_ranks,
    two_bridge_prediction,
    validate_knot_table,
)


def laurent_polys(max_deg=4):
    return st.builds(
        LaurentPoly.make,
        st.integers(-3, 3),
        st.lists(st.integers(-9, 9), min_size=1, max_size=max_deg + 1),
    )


# --- ring arithmetic -----------------------------------------------------------


def test_make_trims_and_normalizes():
    p = LaurentPoly.make(-1, [0, 2, 0, -1, 0])
    assert p.min_exp == 0
    assert p.coeffs == (2, 0, -1)
    assert LaurentPoly.make(5, [0, 0]).is_zero()
    assert str(LaurentPoly.make(0, [1, -1])) == "1 - 1*t"
    assert str(LaurentPoly.make(-1, [1, 0, 3])) == "1*t^-1 + 3*t"


def test_small_product_by_hand():
    # (1 + t)(t^-1 - 1) = t^-1 - t
    p = LaurentPoly.make(0, [1, 1])
    q = LaurentPoly.make(-1, [1, -1])
    assert p * q == LaurentPoly.make(-1, [1, 0, -1])


@given(laurent_polys(), laurent_polys(), laurent_polys())
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == LaurentPoly.zero()
    assert p * LaurentPoly.one() == p


@given(laurent_polys(), laurent_polys())
@settings(max_examples=60)
def test_exact_division_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def test_inexact_division_is_an_error():
    p = LaurentPoly.make(0, [1, 1, 1])
    q = LaurentPoly.make(0, [1, 1])
    with pytest.raises(InexactDivisionError):
        p.exact_div(q)
    with pytest.raises(ZeroDivisionError):
        p.exact_div(LaurentPoly.zero())


def test_evaluate_is_exact_rational():
    p = LaurentPoly.make(-2, [1, 0, 3])  # t^-2 + 3
    assert p.evaluate(2) == Fraction(13, 4)
    assert p.evaluate(-1) == 4


def test_palindromicity_predicate():
    assert LaurentPoly.make(0, [1, -3, 1]).is_palindromic()
    assert LaurentPoly.make(-1, [-1, 3, -1]).is_palindromic()
    assert not LaurentPoly.make(0, [1, -3, 2]).is_palindromic()


# --- reduced Burau representation ------------------------------------------------


def _random_word(rng_like, strands, length):
    import numpy as np

    rng = np.random.default_rng(rng_like)
    letters = tuple(
        int(k) * int(s)
        for k, s in zip(
            rng.integers(1, strands, size=length), rng.choice([-1, 1], size=length)
        )
    )
    return BraidWord(strands, letters)


def test_burau_is_a_homomorphism():
    for seed in range(6):
        strands = 3 + seed % 2
        v = _random_word(seed, strands, 3)
        w = _random_word(seed + 100, strands, 3)
        lhs = burau_reduced(v * w)
        rhs = burau_reduced(v) @ burau_reduced(w)
        assert lhs.entries == rhs.entries


def test_burau_respects_inverses():
    w = parse_braid("3: 1 -2 1 1")
    prod = burau_reduced(w) @ burau_reduced(w.inverse())
    from repvar.invariants import BurauMatrix

    assert prod.entries == BurauMatrix.identity(2).entries


def test_burau_satisfies_braid_relation():
    lhs = burau_reduced(parse_braid("3: 1 2 1"))
    rhs = burau_reduced(parse_braid("3: 2 1 2"))
    assert lhs.entries == rhs.entries


# --- Alexander polynomial / determinant -------------------------------------------


def test_alexander_matches_seifert_oracle_exactly():
    for name in ("3_1", "4_1", "5_2"):
        poly = alexander(knot_by_name(name).word)
        assert poly.min_exp == 0
        assert poly.coeffs == oracles.seifert_alexander(name)


def test_alexander_of_the_unknot_is_one():
    assert alexander(parse_braid("2: 1")) == LaurentPoly.one()
    assert alexander(parse_braid("3: 1 2")) == LaurentPoly.one()


def test_alexander_normalization_and_symmetry():
    for entry in load_knot_table().values():
        poly = alexander(entry.word)
        assert poly.evaluate(1) == 1
        assert poly.min_exp == 0
        assert poly.is_palindromic()


def test_alexander_is_a_markov_invariant():
    base = parse_braid("2: 1 1 1")
    stabilized = parse_braid("3: 1 1 1 2")
    destabilized = parse_braid("3: 1 1 1 -2")
    conjugated = parse_braid("2: -1 1 1 1 1")
    want = alexander(base)
    assert alexander(stabilized) == want
    assert alexander(destabilized) == want
    assert alexander(conjugated) == want


def test_alexander_ignores_mirror():
    assert alexander(parse_braid("2: -1 -1 -1")) == alexander(
        parse_braid("2: 1 1 1")
    )


def test_non_knot_closures_are_rejected():
    with pytest.raises(NonKnotError):
        alexander(parse_braid("2: 1 1"))
    with pytest.raises(NonKnotError):
        determinant(BraidWord(3, ()))


def test_determinants_match_the_shipped_table():
    assert validate_knot_table() == {
        "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7,
        "6_1": 9, "7_1": 7, "9_42": 7, "square": 9,
    }


# --- component-count prediction and the rank comparison ----------------------------


def test_two_bridge_prediction_small_cases():
    p = two_bridge_prediction(3)
    assert (p.spheres, p.projective_spaces, p.total_components) == (1, 1, 2)
    assert p.cohomology_rank == 4
    p = two_bridge_prediction(1)
    assert (p.spheres, p.projective_spaces, p.total_components) == (1, 0, 1)
    assert p.cohomology_rank == 2
    assert two_bridge_prediction(9).total_components == 5
    assert two_bridge_prediction(9).cohomology_rank == 10


def test_two_bridge_prediction_rejects_non_knot_determinants():
    with pytest.raises(ValueError):
        two_bridge_prediction(4)
    with pytest.raises(ValueError):
        two_bridge_prediction(-3)


def test_khovanov_table_loads():
    ranks = load_khovanov_ranks()
    assert ranks["9_42"] == 10
    assert ranks["3_1"] == 4
    assert set(ranks) >= {"3_1", "4_1", "5_1", "5_2", "6_1", "7_1", "9_42"}


def test_khovanov_custom_csv(tmp_path):
    csv = tmp_path / "ranks.csv"
    csv.write_text("name,rank\nmystery,12\n")
    assert load_khovanov_ranks(csv) == {"mystery": 12}


@pytest.mark.parametrize("body, line, message", [
    ("name,rank\n4_1\n", 2, "expected 'name,rank'"),
    ("name,rank\n3_1,4\n4_1,six\n", 3, "'six' is not a non-negative integer"),
    ("# ranks\nname,rank\n4_1,-6\n", 3, "'-6' is not a non-negative integer"),
])
def test_khovanov_csv_rejects_a_malformed_row_by_line(tmp_path, body, line,
                                                      message):
    csv = tmp_path / "ranks.csv"
    csv.write_text(body)
    with pytest.raises(ValueError, match=f"line {line}: .*{message}"):
        load_khovanov_ranks(csv)
