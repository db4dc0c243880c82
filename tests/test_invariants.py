"""The exact invariants pipeline: the unreduced Burau matrix, and from it the
Alexander polynomial, the determinant and the Fox colourings."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repvar.braid import (BraidWord, act_array, closure_components,
                          knot_by_name, load_knot_table, parse_braid)
from repvar.invariants import (
    LaurentPoly,
    NonKnotError,
    _parse_khovanov_ranks,
    alexander,
    burau,
    colourings,
    determinant,
    load_khovanov_ranks,
    two_bridge_prediction,
    validate_knot_table,
)
from repvar.su2 import circle_point


# --- the result type --------------------------------------------------------------


def test_evaluate_is_exact_rational():
    p = LaurentPoly(-2, (1, 0, 3))  # t^-2 + 3
    assert p.evaluate(2) == Fraction(13, 4)
    assert p.evaluate(-1) == 4


def test_text_format():
    assert str(LaurentPoly(0, (1, -1))) == "1 - 1*t"
    assert str(LaurentPoly(-1, (1, 0, 3))) == "1*t^-1 + 3*t"
    assert str(LaurentPoly(0, ())) == "0"


# --- the Burau representation -----------------------------------------------------


def _random_word(rng_like, strands, length):
    rng = np.random.default_rng(rng_like)
    letters = tuple(
        int(k) * int(s)
        for k, s in zip(
            rng.integers(1, strands, size=length), rng.choice([-1, 1], size=length)
        )
    )
    return BraidWord(strands, letters)


def _random_knot_words(count: int, seed: int = 5) -> list[BraidWord]:
    rng = np.random.default_rng(seed)
    words = []
    while len(words) < count:
        strands = int(rng.integers(2, 6))
        letters = tuple(int(rng.integers(1, strands)) * int(rng.choice([-1, 1]))
                        for _ in range(int(rng.integers(1, 12))))
        word = BraidWord(strands, letters)
        if closure_components(word) == 1:
            words.append(word)
    return words


# 500 random knot words on 2-5 strands, 1-11 letters, from a fixed seed
RANDOM_KNOT_WORDS = _random_knot_words(500)


def test_burau_is_a_homomorphism():
    for seed in range(6):
        strands = 3 + seed % 2
        v = _random_word(seed, strands, 3)
        w = _random_word(seed + 100, strands, 3)
        lhs = burau(v * w)
        rhs = oracles.poly_matmul(burau(v), burau(w))
        assert np.array_equal(lhs, rhs)


def test_burau_respects_inverses():
    w = parse_braid("3: 1 -2 1 1")
    prod = oracles.poly_matmul(burau(w), burau(w.inverse()))
    identity = np.zeros_like(prod)
    identity[[0, 1, 2], [0, 1, 2], prod.shape[2] // 2] = 1
    assert np.array_equal(prod, identity)


def test_burau_satisfies_braid_relation():
    lhs = burau(parse_braid("3: 1 2 1"))
    rhs = burau(parse_braid("3: 2 1 2"))
    assert np.array_equal(lhs, rhs)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n - 1).flatmap(
        lambda k: st.sampled_from((k, -k))), max_size=8))))
@settings(max_examples=60)
def test_burau_fixes_the_ones_and_the_powers_of_t(strands_letters):
    # B (1, ..., 1)^T = (1, ..., 1)^T and (1, t, ..., t^(n-1)) B = (1, t, ...,
    # t^(n-1)): why the Alexander minor may drop row and column 0
    n, letters = strands_letters
    matrix = burau(BraidWord(n, tuple(letters)))
    span = len(letters)
    one = np.zeros(2 * span + 1, dtype=object)
    one[span] = 1
    assert all(np.array_equal(row, one) for row in matrix.sum(axis=1))
    padded = np.pad(matrix, ((0, 0), (0, 0), (0, n - 1)))
    weighted = sum(np.roll(padded[i], i, axis=-1) for i in range(n))
    powers = np.zeros_like(weighted)
    powers[range(n), span + np.arange(n)] = 1
    assert np.array_equal(weighted, powers)


def test_burau_coefficients_are_python_ints():
    matrix = burau(parse_braid("3: 1 -2 1 -2"))
    assert matrix.dtype == object
    assert {type(c) for c in matrix.flat} == {int}


# --- Alexander polynomial / determinant -------------------------------------------


def test_alexander_matches_seifert_oracle_exactly():
    for name in ("3_1", "4_1", "5_2"):
        poly = alexander(knot_by_name(name).word)
        assert poly.min_exp == 0
        assert poly.coeffs == oracles.seifert_alexander(name)


@pytest.mark.parametrize("name, coeffs", [
    ("3_1", (1, -1, 1)),
    ("4_1", (-1, 3, -1)),
    ("5_1", (1, -1, 1, -1, 1)),
    ("5_2", (2, -3, 2)),
    ("6_1", (-2, 5, -2)),
    ("7_1", (1, -1, 1, -1, 1, -1, 1)),
    ("9_42", (-1, 2, -1, 2, -1)),
    ("square", (1, -2, 3, -2, 1)),
])
def test_alexander_of_every_table_knot(name, coeffs):
    """Textbook values, normalized to +1 at t = 1."""
    assert alexander(knot_by_name(name).word) == LaurentPoly(0, coeffs)


@pytest.mark.parametrize("k", [2, 4, 5, 7, 50, 100])
def test_turks_head_determinant_is_exact(k):
    """The closure of (sigma_1 sigma_2^-1)^k is the Turk's-head knot Th(3, k),
    of determinant L_2k - 2 (Lucas numbers).  At k = 100 that has 139 bits,
    past any fixed-width integer."""
    lucas = [2, 1]
    while len(lucas) <= 2 * k:
        lucas.append(lucas[-1] + lucas[-2])
    assert determinant(BraidWord(3, (1, -2) * k)) == lucas[2 * k] - 2


def test_alexander_matches_the_reduced_burau_chain():
    # the minor of the unreduced B - I against det(R - I) / (1 + ... + t^(n-1))
    # for the reduced R, computed apart from the package
    for word in RANDOM_KNOT_WORDS:
        poly = alexander(word)
        assert poly.min_exp == 0
        assert poly.coeffs == oracles.reduced_burau_alexander(
            word.strands, word.letters), word


def test_alexander_of_the_unknot_is_one():
    assert alexander(parse_braid("2: 1")) == LaurentPoly(0, (1,))
    assert alexander(parse_braid("3: 1 2")) == LaurentPoly(0, (1,))


def test_alexander_normalization_and_symmetry():
    for entry in load_knot_table().values():
        poly = alexander(entry.word)
        assert poly.evaluate(1) == 1
        assert poly.min_exp == 0
        assert poly.coeffs == poly.coeffs[::-1]


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


# --- Fox colourings -----------------------------------------------------------------

COLOURED_WORDS = [
    *(entry.word for entry in load_knot_table().values()),
    parse_braid("3: 1 2 1 2 1 2 1 2"),  # T(3, 4)
    parse_braid("3: 1 2 1 2 1 2 1 2 1 2"),  # T(3, 5)
    parse_braid("3: 1 1 1 2 2 2"),  # granny
    parse_braid("4: 1 1 1 2 -3 2 -3"),  # 3_1 # 4_1
    parse_braid("5: 1 -2 1 -2 3 -4 3 -4"),  # 4_1 # 4_1
    parse_braid("1:"),
    parse_braid("4: 1 -2 3"),
]


def test_colourings_count_the_determinant():
    # a second route to det: (det - 1) / 2 nonabelian classes and the
    # trivial one, from the Smith normal form rather than the Alexander chain
    for word in COLOURED_WORDS + RANDOM_KNOT_WORDS:
        classes = colourings(word)
        assert len(classes) == (determinant(word) + 1) // 2, word
        assert classes[0] == (0,) * word.strands
        assert all(x[0] == 0 and len(x) == word.strands for x in classes)


def test_colourings_are_exact_fixed_points_of_the_action():
    for word in COLOURED_WORDS + _random_knot_words(20, seed=6):
        classes = colourings(word)
        assert all(isinstance(x, (int, Fraction)) and 0 <= x < 1
                   for turns in classes for x in turns)
        pts = circle_point(2.0 * math.pi * np.array(classes, dtype=float))
        moved = act_array(word, pts) - pts
        assert np.max(np.sum(moved * moved, axis=(-2, -1))) < 1e-20, word


def test_colourings_follow_the_invariant_factors():
    # the square knot's colouring group is Z/3 x Z/3, not Z/9: every turn is
    # a multiple of 1/3, where reducing mod det would give ninths
    square = colourings(knot_by_name("square").word)
    assert len(square) == 5
    assert {x.denominator for turns in square for x in map(Fraction, turns)} == {1, 3}
    # 9_42: three classes, the heptagonal ones, with turns in sevenths
    classes = colourings(knot_by_name("9_42").word)[1:]
    assert len(classes) == 3
    assert {Fraction(x).denominator for turns in classes for x in turns} == {1, 7}


def test_colourings_reject_links():
    with pytest.raises(NonKnotError):
        colourings(parse_braid("2: 1 1"))


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


@pytest.mark.parametrize("body, line, message", [
    ("name,rank\n4_1\n", 2, "expected 'name,rank'"),
    ("name,rank\n3_1,4\n4_1,six\n", 3, "'six' is not a non-negative integer"),
    ("# ranks\nname,rank\n4_1,-6\n", 3, "'-6' is not a non-negative integer"),
])
def test_khovanov_csv_rejects_a_malformed_row_by_line(body, line, message):
    with pytest.raises(ValueError, match=f"line {line}: .*{message}"):
        _parse_khovanov_ranks(body)
