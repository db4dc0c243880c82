"""Braid action on configurations: algebra, closure counting, differential."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repvar.braid import (
    BraidWord,
    act_array,
    check_braid_relations,
    closure_components,
    closure_permutation,
    differential_arrays,
    generator_step,
    knot_by_name,
    load_knot_table,
    parse_braid,
    random_configurations,
    tangent_basis,
)
from repvar.su2 import slot_product
from repvar.symplectic import random_coefficients

RNG = np.random.default_rng(11)


def braid_words(max_strands=5, max_len=6):
    def build(draw_tuple):
        strands, raw = draw_tuple
        letters = tuple(
            (abs(r) % (strands - 1) + 1) * (1 if r >= 0 else -1) for r in raw
        )
        return BraidWord(strands, letters)

    return st.tuples(
        st.integers(2, max_strands),
        st.lists(st.integers(-10, 10), min_size=0, max_size=max_len),
    ).map(build)


# --- parsing and word algebra -------------------------------------------------


def test_parse_braid_roundtrip():
    w = parse_braid("4: 1 -2 3 -1")
    assert w.strands == 4
    assert w.letters == (1, -2, 3, -1)
    assert parse_braid(str(w)) == w


def test_parse_braid_rejects_garbage():
    for text in ("4", "1: 1", "3: 0", "3: 5", "3: -3", "x: 1", "3: a"):
        with pytest.raises(ValueError):
            parse_braid(text)


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (1,)) * BraidWord(4, (1,))


def test_inverse_word_reverses_and_negates():
    w = parse_braid("3: 1 -2 2")
    assert w.inverse().letters == (-2, 2, -1)
    assert (w * w.inverse()).letters == (1, -2, 2, -2, 2, -1)


# --- the action ----------------------------------------------------------------


def test_generator_inverse_undoes_generator():
    pts = random_configurations(4, 30, RNG)
    for k in (1, 2, 3):
        roundtrip = generator_step(-k, generator_step(k, pts))
        assert np.max(np.abs(roundtrip - pts)) < 1e-12


@given(braid_words(), braid_words())
@settings(max_examples=40, deadline=None)
def test_action_is_a_homomorphism(v, w):
    if v.strands != w.strands:
        w = BraidWord(v.strands, ())
    pts = random_configurations(v.strands, 5, np.random.default_rng(3))
    lhs = act_array(v * w, pts)
    rhs = act_array(v, act_array(w, pts))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_braid_relations_hold():
    for strands in (2, 3, 4, 5):
        result = check_braid_relations(strands, samples=40)
        assert set(result) == {"adjacent", "commuting", "cancellation"}
        assert max(result.values()) < 1e-12, result


def test_far_generators_commute():
    pts = random_configurations(4, 25, RNG)
    lhs = act_array(parse_braid("4: 1 3"), pts)
    rhs = act_array(parse_braid("4: 3 1"), pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_action_preserves_total_product():
    # (a, b) -> (aba^-1, a) multiplies out to ab again, so the product of
    # all slots is literally unchanged, not merely conjugated.
    for _ in range(10):
        strands = int(RNG.integers(2, 6))
        length = int(RNG.integers(1, 8))
        letters = tuple(
            int(k) * int(s)
            for k, s in zip(
                RNG.integers(1, strands, size=length),
                RNG.choice([-1, 1], size=length),
            )
        )
        word = BraidWord(strands, letters)
        pts = random_configurations(strands, 4, RNG)
        before = slot_product(pts)
        after = slot_product(act_array(word, pts))
        assert np.max(np.abs(after - before)) < 1e-12


# --- the differential ------------------------------------------------------------


def _random_word(rng, strands, length):
    letters = tuple(
        int(k) * int(s)
        for k, s in zip(
            rng.integers(1, strands, size=length), rng.choice([-1, 1], size=length)
        )
    )
    return BraidWord(strands, letters)


def test_differential_matches_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(60):
        strands = int(rng.integers(2, 5))
        word = _random_word(rng, strands, int(rng.integers(1, 4)))
        pts = random_configurations(strands, 1, rng)
        coeffs = random_coefficients(pts, rng)
        _, got = differential_arrays(word, pts, coeffs)
        vel = np.cross(coeffs[0], pts[0])
        want = oracles.fd_pushforward(
            lambda q: act_array(word, q[None])[0], pts[0], vel
        )
        moved = act_array(word, pts)[0]
        got_vel = np.cross(got[0], moved)
        worst = max(worst, float(np.max(np.abs(got_vel - want))))
    assert worst < 1e-6, worst


def test_differential_is_linear_in_the_frame():
    word = parse_braid("4: 1 -3 2 2")
    pts = random_configurations(4, 8, RNG)
    c1 = random_coefficients(pts, RNG)
    c2 = random_coefficients(pts, RNG)
    _, d1 = differential_arrays(word, pts, c1)
    _, d2 = differential_arrays(word, pts, c2)
    _, dsum = differential_arrays(word, pts, 2.0 * c1 - 3.0 * c2)
    assert np.max(np.abs(dsum - (2.0 * d1 - 3.0 * d2))) < 1e-10


def test_differential_chain_rule():
    v = parse_braid("3: 1 -2")
    w = parse_braid("3: 2 2 1")
    pts = random_configurations(3, 6, RNG)
    coeffs = random_coefficients(pts, RNG)
    mid, dw = differential_arrays(w, pts, coeffs)
    _, step = differential_arrays(v, mid, dw)
    _, direct = differential_arrays(v * w, pts, coeffs)
    assert np.max(np.abs(step - direct)) < 1e-10


def test_tangent_basis_is_orthonormal_and_tangent():
    pts = random_configurations(4, 50, RNG)
    # the helper axis switches at |p_x| = 0.9; cover both branches
    pts[:5, 0] = [1.0, 0.0, 0.0]
    pts[5:10, 0] = [0.0, 1.0, 0.0]
    e1, e2 = tangent_basis(pts)
    for e in (e1, e2):
        assert np.max(np.abs(np.sum(e * pts, axis=-1))) < 1e-14
        assert np.max(np.abs(np.linalg.norm(e, axis=-1) - 1.0)) < 1e-14
    assert np.max(np.abs(np.sum(e1 * e2, axis=-1))) < 1e-14
    assert np.max(np.abs(e2 - np.cross(pts, e1))) == 0.0


# --- closures and the knot table -------------------------------------------------


@given(braid_words())
@settings(max_examples=60)
def test_closure_count_matches_permutation_oracle(w):
    want = oracles.closure_cycle_count(w.strands, list(w.letters))
    assert closure_components(w) == want


def test_identity_word_closure():
    w = BraidWord(4, ())
    assert closure_permutation(w) == [0, 1, 2, 3]
    assert closure_components(w) == 4


def test_knot_table_entries_close_to_knots():
    table = load_knot_table()
    assert set(table) == {
        "3_1", "4_1", "5_1", "5_2", "6_1", "7_1", "9_42", "square",
    }
    for entry in table.values():
        assert closure_components(entry.word) == 1
        assert entry.expected_determinant % 2 == 1


def test_unknown_knot_name_lists_the_table():
    with pytest.raises(KeyError) as err:
        knot_by_name("10_139")
    assert "3_1" in str(err.value)
