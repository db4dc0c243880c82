"""Braid action on configurations: algebra, closure counting, differential."""
from __future__ import annotations

import time

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
    closure_cycles,
    closure_permutation,
    differential_arrays,
    generator_step,
    knot_by_name,
    knot_name,
    load_knot_table,
    normalize,
    parse_braid,
    random_configurations,
    tangent_basis,
)
from repvar.su2 import reflect, slot_product
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
    # two letters with no separator between them
    with pytest.raises(ValueError, match="cannot parse"):
        parse_braid("3: 1-2")


def test_parse_braid_rejects_a_long_malformed_word_quickly():
    # a run of digits is one letter: trying every split of it would take time
    # exponential in its length
    text = "2: " + "1" * 10_000 + "x"
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        parse_braid(text)
    assert time.perf_counter() - t0 < 0.1
    assert parse_braid("12: 11,-1  10") == BraidWord(12, (11, -1, 10))


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
        roundtrip = pts.copy()
        generator_step(k, roundtrip)
        generator_step(-k, roundtrip)
        assert np.max(np.abs(roundtrip - pts)) < 1e-12


@pytest.mark.parametrize("k", (1, -1, 2, -2, 3, -3))
def test_a_letter_writes_only_its_two_slots(k):
    pts = random_configurations(4, 30, np.random.default_rng(17))
    before = pts.copy()
    a, b = generator_step(k, pts)
    i = abs(k) - 1
    # it returns the two slots it read, as copies of their old values
    assert a.tobytes() == before[:, i].tobytes()
    assert b.tobytes() == before[:, i + 1].tobytes()
    assert not np.shares_memory(a, pts) and not np.shares_memory(b, pts)
    # it writes the letter's image into those two slots and nowhere else
    want = ((normalize(reflect(a, b)), a) if k > 0
            else (b, normalize(reflect(b, a))))
    assert pts[:, i].tobytes() == want[0].tobytes()
    assert pts[:, i + 1].tobytes() == want[1].tobytes()
    others = [s for s in range(4) if s not in (i, i + 1)]
    assert pts[:, others].tobytes() == before[:, others].tobytes()


@pytest.mark.parametrize("word", [
    parse_braid("4: 1 -3 2 2 -1"),
    knot_by_name("9_42").word,
    BraidWord(4, ()),
])
def test_action_and_differential_leave_their_inputs_unchanged(word):
    # each copies its input once and steps the letters on the copy: a
    # read-only input is never written, and no result aliases an input,
    # the identity word's included
    rng = np.random.default_rng(37)
    pts = random_configurations(word.strands, 16, rng)
    frames = random_coefficients(np.broadcast_to(pts, (3,) + pts.shape), rng)
    before = pts.tobytes(), frames.tobytes()
    pts.setflags(write=False)
    frames.setflags(write=False)
    moved = act_array(word, pts)
    base, pushed = differential_arrays(word, pts, frames)
    assert (pts.tobytes(), frames.tobytes()) == before
    for out in (moved, base, pushed):
        assert out.flags.writeable
        assert not np.shares_memory(out, pts)
        assert not np.shares_memory(out, frames)


def test_long_torus_word_stays_on_the_spheres():
    # each letter renormalises its half-turned slot; without that the norm
    # error of T(2,41) on these points overflows
    pts = random_configurations(2, 1536, np.random.default_rng(0))
    moved = act_array(BraidWord(2, (1,) * 41), pts)
    assert np.max(np.abs(np.linalg.norm(moved, axis=-1) - 1.0)) <= 1e-15


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


@pytest.mark.parametrize("word", [
    parse_braid("4: 1 -3 2 2 -1"),
    knot_by_name("9_42").word,
    BraidWord(2, (-1,) * 41),
])
def test_differential_moves_base_points_by_the_action(word):
    # one action: the pushforward's base points are act_array's, bit for
    # bit, also when one batch of points carries a stack of frames; and each
    # frame of the stack is pushed bit for bit as it is alone
    rng = np.random.default_rng(31)
    pts = random_configurations(word.strands, 16, rng)
    frames = random_coefficients(np.broadcast_to(pts, (3,) + pts.shape), rng)
    moved, pushed = differential_arrays(word, pts, frames)
    assert np.array_equal(moved, act_array(word, pts))
    assert pushed.shape == frames.shape
    for frame, stacked in zip(frames, pushed):
        alone_moved, alone = differential_arrays(word, pts, frame)
        assert alone_moved.tobytes() == moved.tobytes()
        assert alone.tobytes() == stacked.tobytes()


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


def test_differential_refuses_coefficients_along_the_base_point():
    word = knot_by_name("5_2").word
    n = word.strands
    pts = random_configurations(n, 1, RNG)[0]
    base = np.broadcast_to(pts, (3 * n, n, 3))
    # the full coefficient basis has parts along the base points
    with pytest.raises(ValueError, match="not tangent"):
        differential_arrays(word, base, np.eye(3 * n).reshape(3 * n, n, 3))
    # a coefficient barely off tangency is refused too
    e1, e2 = tangent_basis(pts)
    off = e1.copy()
    off[0] += 1e-6 * pts[0]
    with pytest.raises(ValueError):
        differential_arrays(word, pts, off)
    # tangent frames pass, and so do their pushforwards
    for frame in (e1, e2, random_coefficients(pts[None], RNG)[0]):
        moved, pushed = differential_arrays(word, pts, frame)
        differential_arrays(word, moved, pushed)


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
    labels = closure_cycles(w)
    assert sorted(set(labels)) == list(range(want))
    assert all(labels[t] == labels[s]
               for s, t in enumerate(closure_permutation(w)))


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


def test_knot_name_recognises_every_cyclic_rotation_of_a_table_word():
    # a rotation is a conjugation by a prefix, so its closure is the same
    # knot
    for name, entry in load_knot_table().items():
        letters = entry.word.letters
        for k in range(len(letters)):
            rotated = BraidWord(entry.word.strands, letters[k:] + letters[:k])
            assert knot_name(rotated) == name, (name, k)
    assert knot_name(parse_braid("3: -2 1 -2 1")) == "4_1"
    # not rotations: the reversed or inverted letters, another strand count
    for text in ("3: -2 -2 1 1", "3: 2 -1 2 -1", "4: 1 -2 1 -2", "2: 1 1",
                 "2: 1 -1 1", "3:"):
        assert knot_name(parse_braid(text)) is None, text
