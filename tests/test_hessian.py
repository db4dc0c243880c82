"""Second-variation matrix at the distinguished critical point: structure,
parity conjugation, spectrum, and the exact Pfaffian bookkeeping."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from repvar.hessian import (
    PFAFFIAN_SEEDS,
    build_hessian,
    build_hprime,
    check_php,
    det_factorization,
    integer_determinant,
    leading_pfaffians,
    min_abs_eigenvalue,
    pfaffian,
    pfaffian_recurrence,
    php_identity,
    signature,
)

PFAFFIAN_TABLE = (2, 5, 12, 29, 70, 169, 408)  # n = 2 .. 8


def skew_int_matrices(max_half=5):
    """Skew matrices up to 2*max_half square; a cyclic mask blanks entries,
    so zero leading pivots and zero pivot rows come up as well as dense
    matrices."""
    def build(draw):
        half, entries, zeroed = draw
        size = 2 * half
        m = np.zeros((size, size), dtype=np.int64)
        idx = 0
        for i in range(size):
            for j in range(i + 1, size):
                if not zeroed[idx % len(zeroed)]:
                    m[i, j] = entries[idx % len(entries)]
                idx += 1
        return m - m.T

    return st.tuples(
        st.integers(1, max_half),
        st.lists(st.integers(-6, 6), min_size=1, max_size=45),
        st.lists(st.booleans(), min_size=1, max_size=13),
    ).map(build)


def _skew(upper) -> np.ndarray:
    upper = np.triu(np.array(upper, dtype=np.int64), 1)
    return upper - upper.T


def _leading_by_expansion(m) -> list[int]:
    return [oracles.pfaffian_expansion(m[:j, :j])
            for j in range(2, len(m) + 1, 2)]


# a01 = 0: the 2x2 block's Pfaffian is 0 and every larger block needs the
# fallback
ZERO_FIRST_PIVOT = _skew([
    [0, 0, 3, 1, 2, -1],
    [0, 0, 2, 5, 0, 1],
    [0, 0, 0, 7, 1, 0],
    [0, 0, 0, 0, -2, 3],
    [0, 0, 0, 0, 0, 4],
    [0, 0, 0, 0, 0, 0],
])
# a01 = a02 = a03 = 0: the first swap brings in column 4, outside the 4x4
# block, so a pivot after it is not that block's Pfaffian up to sign
FAR_PIVOT = _skew([
    [0, 0, 0, 0, 2, 1, 0, 1],
    [0, 0, 1, 3, 0, 2, 1, 0],
    [0, 0, 0, -1, 2, 0, 1, 1],
    [0, 0, 0, 0, 1, 1, 0, 2],
    [0, 0, 0, 0, 0, 3, 1, 0],
    [0, 0, 0, 0, 0, 0, 2, -1],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0],
])
# a01 a23 - a02 a13 + a03 a12 = 1*2 - 1*1 + 1*(-1) = 0: the 4x4 block's
# Pfaffian is 0, found as the second pivot after a swap-free first step
ZERO_SECOND_PIVOT = _skew([
    [0, 1, 1, 1, 0, 2, 1, 0],
    [0, 0, -1, 1, 1, 0, 0, 3],
    [0, 0, 0, 2, 0, 1, 2, 0],
    [0, 0, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 3, 0, 2],
    [0, 0, 0, 0, 0, 0, 1, -1],
    [0, 0, 0, 0, 0, 0, 0, 5],
    [0, 0, 0, 0, 0, 0, 0, 0],
])
# row 2 is zero after the first step, so the elimination stops there
ZERO_PIVOT_ROW = _skew([
    [0, 3, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 2, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 4, 0],
    [0, 0, 0, 0, 0, 0, 0, 6],
    [0, 0, 0, 0, 0, 0, 0, 0],
])


# --- construction ----------------------------------------------------------------


def test_block_structure_small_cases():
    h2 = build_hessian(2)
    C = np.array(
        [[0, 0, 0, -2], [0, 0, 2, 0], [0, 2, 0, 0], [-2, 0, 0, 0]], dtype=np.int64
    )
    A = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 2, 0, -1], [-2, 0, 1, 0]], dtype=np.int64
    )
    assert np.array_equal(h2, C)
    h3 = build_hessian(3)
    assert h3.shape == (8, 8)
    assert np.array_equal(h3[:4, :4], C)
    assert np.array_equal(h3[4:, 4:], C)
    assert np.array_equal(h3[:4, 4:], A)
    assert np.array_equal(h3[4:, :4], A.T)


def test_hessian_is_symmetric_integer_tridiagonal():
    for n in range(2, 9):
        h = build_hessian(n)
        assert h.shape == (4 * n - 4, 4 * n - 4)
        assert h.dtype == np.int64
        assert np.array_equal(h, h.T)
        # blocks two or more steps off the diagonal vanish
        for i in range(n - 1):
            for j in range(n - 1):
                if abs(i - j) >= 2:
                    blk = h[4 * i : 4 * i + 4, 4 * j : 4 * j + 4]
                    assert not blk.any()
    with pytest.raises(ValueError):
        build_hessian(1)


# --- parity conjugation -------------------------------------------------------------


def test_parity_swap_is_an_involution():
    p = oracles.parity_swap(8)
    assert np.array_equal(p @ p, np.eye(8, dtype=np.int64))
    with pytest.raises(ValueError):
        oracles.parity_swap(5)


def test_parity_conjugation_negates_the_hessian():
    for n in range(2, 9):
        assert check_php(n)


def test_php_identity_rejects_perturbations():
    h = build_hessian(3).copy()
    h[0, 0] += 1
    assert not php_identity(h)


@given(
    st.integers(1, 6),
    st.lists(st.integers(-4, 4), min_size=1, max_size=144),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
@example(2, [1, 0, -2, 3], False)  # not negated
@example(3, [2, -1, 0, 5, 1], True)  # negated by construction
def test_php_identity_matches_the_permutation_matrix_oracle(half, entries,
                                                           negated):
    size = 2 * half
    m = np.array([entries[k % len(entries)] for k in range(size * size)],
                 dtype=np.int64).reshape(size, size)
    p = oracles.parity_swap(size)
    if negated:
        m = m - p @ m @ p  # P m P = -m for every such m
    want = bool(np.array_equal(p @ m @ p, -m))
    assert php_identity(m) == want
    if negated:
        assert want


def test_builders_return_read_only_arrays():
    for build in (build_hessian, build_hprime):
        m = build(3)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 1] = 7
        assert build(3) is m


# --- spectrum -------------------------------------------------------------------------


def test_signature_is_zero():
    for n in range(2, 9):
        assert signature(n) == 0
        assert type(signature(n)) is int


def test_spectral_gap_values():
    # decreasing but comfortably bounded away from zero
    expected = [2.0, 1.4495, 1.0917, 0.8797, 0.7352, 0.6314, 0.5531]
    got = [min_abs_eigenvalue(n) for n in range(2, 9)]
    assert got == pytest.approx(expected, abs=5e-4)
    assert all(g > 1e-2 for g in got)
    assert got == sorted(got, reverse=True)


# --- the reduced skew form ------------------------------------------------------------


def test_reduced_form_small_cases():
    assert np.array_equal(build_hprime(2), np.array([[0, 2], [-2, 0]]))
    want3 = np.array(
        [
            [0, 2, -1, 0],
            [-2, 0, -2, 1],
            [1, 2, 0, 2],
            [0, -1, -2, 0],
        ]
    )
    assert np.array_equal(build_hprime(3), want3)


def test_reduction_recovers_the_banded_form():
    for n in range(2, 8):
        hp = build_hprime(n)
        h = build_hessian(n)
        assert np.array_equal(hp, -hp.T)
        assert np.array_equal(oracles.skew_reduction(h, odd=True), hp)
        assert np.array_equal(oracles.skew_reduction(h, odd=False), -hp)


# --- Pfaffians --------------------------------------------------------------------------


def test_pfaffian_sign_convention():
    a = np.array([[0, 7], [-7, 0]])
    assert pfaffian(a) == 7
    assert oracles.pfaffian_expansion(a) == 7


def test_pfaffian_of_reduced_forms_matches_the_table():
    direct = tuple(pfaffian(build_hprime(n)) for n in range(2, 9))
    assert direct == PFAFFIAN_TABLE
    expanded = tuple(
        oracles.pfaffian_expansion(build_hprime(n)) for n in range(2, 9))
    assert expanded == PFAFFIAN_TABLE


def test_pfaffian_recurrence_matches_direct_computation():
    assert PFAFFIAN_SEEDS == (2, 5)
    assert tuple(pfaffian_recurrence(8)) == PFAFFIAN_TABLE
    with pytest.raises(ValueError):
        pfaffian_recurrence(2)


def test_pfaffian_small_case_against_oracle():
    for n in (3,):
        hp = build_hprime(n)
        assert pfaffian(hp) == oracles.pfaffian_4x4(hp)


def test_pfaffian_swaps_past_a_zero_leading_pivot():
    # a01 = 0, so the first step swaps column 1 with column 2 and flips the
    # sign: Pf = a01 a23 - a02 a13 + a03 a12 = 0 - 3*5 + 1*2
    upper = np.array([[0, 0, 3, 1], [0, 0, 2, 5], [0, 0, 0, 7], [0, 0, 0, 0]])
    m = upper - upper.T
    assert pfaffian(m) == -13 == oracles.pfaffian_expansion(m)


def test_pfaffian_of_an_all_zero_pivot_row_is_zero():
    first = np.zeros((4, 4), dtype=np.int64)
    first[1, 2], first[2, 1] = 4, -4
    later = np.zeros((6, 6), dtype=np.int64)
    later[0, 1], later[1, 0] = 3, -3
    later[3, 5], later[5, 3] = 2, -2  # row 2 stays zero after the first step
    for m in (first, later):
        assert pfaffian(m) == 0 == oracles.pfaffian_expansion(m)


def test_pfaffian_of_reduced_forms_follows_the_recurrence_to_n_16():
    # sizes up to 30: many exact divisions by earlier pivots
    table = pfaffian_recurrence(16)
    assert [pfaffian(build_hprime(n)) for n in range(2, 17)] == table


def test_pfaffian_mirrors_the_live_block_before_a_later_swap():
    # step 0 pivots on a01 = -2 without a swap and turns row 2 into
    # (0, 0, 0, 0, 0, -2): step 2 must swap column 3 with column 5, which
    # reads the lower triangle that step 0 left stale
    upper = np.array([
        [0, -2, 0, 0, 0, -2],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, -2],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ])
    m = upper - upper.T
    assert pfaffian(m) == -2 == oracles.pfaffian_expansion(m)


def test_reduced_forms_nest_as_leading_blocks():
    # what lets one elimination of H'(8) stand in for H'(2..8)
    big = build_hprime(16)
    for n in range(2, 17):
        size = 2 * n - 2
        assert np.array_equal(big[:size, :size], build_hprime(n)), n


def test_leading_pfaffians_of_a_reduced_form_follow_the_recurrence():
    assert leading_pfaffians(build_hprime(16)) == pfaffian_recurrence(16)


@given(skew_int_matrices(max_half=6))
@settings(max_examples=80, deadline=None)
@example(ZERO_FIRST_PIVOT)
@example(FAR_PIVOT)
@example(ZERO_SECOND_PIVOT)
@example(ZERO_PIVOT_ROW)
def test_leading_pfaffians_match_the_expansion_oracle(m):
    values = leading_pfaffians(m)
    assert values == _leading_by_expansion(m)
    assert values[-1] == pfaffian(m)


@pytest.mark.parametrize("m, zero_block", [
    (ZERO_FIRST_PIVOT, 0), (FAR_PIVOT, 0), (ZERO_SECOND_PIVOT, 1),
    (ZERO_PIVOT_ROW, 1)], ids=["first", "far", "second", "row"])
def test_leading_pfaffians_past_a_zero_leading_pivot(m, zero_block):
    # the examples above really take the fallback: a zero block, then
    # larger blocks with nonzero Pfaffians or a zero pivot row
    values = leading_pfaffians(m)
    assert values[zero_block] == 0
    assert values == _leading_by_expansion(m)
    assert values[-1] != 0 or m is ZERO_PIVOT_ROW


def test_pfaffian_input_validation():
    for compute in (pfaffian, leading_pfaffians):
        with pytest.raises(ValueError):
            compute(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            compute(np.eye(4, dtype=np.int64))


@pytest.mark.parametrize("compute, matrix", [
    (integer_determinant, [[1.9, 0], [0, 1.9]]),  # was truncated to 1
    (integer_determinant, [[0.5]]),  # was truncated to 0
    (pfaffian, [[0, 2.7], [-2.7, 0]]),  # was truncated to 2
    (integer_determinant, np.eye(2, dtype=complex)),
    (pfaffian, np.array([[0, 1.0], [-1, 0]], dtype=object)),
    (integer_determinant, np.array([[1, "2"], [3, 4]], dtype=object)),
    (leading_pfaffians, [[0, 2.7], [-2.7, 0]]),
    (leading_pfaffians, np.array([[0, 1j], [-1j, 0]])),
    (leading_pfaffians, np.array([[0, 1.0], [-1, 0]], dtype=object)),
], ids=["float_det", "fraction_det", "float_pfaffian", "complex_det",
        "object_float_pfaffian", "object_str_det", "float_leading",
        "complex_leading", "object_float_leading"])
def test_non_integer_entries_are_refused(compute, matrix):
    with pytest.raises(ValueError, match="integer entries"):
        compute(matrix)


def test_integer_bool_and_python_int_entries_are_accepted():
    big = 3 ** 50  # beyond int64
    assert integer_determinant(np.array([[2, 1], [1, 3]], dtype=np.uint8)) == 5
    assert integer_determinant(np.array([[True, True], [False, True]])) == 1
    assert integer_determinant(
        np.array([[big, 1], [0, big]], dtype=object)) == big * big
    assert pfaffian(np.array([[0, big], [-big, 0]], dtype=object)) == big
    assert pfaffian(np.zeros((2, 2), dtype=bool)) == 0
    assert pfaffian([[0, 3], [-3, 0]]) == 3


@given(skew_int_matrices())
@settings(max_examples=60, deadline=None)
def test_pfaffian_routes_agree_and_square_to_the_determinant(m):
    p1 = pfaffian(m)
    p2 = oracles.pfaffian_expansion(m)
    assert p1 == p2
    assert p1 * p1 == integer_determinant(m)


@given(
    st.integers(1, 6),
    st.lists(st.integers(-5, 5), min_size=1, max_size=36),
    st.lists(st.booleans(), min_size=1, max_size=36),
)
@settings(max_examples=60, deadline=None)
@example(4, [1, 2, -3], [True, False])  # zero pivot-column entries
@example(5, [0, 2, 0, 0, -1, 3], [False])  # zero leading pivots: row swaps
@example(6, [2, -1, 3, 1], [True, True, False])  # two thirds zero
def test_integer_determinant_matches_float_oracle(size, entries, zeroed):
    # `zeroed` blanks entries, so sparse matrices with zeros in the pivot
    # column are covered as well as dense ones
    m = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        for j in range(size):
            k = i * size + j
            if not zeroed[k % len(zeroed)]:
                m[i, j] = entries[k % len(entries)]
    got = integer_determinant(m)
    want = oracles.det_float(m)
    assert abs(got - want) < 0.5 + 1e-6 * abs(want)


def test_determinant_is_the_fourth_power_of_the_pfaffian():
    expected = {2: 16, 3: 625, 4: 20736}
    for n in (2, 3, 4):
        fact = det_factorization(n)
        assert fact.matches
        assert fact.hessian_det == expected[n]
        assert fact.hprime_pfaffian ** 4 == fact.hessian_det
    # up to the 44 x 44 Hessian at n = 12
    table = pfaffian_recurrence(12)
    for n in range(2, 13):
        fact = det_factorization(n)
        assert fact.matches
        assert fact.hprime_pfaffian == table[n - 2]
