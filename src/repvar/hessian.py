"""Integer Hessian of the holonomy-product function at the alternating circle.

At the circle of configurations (p, -p, p, -p, ...) the product-one defect
has an exact integer Hessian in the natural slot coordinates.  Everything
about it is an integer identity: the matrix is block tridiagonal with one
repeating 4x4 diagonal block and one repeating off-diagonal block, the
swap-adjacent-coordinates permutation conjugates it to its negative (hence
signature 0), and deleting alternate rows and columns of its skew form
leaves a pentadiagonal skew matrix whose Pfaffian obeys a two-term integer
recurrence.  That skew matrix for n pairs is the leading block of the one for
any larger n, so one elimination of the largest gives the Pfaffians of all
the smaller ones.  Floating point appears only in the eigenvalue-based
signature check; determinants and Pfaffians come from fraction-free
elimination over Python integers, so they are exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "build_hessian",
    "php_identity",
    "check_php",
    "signature",
    "min_abs_eigenvalue",
    "spectrum",
    "build_hprime",
    "pfaffian",
    "leading_pfaffians",
    "pfaffian_recurrence",
    "integer_determinant",
    "DetFactorization",
    "det_factorization",
    "PFAFFIAN_SEEDS",
]

EIGENVALUE_ZERO_THRESHOLD = 1e-8
PFAFFIAN_SEEDS = (2, 5)

# Repeating blocks of the Hessian.  The diagonal block couples the two
# tangent directions of a slot pair to the next pair's; the off-diagonal
# block couples pairs two apart.  The entries encode the commutator
# coefficients of the second-order expansion of the holonomy product.
_DIAG_BLOCK = np.array([
    [0, 0, 0, -2],
    [0, 0, 2, 0],
    [0, 2, 0, 0],
    [-2, 0, 0, 0],
], dtype=np.int64)
_UPPER_BLOCK = np.array([
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 2, 0, -1],
    [-2, 0, 1, 0],
], dtype=np.int64)


def _require_pairs(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least two sphere pairs, got {n}")


@functools.cache
def build_hessian(n: int) -> np.ndarray:
    """Exact (4n-4)x(4n-4) integer Hessian for n sphere pairs, read-only.

    Block tridiagonal: every diagonal block is the same 4x4 symmetric-zero
    matrix, every superdiagonal block the same 4x4 matrix, and the
    subdiagonal its transpose.  Nonzero entries sit only where the row and
    column index have opposite parity.  Memoised per n; ``claims.run``
    clears it, so a run builds each matrix at most once and nothing is kept
    from one run to the next.
    """
    _require_pairs(n)
    blocks = n - 1
    h = np.zeros((4 * blocks, 4 * blocks), dtype=np.int64)
    for b in range(blocks):
        sl = slice(4 * b, 4 * b + 4)
        h[sl, sl] = _DIAG_BLOCK
        if b + 1 < blocks:
            nxt = slice(4 * b + 4, 4 * b + 8)
            h[sl, nxt] = _UPPER_BLOCK
            h[nxt, sl] = _UPPER_BLOCK.T
    h.setflags(write=False)
    return h


def php_identity(matrix: np.ndarray) -> bool:
    """Whether the parity swap conjugates ``matrix`` to its exact negative.

    The swap exchanges coordinates 2j and 2j+1 (0-based), so conjugating by
    it permutes rows and columns by ``i -> i ^ 1``.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError("need an even-sized square matrix")
    swap = np.arange(m.shape[0]) ^ 1
    return bool(np.array_equal(m[swap][:, swap], -m))


def check_php(n: int) -> bool:
    return php_identity(build_hessian(n))


@functools.cache
def spectrum(n: int) -> np.ndarray:
    """Ascending eigenvalues of build_hessian(n), read-only.

    Memoised per n, so that :func:`signature` and :func:`min_abs_eigenvalue`
    share one eigensolve; ``claims.run`` clears it so that each run computes
    each spectrum once.
    """
    eigs = np.linalg.eigvalsh(build_hessian(n).astype(float))
    eigs.setflags(write=False)
    return eigs


def min_abs_eigenvalue(n: int) -> float:
    return float(np.abs(spectrum(n)).min())


def signature(n: int) -> int:
    """Positive minus negative eigenvalue count; refuses a near-singular case.

    The parity-swap identity forces the value 0 whenever the matrix is
    invertible, so a near-zero eigenvalue is reported as an error rather
    than silently classified.
    """
    eigs = spectrum(n)
    if float(np.abs(eigs).min()) <= EIGENVALUE_ZERO_THRESHOLD:
        raise ValueError(
            f"eigenvalue within {EIGENVALUE_ZERO_THRESHOLD} of zero at n={n}: "
            "matrix unexpectedly near-singular")
    return int(np.count_nonzero(eigs > 0) - np.count_nonzero(eigs < 0))


@functools.cache
def build_hprime(n: int) -> np.ndarray:
    """Pentadiagonal skew (2n-2)x(2n-2) reduction of the Hessian, read-only.

    First band alternates 2, -2, 2, ...; second band alternates -1, 1, -1,
    ...; lower triangle by antisymmetry.  Equals the odd-indexed rows and
    columns (1-based) of build_hessian(n) with rows 2j and 2j+1 (0-based)
    exchanged.  The bands do not depend on n, so build_hprime(n) is the
    leading block of build_hprime(m) for every m > n, and
    ``leading_pfaffians(build_hprime(m))`` lists Pf(H'(n)) for n = 2..m.
    Memoised per n like :func:`build_hessian`; a ``verify hessian`` run builds
    only the largest.
    """
    _require_pairs(n)
    size = 2 * n - 2
    m = np.zeros((size, size), dtype=np.int64)
    for i in range(size - 1):
        m[i, i + 1] = 2 if i % 2 == 0 else -2
    for i in range(size - 2):
        m[i, i + 2] = -1 if i % 2 == 0 else 1
    m = m - m.T
    m.setflags(write=False)
    return m


def _integer_rows(m: np.ndarray) -> list[list[int]]:
    """The rows of ``m`` as Python ints; refuses entries that are not integers.

    One ``tolist`` converts a whole integer or bool array; an object array
    passes only if every entry is already a Python int.
    """
    if m.dtype.kind in "iub" or (
            m.dtype.kind == "O" and all(isinstance(x, int) for x in m.flat)):
        return m.tolist()
    raise ValueError(f"need integer entries, got dtype {m.dtype}")


def _validate_square(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    return m


def _skew_rows(matrix: np.ndarray) -> list[list[int]]:
    """The rows of an even-sized, exactly antisymmetric integer matrix."""
    m = _validate_square(matrix)
    if m.shape[0] % 2:
        raise ValueError(f"Pfaffian needs even size, got {m.shape[0]}")
    a = _integer_rows(m)
    if (m + m.T).any():
        raise ValueError("matrix is not exactly antisymmetric")
    return a


def _eliminate(a: list[list[int]], leading: list[int]) -> int:
    """Pfaffian of the skew rows ``a`` by fraction-free elimination, in place.

    The Pfaffian form of Bareiss elimination: step k pivots on the entry
    (k, k+1), swapping row and column k+1 with the first column that has a
    nonzero entry in row k (one sign flip per swap; none means Pf = 0), and
    replaces each remaining entry by a bordered 4-index Pfaffian divided by
    the previous pivot.  The Pfaffian form of Sylvester's identity makes every
    division exact, so the arithmetic stays in Python integers and the last
    pivot is the Pfaffian.  Until the first swap, entry (k, k+1) at step k is
    the Pfaffian of the leading (k+2) block; those values, up to and
    including the first zero one, are appended to ``leading``.
    """
    size = len(a)
    sign = 1
    prev = 1
    swapped = False
    for k in range(0, size, 2):
        row_k = a[k]
        if not swapped:
            leading.append(row_k[k + 1])
        pivot_col = next((j for j in range(k + 1, size) if row_k[j]), None)
        if pivot_col is None:
            return 0
        if pivot_col != k + 1:
            # elimination updates only the upper triangle, which is all it
            # reads; the swap also reads the lower one, so mirror the live
            # block first
            for i in range(k, size):
                row_i = a[i]
                for j in range(i + 1, size):
                    a[j][i] = -row_i[j]
            for row in a[k:]:
                row[k + 1], row[pivot_col] = row[pivot_col], row[k + 1]
            a[k + 1], a[pivot_col] = a[pivot_col], a[k + 1]
            sign = -sign
            swapped = True
        row_k1 = a[k + 1]
        pivot = row_k[k + 1]
        for i in range(k + 2, size):
            row_i = a[i]
            a_ki, a_k1i = row_k[i], row_k1[i]
            for j in range(i + 1, size):
                row_i[j] = (pivot * row_i[j] - a_ki * row_k1[j]
                            + row_k[j] * a_k1i) // prev
        prev = pivot
    return sign * prev


def pfaffian(matrix: np.ndarray) -> int:
    """Exact Pfaffian of an integer skew matrix by fraction-free elimination.

    Refuses odd sizes, matrices that are not exactly antisymmetric and
    entries that are not integers.  Equals ``leading_pfaffians(matrix)[-1]``.
    """
    return _eliminate(_skew_rows(matrix), [])


def leading_pfaffians(matrix: np.ndarray) -> list[int]:
    """Exact Pfaffians of the leading 2x2, 4x4, ..., full blocks of ``matrix``.

    One elimination gives them all while it needs no swap: its pivot at each
    step is the Pfaffian of the next leading block.  A zero pivot means that
    block's Pfaffian is 0; the swap that follows breaks the correspondence,
    so each larger block short of the whole matrix is then eliminated on its
    own.  The last value is :func:`pfaffian` of the whole matrix.
    """
    m = np.asarray(matrix)
    a = _skew_rows(m)
    size = len(a)
    values: list[int] = []
    whole = _eliminate(a, values)
    values += [pfaffian(m[:j, :j]) for j in range(2 * len(values) + 2, size, 2)]
    if len(values) < size // 2:
        values.append(whole)
    return values


def pfaffian_recurrence(n_max: int) -> list[int]:
    """Pfaffians of build_hprime(2..n_max) via Pf(n+2) = 2 Pf(n+1) + Pf(n).

    Seeded with the exact values 2 and 5 at n = 2, 3; every term is
    positive, which is what makes the Hessian invertible for all n.
    """
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    values = list(PFAFFIAN_SEEDS)
    while len(values) < n_max - 1:
        values.append(2 * values[-1] + values[-2])
    return values


def integer_determinant(matrix: np.ndarray) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = _integer_rows(_validate_square(matrix))
    size = len(a)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot_row = next(
                (i for i in range(k + 1, size) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, size):
            row_i = a[i]
            a_ik = row_i[k]
            # a zero in the pivot column drops the cross term, and the
            # division stays exact
            if a_ik:
                for j in range(k + 1, size):
                    row_i[j] = (row_i[j] * pivot - a_ik * row_k[j]) // prev
            else:
                for j in range(k + 1, size):
                    row_i[j] = row_i[j] * pivot // prev
        prev = pivot
    return sign * a[size - 1][size - 1]


@dataclass(frozen=True)
class DetFactorization:
    """Exact determinant of the Hessian against the fourth Pfaffian power."""
    n: int
    hessian_det: int
    hprime_pfaffian: int
    matches: bool


def det_factorization(n: int,
                      hprime_pfaffian: int | None = None) -> DetFactorization:
    """Certify det(H) = Pf(H')^4 exactly.

    The parity-swapped Hessian splits into two complementary skew blocks
    that are negatives of each other, so its determinant is the square of
    one block's determinant, i.e. the fourth power of that block's
    Pfaffian.  A caller that already holds Pf(H'(n)), e.g. as a leading
    Pfaffian of a larger H', passes it; otherwise it is computed from
    ``build_hprime(n)``.
    """
    _require_pairs(n)
    det_h = integer_determinant(build_hessian(n))
    pf = (pfaffian(build_hprime(n)) if hprime_pfaffian is None
          else hprime_pfaffian)
    return DetFactorization(
        n=n, hessian_det=det_h, hprime_pfaffian=pf,
        matches=det_h == pf ** 4)
