"""Integer Hessian of the holonomy-product function at the alternating circle.

At the circle of configurations (p, -p, p, -p, ...) the product-one defect
has an exact integer Hessian in the natural slot coordinates.  Everything
about it is an integer identity: the matrix is block tridiagonal with one
repeating 4x4 diagonal block and one repeating off-diagonal block, the
swap-adjacent-coordinates permutation conjugates it to its negative (hence
signature 0), and its odd rows and even columns form a pentadiagonal skew
matrix H' whose Pfaffian obeys a two-term integer recurrence.  Both
matrices for n pairs are leading blocks of the ones for any larger n, so
every check on the smaller ones is a read-off of one pass over the largest:
one elimination of H' gives every leading Pfaffian and one of H every
leading determinant, each past its row swaps, and one comparison of H with
its swap conjugate gives the parity result of every even leading block,
because the swap maps each even leading range to itself.  Floating point
appears only in the eigenvalue-based signature check; determinants and
Pfaffians come from fraction-free elimination over Python integers, so they
are exact.  Every function here is a plain function of its inputs and keeps
nothing between calls.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "build_hessian",
    "parity_swap_negates",
    "signature",
    "min_abs_eigenvalue",
    "spectrum",
    "build_hprime",
    "pfaffian",
    "leading_pfaffians",
    "pfaffian_recurrence",
    "integer_determinant",
    "leading_determinants",
    "PFAFFIAN_SEEDS",
]

EIGENVALUE_ZERO_THRESHOLD = 1e-8
PFAFFIAN_SEEDS = (2, 5)

# Repeating blocks of the Hessian.  The diagonal block couples the two
# tangent directions of a slot pair to the next pair's; the off-diagonal
# block couples pairs two apart.  The entries encode the commutator
# coefficients of the second-order expansion of the holonomy product.
# Transcribed: they are typed in from the paper, not yet computed from the
# product-one defect, so the checks on H(n) compare them only with
# themselves.
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


def build_hessian(n: int) -> np.ndarray:
    """Exact (4n-4)x(4n-4) integer Hessian for n sphere pairs, read-only.

    Block tridiagonal: every diagonal block is the same 4x4 symmetric-zero
    matrix, every superdiagonal block the same 4x4 matrix, and the
    subdiagonal its transpose.  Nonzero entries sit only where the row and
    column index have opposite parity.  The blocks do not depend on n, so
    build_hessian(n) is the leading block of build_hessian(m) for every
    m > n.
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


def parity_swap_negates(matrix: np.ndarray) -> list[bool]:
    """Whether the parity swap conjugates the leading 2x2, 4x4, ..., full
    blocks of ``matrix`` to their exact negatives.

    The swap exchanges coordinates 2j and 2j+1 (0-based), so conjugating by
    it permutes rows and columns by ``i -> i ^ 1``, which maps every even
    leading range to itself: the conjugate of a leading block is the leading
    block of the conjugate.  So one comparison of the whole matrix serves
    every block, and an entry (i, j) that breaks the identity fails exactly
    the blocks larger than max(i, j).
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError("need an even-sized square matrix")
    size = m.shape[0]
    swap = np.arange(size) ^ 1
    rows, cols = np.nonzero(m[swap][:, swap] != -m)
    first = int(np.maximum(rows, cols).min()) if len(rows) else size
    return [block <= first for block in range(2, size + 1, 2)]


def spectrum(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric integer matrix, read-only, so
    that :func:`signature` and :func:`min_abs_eigenvalue` can share one
    eigensolve."""
    eigs = np.linalg.eigvalsh(np.asarray(matrix, dtype=float))
    eigs.setflags(write=False)
    return eigs


def _min_abs(values: list[float]) -> float:
    """Smallest |value|, or NaN if any value is NaN."""
    if any(map(math.isnan, values)):
        return math.nan
    return min(map(abs, values))


def min_abs_eigenvalue(eigs: np.ndarray) -> float:
    """Smallest |eigenvalue| of ``eigs``; NaN if any eigenvalue is NaN."""
    return _min_abs(np.asarray(eigs, dtype=float).tolist())


def signature(eigs: np.ndarray) -> int:
    """Positive minus negative count of the eigenvalues ``eigs``; refuses a
    near-singular case.

    The parity-swap identity forces the value 0 whenever the matrix is
    invertible, so a near-zero eigenvalue is reported as an error rather
    than silently classified.  A spectrum has at most a few dozen values
    here, so one ``tolist`` and Python's own loops beat numpy calls on it.
    """
    values = np.asarray(eigs, dtype=float).tolist()
    if _min_abs(values) <= EIGENVALUE_ZERO_THRESHOLD:
        raise ValueError(
            f"eigenvalue within {EIGENVALUE_ZERO_THRESHOLD} of zero: "
            f"{len(values)}x{len(values)} matrix unexpectedly near-singular")
    return sum((v > 0) - (v < 0) for v in values)


def build_hprime(n: int) -> np.ndarray:
    """Pentadiagonal skew (2n-2)x(2n-2) reduction of the Hessian, read-only:
    its odd rows and even columns, counted from 0.  H couples only opposite
    parities, so with the even coordinates first it is [[0, H'^T], [H', 0]]
    and det H = det(H')^2 = Pf(H')^4."""
    return build_hessian(n)[1::2, 0::2]


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


def _eliminate(a: list[list[int]]) -> list[int]:
    """Leading Pfaffians of the skew rows ``a``, by one elimination in place.

    The Pfaffian form of Bareiss elimination: step k pivots on (k, k+1),
    first swapping row and column k+1 with the first column p that has a
    nonzero entry in row k (one sign flip per swap), and replaces each
    remaining entry by a bordered 4-index Pfaffian divided by the previous
    pivot, exactly by Sylvester's identity.  A block that ends at or before
    p has a zero row k, so its Pfaffian is 0; a larger one holds the swap, so
    its Pfaffian is the signed pivot at its last step.  Without a p, every
    block from k+2 on has a zero row.
    """
    size = len(a)
    sign = 1
    prev = 1
    values: list[int] = []
    for k in range(0, size, 2):
        row_k = a[k]
        pivot_col = next((j for j in range(k + 1, size) if row_k[j]), None)
        if pivot_col is None:
            return values + [0] * (size // 2 - len(values))
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
            values += [0] * (pivot_col // 2 - len(values))
        row_k1 = a[k + 1]
        pivot = row_k[k + 1]
        if len(values) == k // 2:
            values.append(sign * pivot)
        for i in range(k + 2, size):
            row_i = a[i]
            a_ki, a_k1i = row_k[i], row_k1[i]
            for j in range(i + 1, size):
                row_i[j] = (pivot * row_i[j] - a_ki * row_k1[j]
                            + row_k[j] * a_k1i) // prev
        prev = pivot
    return values


def pfaffian(matrix: np.ndarray) -> int:
    """Exact Pfaffian of an integer skew matrix by fraction-free elimination.

    Refuses odd sizes, matrices that are not exactly antisymmetric and
    entries that are not integers.  Equals ``leading_pfaffians(matrix)[-1]``,
    or 1 for the 0x0 matrix.
    """
    return (_eliminate(_skew_rows(matrix)) or [1])[-1]


def leading_pfaffians(matrix: np.ndarray) -> list[int]:
    """Exact Pfaffians of the leading 2x2, 4x4, ..., full blocks of ``matrix``.

    One elimination gives them all, past every swap: each block's Pfaffian
    is 0 or the signed pivot at its last step (see `_eliminate`).  The last
    value is :func:`pfaffian` of the whole matrix.
    """
    return _eliminate(_skew_rows(matrix))


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


def _bareiss(a: list[list[int]]) -> list[int]:
    """Leading determinants of the square rows ``a``, by one elimination in
    place.

    Fraction-free (Bareiss) elimination: step k pivots on (k, k), first
    swapping row k with the first row r below it that has a nonzero entry in
    column k (one sign flip per swap), and replaces each remaining entry by
    a bordered 2x2 determinant divided by the previous pivot, exactly by
    Sylvester's identity.  Before the swap, column k is zero in rows k..r-1
    of every block of size k+1..r, so their determinants are 0; a larger
    block holds the swapped rows, so its determinant is the signed pivot at
    its last step.  Without an r, every block from k+1 on is singular.
    """
    size = len(a)
    sign = 1
    prev = 1
    values: list[int] = []
    for k in range(size):
        if a[k][k] == 0:
            pivot_row = next(
                (i for i in range(k + 1, size) if a[i][k] != 0), None)
            if pivot_row is None:
                return values + [0] * (size - len(values))
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
            values += [0] * (pivot_row - len(values))
        row_k = a[k]
        pivot = row_k[k]
        if len(values) == k:
            values.append(sign * pivot)
        for i in range(k + 1, size):
            row_i = a[i]
            a_ik = row_i[k]
            # a zero in the pivot column drops the cross term, and the
            # division stays exact; a zero entry then stays zero
            if a_ik:
                for j in range(k + 1, size):
                    row_i[j] = (row_i[j] * pivot - a_ik * row_k[j]) // prev
            else:
                for j in range(k + 1, size):
                    if row_i[j]:
                        row_i[j] = row_i[j] * pivot // prev
        prev = pivot
    return values


def integer_determinant(matrix: np.ndarray) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    Refuses entries that are not integers.  Equals
    ``leading_determinants(matrix)[-1]``, or 1 for the 0x0 matrix.
    """
    return (_bareiss(_integer_rows(_validate_square(matrix))) or [1])[-1]


def leading_determinants(matrix: np.ndarray) -> list[int]:
    """Exact determinants of the leading 1x1, 2x2, ..., full blocks of
    ``matrix``.

    One elimination gives them all, past every row swap: each block's
    determinant is 0 or the signed pivot at its last step (see `_bareiss`).
    The last value is :func:`integer_determinant` of the whole matrix.
    """
    return _bareiss(_integer_rows(_validate_square(matrix)))
