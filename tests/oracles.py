"""Independent ground-truth helpers for the test suite.

Everything in this file is deliberately implemented WITHOUT importing the
package under test: rotations as 3x3 matrices, derivatives as central
differences, permutations as index arrays, determinants as float slogdet
or as the Leibniz sum over permutations.
These are the yardsticks the library is measured against, so they must not
share code (or bugs) with it.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

# ---------------------------------------------------------------------------
# Alexander polynomials from genus-1 Seifert matrices, det(V - t V^T).
# Only the three knots the suite needs; this is a fixture, not an API.

# 2x2 Seifert matrices (standard genus-1 forms)
_SEIFERT = {
    "3_1": np.array([[-1, 1], [0, -1]]),
    "4_1": np.array([[1, 1], [0, -1]]),
    "5_2": np.array([[-1, 1], [0, -2]]),
}


def seifert_alexander(name: str) -> tuple[int, ...]:
    """Alexander polynomial coefficients, lowest power first, normalized so
    the lowest exponent is 0 and the value at t=1 is +1."""
    V = _SEIFERT[name]
    # det(V - t V^T) for 2x2: expand by hand into polynomial coefficients.
    # entries are linear in t: a(t) = V - t V^T
    a = np.zeros((2, 2, 2), dtype=np.int64)  # [i, j, power]
    a[:, :, 0] = V
    a[:, :, 1] = -V.T
    # det = a00*a11 - a01*a10, polynomial multiplication by convolution
    def polymul(p, q):
        return np.convolve(p, q)

    det = polymul(a[0, 0], a[1, 1]) - polymul(a[0, 1], a[1, 0])
    # strip leading/trailing zeros
    nz = np.nonzero(det)[0]
    det = det[nz[0] : nz[-1] + 1]
    if det.sum() < 0:
        det = -det
    assert det.sum() == 1, "Alexander polynomial must evaluate to 1 at t=1"
    return tuple(int(c) for c in det)


def poly_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two square matrices over Z[t, t^-1] held as (k, k, d)
    coefficient arrays, lowest exponent first: row times column, with each
    entry product a convolution.  The lowest exponents add, so the product
    of two centred arrays (offsets (da - 1)/2 and (db - 1)/2) is centred."""
    k = a.shape[0]
    out = np.zeros((k, k, a.shape[2] + b.shape[2] - 1), dtype=object)
    for i in range(k):
        for j in range(k):
            for m in range(k):
                out[i, j] += np.convolve(a[i, m], b[m, j])
    return out


def _laurent_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def reduced_burau_alexander(strands: int, letters) -> tuple[int, ...]:
    """Alexander polynomial of a knot closure by the older chain: det(R - I)
    of the reduced Burau matrix R, divided by 1 + t + ... + t^(n-1) by
    synthetic division.  Polynomials are {exponent: coefficient} dicts and
    matrices lists of lists of them; R is the product of one full generator
    matrix per letter, the determinant the Leibniz sum.  Returns the
    coefficients from exponent 0, signed so the value at t = 1 is +1."""
    k = strands - 1
    if k == 0:
        return (1,)
    ident = [[{0: 1} if i == j else {} for j in range(k)] for i in range(k)]
    r = [row[:] for row in ident]
    for letter in letters:
        c, e = abs(letter) - 1, 1 if letter > 0 else -1
        # the identity but for row c, which is (1, -t, t) on columns c - 1,
        # c, c + 1 for sigma and (t^-1, -t^-1, 1) for its inverse
        g = [row[:] for row in ident]
        g[c] = [{} for _ in range(k)]
        if c > 0:
            g[c][c - 1] = {0: 1} if e > 0 else {-1: 1}
        g[c][c] = {e: -1}
        if c + 1 < k:
            g[c][c + 1] = {1: 1} if e > 0 else {0: 1}
        prod = [[{} for _ in range(k)] for _ in range(k)]
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    for x, v in _laurent_mul(r[i][m], g[m][j]).items():
                        prod[i][j][x] = prod[i][j].get(x, 0) + v
        r = prod
    for i in range(k):
        r[i][i] = {**r[i][i], 0: r[i][i].get(0, 0) - 1}
    det: dict = {}
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k)
                         for j in range(i + 1, k))
        term = {0: (-1) ** inversions}
        for i in range(k):
            term = _laurent_mul(term, r[i][perm[i]])
        for x, v in term.items():
            det[x] = det.get(x, 0) + v
    det = {x: v for x, v in det.items() if v}
    low, high = min(det), max(det)
    rem = [det.get(x, 0) for x in range(low, high + 1)]
    quotient = [0] * (len(rem) - k)
    for i in range(len(quotient) - 1, -1, -1):  # from the top coefficient
        quotient[i] = rem[i + k]
        for j in range(i, i + k + 1):
            rem[j] -= quotient[i]
    assert not any(rem), "division by 1 + t + ... + t^(n-1) left a remainder"
    while quotient[-1] == 0:
        quotient.pop()
    while quotient[0] == 0:
        quotient.pop(0)
    if sum(quotient) < 0:
        quotient = [-q for q in quotient]
    return tuple(quotient)


# ---------------------------------------------------------------------------
# Rotation oracle: conjugation in SU(2) is a rotation of the vector part.

def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues formula, R = I + sin(angle) K + (1-cos(angle)) K^2."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def conjugation_as_rotation(g_wxyz: np.ndarray, v_xyz: np.ndarray) -> np.ndarray:
    """Rotate the vector v by the rotation that conjugation by the unit
    quaternion g = (w, x, y, z) induces on pure quaternions: angle
    2*arccos(w) about the (x, y, z) axis."""
    w = float(g_wxyz[0])
    axis = np.asarray(g_wxyz[1:], dtype=float)
    s = np.linalg.norm(axis)
    if s < 1e-15:  # g = +-1 acts trivially
        return np.asarray(v_xyz, dtype=float).copy()
    angle = 2.0 * np.arctan2(s, w)
    return rotation_matrix(axis, angle) @ np.asarray(v_xyz, dtype=float)


# ---------------------------------------------------------------------------
# Finite differences on products of 2-spheres.
#
# Configurations are (m, 3) arrays of unit vectors. A tangent frame is an
# (m, 3) array of ambient vectors orthogonal to the base points (these are
# the actual velocity vectors, not Lie-algebra coefficients).

FD_STEP = 1e-5


def sphere_retract(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=-1, keepdims=True)


def fd_pushforward(mapping, base: np.ndarray, velocity: np.ndarray,
                   step: float = FD_STEP) -> np.ndarray:
    """Five-point central-difference derivative of `mapping` along the
    spherical curve t -> normalize(base + t*velocity), (8 (f(h) - f(-h)) -
    (f(2h) - f(-2h))) / 12h, whose truncation error is O(h^4) rather than
    the O(h^2) of the three-point stencil.  Returns ambient velocity
    vectors at mapping(base), tangentially projected."""
    def f(t):
        return mapping(sphere_retract(base + t * velocity))

    out = (8.0 * (f(step) - f(-step)) - (f(2.0 * step) - f(-2.0 * step))) / (
        12.0 * step)
    at = mapping(base)
    out = out - (np.sum(out * at, axis=-1, keepdims=True)) * at
    return out


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain quaternion product on (..., 4) wxyz arrays (oracle-local copy)."""
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
        ],
        axis=-1,
    )


def quat_inv_unit(a: np.ndarray) -> np.ndarray:
    out = -np.asarray(a, dtype=float).copy()
    out[..., 0] = -out[..., 0]
    return out


def pure(v_xyz: np.ndarray) -> np.ndarray:
    v = np.asarray(v_xyz, dtype=float)
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def rotate(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ad(g) v = vector part of g (0, v) g^-1 for unit quaternions g."""
    return quat_mul(quat_mul(g, pure(v)), quat_inv_unit(g))[..., 1:]


def su2_matrix(q_wxyz: np.ndarray) -> np.ndarray:
    """The 2x2 complex matrix of the quaternion w + x i + y j + z k:
    [[w + x i, y + z i], [-y + z i, w - x i]] (any quaternion, not only
    units; pure ones give the su(2) matrices)."""
    w, x, y, z = (float(c) for c in q_wxyz)
    return np.array([[w + x * 1j, y + z * 1j], [-y + z * 1j, w - x * 1j]])


def fd_two_form_pair(j: int, base: np.ndarray, frame_x: np.ndarray,
                     frame_y: np.ndarray, step: float = FD_STEP) -> float:
    """Independent evaluation of the half-shuffle pairing of the left
    Maurer-Cartan form of the partial product g_1...g_j with the right
    Maurer-Cartan form of slot j+1.

    The partial product's derivative is taken by central differences in
    ambient quaternion coordinates; the Maurer-Cartan values are then exact
    quaternion algebra on the finite-difference velocity.
    """
    base = np.asarray(base, dtype=float)

    def partial_product(points: np.ndarray) -> np.ndarray:
        acc = np.array([1.0, 0.0, 0.0, 0.0])
        for i in range(j):
            acc = quat_mul(acc, pure(points[i]))
        return acc

    def mc_values(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # left MC of factor 1 along the curve through `base` with velocity
        # `frame`, and right MC of factor 2 (slot j+1).
        plus = partial_product(sphere_retract(base + step * frame))
        minus = partial_product(sphere_retract(base - step * frame))
        vel1 = (plus - minus) / (2.0 * step)
        g1 = partial_product(base)
        left = quat_mul(quat_inv_unit(g1), vel1)  # g^-1 * v
        vel2 = pure(frame[j])  # ambient velocity of slot j+1 is already linear
        g2 = pure(base[j])
        right = quat_mul(vel2, quat_inv_unit(g2))  # v * g^-1
        return left[1:], right[1:]  # vector parts

    lx, rx = mc_values(frame_x)
    ly, ry = mc_values(frame_y)
    return 0.5 * (float(np.dot(lx, ry)) - float(np.dot(ly, rx)))


# ---------------------------------------------------------------------------
# The two-form, evaluated the plain way: whole (..., 3) vectors, dot products
# by np.sum.  `omega_c_reference` is the yardstick for the library's
# component-wise kernel, which must match it bit for bit.

def half_turn(axis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2 (p . v) p - v: conjugation by a pure unit quaternion p."""
    dot = np.sum(axis * v, axis=-1, keepdims=True)
    return 2.0 * dot * axis - v


def _batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


def omega_pair_array(j: int, base: np.ndarray, x: np.ndarray, y: np.ndarray
                     ) -> np.ndarray:
    """The j-th partial pairing, 1 <= j <= m-1 (batched over leading dims).

    Value: (1/2) [ S_j(X) . Y_{j+1}  -  S_j(Y) . X_{j+1} ]  where
    S_j(X) = sum_{i<=j} Ad((g_i ... g_j)^{-1}) X_i is the left
    Maurer-Cartan value of the partial product map.
    """
    m = base.shape[-2]
    if not 1 <= j <= m - 1:
        raise ValueError(f"pairing index {j} out of range 1..{m - 1}")
    sx = np.zeros_like(x[..., 0, :])
    sy = np.zeros_like(sx)
    for i in range(j):
        g = base[..., i, :]
        sx = half_turn(g, sx + x[..., i, :])
        sy = half_turn(g, sy + y[..., i, :])
    return 0.5 * (_batch_dot(sx, y[..., j, :]) - _batch_dot(sy, x[..., j, :]))


def omega_c_reference(base: np.ndarray, x: np.ndarray, y: np.ndarray
                      ) -> np.ndarray:
    """The full form: minus the sum of all partial pairings (batched)."""
    m = base.shape[-2]
    sx = np.zeros_like(x[..., 0, :])
    sy = np.zeros_like(sx)
    total = np.zeros(base.shape[:-2])
    for j in range(1, m):
        g = base[..., j - 1, :]
        sx = half_turn(g, sx + x[..., j - 1, :])
        sy = half_turn(g, sy + y[..., j - 1, :])
        total = total + 0.5 * (
            _batch_dot(sx, y[..., j, :]) - _batch_dot(sy, x[..., j, :])
        )
    return -total


# ---------------------------------------------------------------------------
# The cap-cylinder sphere's charts, assembled the plain way: circle points
# stacked into the four-slot head, then the alternating tail concatenated.
# The library writes every slot into one array and must match bit for bit.

def cross_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, by numpy's own routine."""
    return np.cross(a, b)


def _circle(theta: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)


def _chart_tail(shape: tuple[int, ...], pairs: int) -> np.ndarray:
    """Slots 5..2n: the first axis point, sign (-1)^slot (1-based)."""
    signs = np.array([(-1.0) ** j for j in range(5, 2 * pairs + 1)])
    tail = np.zeros(shape + (2 * pairs - 4, 3))
    tail[..., :, 0] = signs
    return tail


def cylinder_chart(pairs: int, theta1: np.ndarray, theta2: np.ndarray
                   ) -> np.ndarray:
    """(A_t1, J, A_t2, A_{t1+t2}, tail) with A_t = (cos t, sin t, 0)."""
    head = np.stack(
        [_circle(theta1),
         np.broadcast_to(np.array([1.0, 0.0, 0.0]), theta1.shape + (3,)),
         _circle(theta2),
         _circle(theta1 + theta2)],
        axis=-2)
    return np.concatenate([head, _chart_tail(theta1.shape, pairs)], axis=-2)


def cap_chart(pairs: int, which: int, a: np.ndarray) -> np.ndarray:
    """Cap 1: (J, J, A, A, tail); cap 2: (-J, J, A, -A, tail)."""
    lead = np.zeros(a.shape[:-1] + (4, 3))
    lead[..., 0, 0] = 1.0 if which == 1 else -1.0
    lead[..., 1, 0] = 1.0
    lead[..., 2, :] = a
    lead[..., 3, :] = a if which == 1 else -a
    return np.concatenate([lead, _chart_tail(a.shape[:-1], pairs)], axis=-2)


# ---------------------------------------------------------------------------
# Permutation-cycle oracle for braid closures.

def closure_cycle_count(strands: int, letters: list[int]) -> int:
    perm = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    cycles = 0
    for s in range(strands):
        if not seen[s]:
            cycles += 1
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
    return cycles


# ---------------------------------------------------------------------------
# Connected components of a radius graph by breadth-first search.

def radius_components(points: np.ndarray, radius: float) -> list[list[int]]:
    """Components of the graph linking points at distance <= radius, each
    as ascending indices, ordered by smallest index."""
    seen = np.zeros(len(points), dtype=bool)
    components = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = True
        queue, members = [start], []
        while queue:
            u = queue.pop(0)
            members.append(u)
            dist2 = np.sum((points - points[u]) ** 2, axis=1)
            for v in np.flatnonzero((dist2 <= radius**2) & ~seen):
                seen[v] = True
                queue.append(int(v))
        components.append(sorted(members))
    return components


# ---------------------------------------------------------------------------
# Leader grouping, one point at a time (J. A. Hartigan, Clustering
# Algorithms, 1975, ch. 3).

def representative_balls(points: np.ndarray, radius: float) -> list[list[int]]:
    """Groups of points within radius of their group's leader, each as
    ascending indices, ordered by smallest index.  Points are read in order:
    each joins the earliest leader at squared distance <= radius**2, or
    leads a new group when there is none."""
    points = np.asarray(points, dtype=float)
    leaders, groups = [], []
    for i, p in enumerate(points):
        near = np.flatnonzero(np.sum((p - points[leaders]) ** 2, axis=1) <= radius**2)
        if len(near):
            groups[near[0]].append(i)
        else:
            leaders.append(i)
            groups.append([i])
    return groups


# ---------------------------------------------------------------------------
# Pfaffian oracles.

def det_float(M) -> float:
    sign, logabs = np.linalg.slogdet(np.asarray(M, dtype=float))
    return float(sign * np.exp(logabs))


def leibniz_det(M: np.ndarray) -> np.ndarray:
    """Determinants of (..., k, k) matrices by the Leibniz sum: over all k!
    permutations (24 for 4x4), the product of the entries they pick, signed
    by the parity of their inversion count."""
    m = np.asarray(M)
    k = m.shape[-1]
    rows = np.arange(k)
    total = np.zeros(m.shape[:-2], dtype=m.dtype)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(k) for j in range(i + 1, k))
        term = np.prod(m[..., rows, list(perm)], axis=-1)
        total = total - term if inversions % 2 else total + term
    return total


def pfaffian_4x4(M) -> int:
    """Classical 4x4 closed form: a12 a34 - a13 a24 + a14 a23."""
    return M[0][1] * M[2][3] - M[0][2] * M[1][3] + M[0][3] * M[1][2]


def pfaffian_expansion(M) -> int:
    """Exact Pfaffian of an integer skew matrix by first-row minor expansion.

    Pf(A) = sum over j of (-1)^j a_{1j} Pf(A with rows/cols 1 and j gone),
    memoized over surviving index sets; exponential, so small sizes only.
    """
    m = np.asarray(M)
    assert m.ndim == 2 and m.shape[0] == m.shape[1] and m.shape[0] % 2 == 0
    assert np.array_equal(m, -m.T), "not antisymmetric"
    entries = [[int(x) for x in row] for row in m]

    @functools.cache
    def pf(indices: tuple[int, ...]) -> int:
        if not indices:
            return 1
        first, rest = indices[0], indices[1:]
        total = 0
        for pos, j in enumerate(rest):
            if entries[first][j]:
                minor = pf(rest[:pos] + rest[pos + 1:])
                total += (-1) ** pos * entries[first][j] * minor
        return total

    return pf(tuple(range(m.shape[0])))


def parity_swap(size: int) -> np.ndarray:
    """Permutation matrix exchanging coordinates 2j-1 and 2j (1-based)."""
    if size % 2:
        raise ValueError(f"parity swap needs even size, got {size}")
    p = np.zeros((size, size), dtype=np.int64)
    for j in range(0, size, 2):
        p[j, j + 1] = 1
        p[j + 1, j] = 1
    return p


def skew_reduction(hessian, odd: bool = True) -> np.ndarray:
    """Alternate rows and columns of the skew form P @ hessian, with P the
    permutation exchanging coordinates 2j-1 and 2j (1-based); `odd` keeps
    the 1-based odd indices, and the even-indexed complement is the other
    block of the determinant's square."""
    h = np.asarray(hessian)
    swap = np.arange(h.shape[0]) ^ 1  # 0<->1, 2<->3, ...
    skew = h[swap]
    keep = np.arange(0 if odd else 1, h.shape[0], 2)
    return skew[np.ix_(keep, keep)]


# ---------------------------------------------------------------------------
# Quadrature sanity: doubling the order must not move a smooth integral.

def gauss_legendre_2d(fn, a1, b1, a2, b2, order: int) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (b1 - a1) * x + 0.5 * (b1 + a1)
    v = 0.5 * (b2 - a2) * x + 0.5 * (b2 + a2)
    total = 0.0
    for ui, wi in zip(u, w):
        for vj, wj in zip(v, w):
            total += wi * wj * fn(ui, vj)
    return total * 0.25 * (b1 - a1) * (b2 - a2)
