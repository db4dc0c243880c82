"""Independent ground-truth helpers for the test suite.

Everything in this file is deliberately implemented WITHOUT importing the
package under test: rotations as 3x3 matrices, derivatives as central
differences, permutations as index arrays, determinants as float slogdet.
These are the yardsticks the library is measured against, so they must not
share code (or bugs) with it.
"""
from __future__ import annotations

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
    """Central-difference derivative of `mapping` along the spherical curve
    t -> normalize(base + t*velocity). Returns ambient velocity vectors at
    mapping(base), tangentially projected."""
    plus = mapping(sphere_retract(base + step * velocity))
    minus = mapping(sphere_retract(base - step * velocity))
    out = (plus - minus) / (2.0 * step)
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
# Pfaffian oracles.

def det_float(M) -> float:
    sign, logabs = np.linalg.slogdet(np.asarray(M, dtype=float))
    return float(sign * np.exp(logabs))


def pfaffian_4x4(M) -> int:
    """Classical 4x4 closed form: a12 a34 - a13 a24 + a14 a23."""
    return M[0][1] * M[2][3] - M[0][2] * M[1][3] + M[0][3] * M[1][2]


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
