"""The closed two-form on configurations of trace-free classes.

On a tuple (g_1, ..., g_m) of points of the trace-free class, tangent
vectors are stored as one coefficient per slot (velocity = X . g, see
`repvar.braid`).  The two-form pairs the left Maurer-Cartan value of
each partial product g_1 ... g_j against the coefficient of slot j+1 and
sums with a global minus sign.  This module evaluates the form, checks the
properties that make it usable (braid invariance, vanishing on the
mirrored-tuple submanifold and its braid images, nondegeneracy on the
product-one locus), and computes its pairing with the two standard test
spheres, whose ratio against the first-Chern pairing is the monotonicity
constant pi^2/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .braid import BraidWord, differential_arrays, random_configurations, tangent_basis
from .solver import is_singular_config
from .su2 import circle_point, reflect, slot_product

X_AXIS_ROW = np.array([1.0, 0.0, 0.0])
Z_AXIS_ROW = np.array([0.0, 0.0, 1.0])


# --- evaluation ---------------------------------------------------------------


def _batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


def omega_pair_array(j: int, base: np.ndarray, x: np.ndarray, y: np.ndarray
                     ) -> np.ndarray:
    """The j-th partial pairing, 1 <= j <= m-1 (batched over leading dims).

    Value: (1/2) [ S_j(X) . Y_{j+1}  -  S_j(Y) . X_{j+1} ]  where
    S_j(X) = sum_{i<=j} Ad((g_i ... g_j)^{-1}) X_i is the left
    Maurer-Cartan value of the partial product map.  Conjugation by a
    trace-free class point is the half-turn about it, so each Ad step is a
    reflection.
    """
    m = base.shape[-2]
    if not 1 <= j <= m - 1:
        raise ValueError(f"pairing index {j} out of range 1..{m - 1}")
    sx = np.zeros_like(x[..., 0, :])
    sy = np.zeros_like(sx)
    for i in range(j):
        g = base[..., i, :]
        sx = reflect(g, sx + x[..., i, :])
        sy = reflect(g, sy + y[..., i, :])
    return 0.5 * (_batch_dot(sx, y[..., j, :]) - _batch_dot(sy, x[..., j, :]))


def omega_c_array(base: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The full form: minus the sum of all partial pairings (batched)."""
    m = base.shape[-2]
    sx = np.zeros_like(x[..., 0, :])
    sy = np.zeros_like(sx)
    total = np.zeros(base.shape[:-2])
    for j in range(1, m):
        g = base[..., j - 1, :]
        sx = reflect(g, sx + x[..., j - 1, :])
        sy = reflect(g, sy + y[..., j - 1, :])
        total = total + 0.5 * (
            _batch_dot(sx, y[..., j, :]) - _batch_dot(sy, x[..., j, :])
        )
    return -total


# --- braid invariance ---------------------------------------------------------


def random_coefficients(pts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal coefficients projected to tangency (X . p = 0)."""
    raw = rng.normal(size=pts.shape)
    return raw - np.sum(raw * pts, axis=-1, keepdims=True) * pts


def check_braid_invariance(
    word: BraidWord | int,
    strands: int | None = None,
    trials: int = 1000,
    rng_seed: int = 0,
) -> float:
    """Max |omega_c_array(dw X, dw Y) - omega_c_array(X, Y)| over random pairs at
    random configurations (the whole product, not only the product-one
    locus).  `word` may be a single generator index."""
    if isinstance(word, int):
        if strands is None:
            raise ValueError("a bare generator needs an explicit strand count")
        word = BraidWord(strands, (word,))
    rng = np.random.default_rng(rng_seed)
    base = random_configurations(word.strands, trials, rng)
    x = random_coefficients(base, rng)
    y = random_coefficients(base, rng)
    before = omega_c_array(base, x, y)
    moved, xm = differential_arrays(word, base, x)
    _, ym = differential_arrays(word, base, y)
    after = omega_c_array(moved, xm, ym)
    return float(np.max(np.abs(after - before)))


# --- the mirrored-tuple submanifold -------------------------------------------


def lagrangian_tangent_arrays(
    half: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent frames to the mirrored-tuple submanifold, batched.

    half: (..., n, 3) base points; coeffs: (..., n, 3) tangent coefficients
    at them.  Slot i of the result carries X_i; the mirror slot 2n+1-i
    carries -Ad(p_i^{-1}) X_i at base -p_i.
    """
    flipped = half[..., ::-1, :]
    base = np.concatenate([half, -flipped], axis=-2)
    mirror = -reflect(flipped, coeffs[..., ::-1, :])
    return base, np.concatenate([coeffs, mirror], axis=-2)


def sigma_tilde(word: BraidWord) -> BraidWord:
    """Embed an n-strand word into 2n strands acting only on the second
    half (letter k -> k + n, signs preserved)."""
    n = word.strands
    shifted = tuple(k + n if k > 0 else k - n for k in word.letters)
    return BraidWord(2 * n, shifted)


def check_gamma_lagrangian(
    word: BraidWord, trials: int = 1000, rng_seed: int = 0
) -> float:
    """Max |omega_c| over random tangent pairs to the image of the
    mirrored-tuple submanifold under `word` (any word on 2n strands)."""
    if word.strands % 2 != 0:
        raise ValueError("the mirrored-tuple submanifold needs 2n strands")
    n = word.strands // 2
    rng = np.random.default_rng(rng_seed)
    half = random_configurations(n, trials, rng)
    cx = random_coefficients(half, rng)
    cy = random_coefficients(half, rng)
    base, x = lagrangian_tangent_arrays(half, cx)
    _, y = lagrangian_tangent_arrays(half, cy)
    moved, xm = differential_arrays(word, base, x)
    _, ym = differential_arrays(word, base, y)
    return float(np.max(np.abs(omega_c_array(moved, xm, ym))))


# --- test spheres ---------------------------------------------------------------


def _alternating_tail(shape: tuple[int, ...], pairs: int) -> np.ndarray:
    """Slots 5..2n of both standard spheres: the first axis point with
    alternating signs, starting negative at slot 5."""
    tail_len = 2 * pairs - 4
    signs = np.array([(-1.0) ** j for j in range(5, 2 * pairs + 1)])
    tail = np.zeros(shape + (tail_len, 3))
    tail[..., :, 0] = signs
    return tail


@dataclass(frozen=True)
class AdjacentPairSphere:
    """Test sphere placing a moving point A at `slot` and sign*A next to it,
    with axis points elsewhere; one axis point carries the parity sign
    (-1)^pairs * sign so the total product stays the identity.  The parity
    sign sits at the last slot, or at the first when slot = 2n-1."""

    slot: int  # 1-based, 1 <= slot <= 2n-1
    sign: int  # +1 or -1
    pairs: int  # n; the configuration has 2n slots

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        if not 1 <= self.slot <= 2 * self.pairs - 1:
            raise ValueError("slot out of range")

    def configuration(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        m = 2 * self.pairs
        out = np.zeros(a.shape[:-1] + (m, 3))
        out[..., :, 0] = 1.0
        parity = float((-1.0) ** self.pairs * self.sign)
        if self.slot == m - 1:
            out[..., 0, 0] = parity
        else:
            out[..., m - 1, 0] = parity
        out[..., self.slot - 1, :] = a
        out[..., self.slot, :] = self.sign * a
        return out

    def frame(self, a: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        """Coefficient frame of the pushforward of an ambient velocity at A
        (both moving slots carry A x u; the sign squares away)."""
        a = np.asarray(a, dtype=float)
        coeff = np.cross(a, np.asarray(velocity, dtype=float))
        out = np.zeros(a.shape[:-1] + (2 * self.pairs, 3))
        out[..., self.slot - 1, :] = coeff
        out[..., self.slot, :] = coeff
        return out


@dataclass(frozen=True)
class CapCylinderSphere:
    """The degree-one test sphere: two hemispherical caps where a single
    doubled point moves, glued to a two-angle cylinder chart."""

    pairs: int  # n >= 2; configurations have 2n slots

    def __post_init__(self):
        if self.pairs < 2:
            raise ValueError("need at least two pairs")

    def _with_tail(self, head: np.ndarray) -> np.ndarray:
        tail = _alternating_tail(head.shape[:-2], self.pairs)
        return np.concatenate([head, tail], axis=-2)

    def cap_configuration(self, which: int, a: np.ndarray) -> np.ndarray:
        """Chart 1: (J, J, A, A, ...); chart 2: (-J, J, A, -A, ...)."""
        a = np.asarray(a, dtype=float)
        lead = np.zeros(a.shape[:-1] + (4, 3))
        if which == 1:
            lead[..., 0, 0] = 1.0
        elif which == 2:
            lead[..., 0, 0] = -1.0
        else:
            raise ValueError("cap index must be 1 or 2")
        lead[..., 1, 0] = 1.0
        lead[..., 2, :] = a
        lead[..., 3, :] = a if which == 1 else -a
        return self._with_tail(lead)

    def cap_frame(self, a: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        """Pushforward of an ambient velocity at A on either cap: moving
        slots 3 and 4 both carry coefficient A x u."""
        a = np.asarray(a, dtype=float)
        coeff = np.cross(a, np.asarray(velocity, dtype=float))
        out = np.zeros(a.shape[:-1] + (2 * self.pairs, 3))
        out[..., 2, :] = coeff
        out[..., 3, :] = coeff
        return out

    def cylinder_configuration(
        self, theta1: np.ndarray, theta2: np.ndarray
    ) -> np.ndarray:
        """Chart 3: (A_t1, J, A_t2, A_{t1+t2}, ...) with A_t on the circle
        through the first two coordinate axes."""
        theta1 = np.asarray(theta1, dtype=float)
        theta2 = np.asarray(theta2, dtype=float)
        head = np.stack(
            [
                circle_point(theta1),
                np.broadcast_to(X_AXIS_ROW, theta1.shape + (3,)),
                circle_point(theta2),
                circle_point(theta1 + theta2),
            ],
            axis=-2,
        )
        return self._with_tail(head)

    def cylinder_frames(
        self, theta1: np.ndarray, theta2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate pushforwards d(theta1), d(theta2).  The circle speed
        is the quaternion product by the third axis point, so every moving
        slot carries the constant coefficient (0, 0, 1)."""
        theta1 = np.asarray(theta1, dtype=float)
        shape = theta1.shape + (2 * self.pairs, 3)
        d1 = np.zeros(shape)
        d2 = np.zeros(shape)
        d1[..., 0, :] = Z_AXIS_ROW
        d1[..., 3, :] = Z_AXIS_ROW
        d2[..., 2, :] = Z_AXIS_ROW
        d2[..., 3, :] = Z_AXIS_ROW
        return d1, d2


def product_deviation(pts: np.ndarray) -> np.ndarray:
    """Distance of the slot product from the identity quaternion, batched."""
    acc = slot_product(pts)
    acc[..., 0] -= 1.0
    return np.linalg.norm(acc, axis=-1)


# --- pairings with the test spheres --------------------------------------------


def integrate_fn_pullback(pairs: int, quadrature_order: int = 32) -> float:
    """Tensor Gauss-Legendre integral of the two-form pulled back to the
    cylinder chart over [0, pi] x [0, 2 pi] (the caps contribute zero; see
    cap_pullback_max)."""
    sphere = CapCylinderSphere(pairs)
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_order)
    t1 = 0.5 * math.pi * (nodes + 1.0)
    w1 = 0.5 * math.pi * weights
    t2 = math.pi * (nodes + 1.0)
    w2 = math.pi * weights
    g1, g2 = np.meshgrid(t1, t2, indexing="ij")
    base = sphere.cylinder_configuration(g1, g2)
    d1, d2 = sphere.cylinder_frames(g1, g2)
    values = omega_c_array(base, d1, d2)
    return float(np.einsum("i,j,ij->", w1, w2, values))


def cylinder_integrand(pairs: int, theta1: np.ndarray, theta2: np.ndarray
                       ) -> np.ndarray:
    """The pulled-back density on the cylinder chart (constant -1/2)."""
    sphere = CapCylinderSphere(pairs)
    base = sphere.cylinder_configuration(theta1, theta2)
    d1, d2 = sphere.cylinder_frames(theta1, theta2)
    return omega_c_array(base, d1, d2)


def _orthonormal_tangent_pair(
    a: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    u = random_coefficients(a, rng)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(a, u)


def cap_pullback_max(pairs: int, samples: int = 256, rng_seed: int = 0) -> float:
    """Max |pullback| of the form over random points of both caps (the
    claim under test is that it vanishes identically)."""
    sphere = CapCylinderSphere(pairs)
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for which in (1, 2):
        a = rng.normal(size=(samples, 3))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        u1, u2 = _orthonormal_tangent_pair(a, rng)
        base = sphere.cap_configuration(which, a)
        f1 = sphere.cap_frame(a, u1)
        f2 = sphere.cap_frame(a, u2)
        worst = max(worst, float(np.max(np.abs(omega_c_array(base, f1, f2)))))
    return worst


def adjacent_pair_pullback_max(
    sphere: AdjacentPairSphere, samples: int = 256, rng_seed: int = 0
) -> float:
    """Max |pullback| of the form over random points of an adjacent-pair
    sphere (vanishes identically)."""
    rng = np.random.default_rng(rng_seed)
    a = rng.normal(size=(samples, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    u1, u2 = _orthonormal_tangent_pair(a, rng)
    base = sphere.configuration(a)
    f1 = sphere.frame(a, u1)
    f2 = sphere.frame(a, u2)
    return float(np.max(np.abs(omega_c_array(base, f1, f2))))


# --- nondegeneracy on the product-one locus -------------------------------------


def nondegeneracy_rank(pts: np.ndarray) -> int:
    """Rank of the Gram matrix of the form in an orthonormal tangent basis
    at a product-one (m, 3) configuration; singular (all-collinear) points
    are rejected.  Expected value: twice the slot count."""
    if product_deviation(pts) > 1e-9:
        raise ValueError("configuration is not in the product-one locus")
    if is_singular_config(pts):
        raise ValueError("singular configuration: all points collinear")
    m = pts.shape[0]
    e1, e2 = tangent_basis(pts)
    slot = np.arange(m)
    frames = np.zeros((2 * m, m, 3))
    frames[2 * slot, slot] = e1
    frames[2 * slot + 1, slot] = e2
    gram = omega_c_array(
        np.broadcast_to(pts, (2 * m, 2 * m, m, 3)),
        np.broadcast_to(frames[:, None], (2 * m, 2 * m, m, 3)),
        np.broadcast_to(frames[None, :], (2 * m, 2 * m, m, 3)),
    )
    sv = np.linalg.svd(gram, compute_uv=False)
    return int(np.sum(sv > 1e-8))


def random_k_points(pairs: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random product-one configurations on 2n slots: the first 2n-2 points
    are uniform, the last two solve g_{2n-1} g_{2n} = h for the remaining
    unit quaternion h (always possible on the trace-free class)."""
    m = 2 * pairs
    out = np.zeros((count, m, 3))
    free = random_configurations(m - 2, count, rng)
    out[:, : m - 2] = free
    for s, acc in enumerate(slot_product(free)):
        # solve p q = h^{-1}: with h^{-1} = (cos phi, sin phi * axis),
        # take any p orthogonal to the axis and q = -cos phi p + sin phi (axis x p)
        h = acc.copy()
        h[1:] = -h[1:]
        cphi = h[0]
        vec = h[1:]
        s_norm = np.linalg.norm(vec)
        if s_norm < 1e-12:
            p = rng.normal(size=3)
            p /= np.linalg.norm(p)
            q = -cphi * p  # h = +-1: q = -+p
        else:
            axis = vec / s_norm
            p = rng.normal(size=3)
            p -= np.dot(p, axis) * axis
            p /= np.linalg.norm(p)
            q = -cphi * p + s_norm * np.cross(axis, p)
        out[s, m - 2] = p
        out[s, m - 1] = q
    return out


# --- the monotonicity constant ---------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    fn_integral: float
    chern_pairing: int
    ratio: float
    gamma_form_max: float
    gamma_chern_pairing: int


def monotonicity_ratio(pairs: int = 2, quadrature_order: int = 32
                       ) -> MonotonicityReport:
    """Ratio of the form's pairing with the cap-cylinder sphere to the
    first-Chern pairing (expected pi^2/2), with the adjacent-pair sphere's
    0/0 pair recorded rather than divided."""
    from .chern import chern_pairing

    fn_val = integrate_fn_pullback(pairs, quadrature_order)
    c1_val = chern_pairing(pairs)
    gamma = AdjacentPairSphere(slot=3, sign=1, pairs=pairs)
    gamma_form = adjacent_pair_pullback_max(gamma)
    return MonotonicityReport(
        fn_integral=fn_val,
        chern_pairing=c1_val,
        ratio=fn_val / c1_val,
        gamma_form_max=gamma_form,
        gamma_chern_pairing=0,
    )
