"""The closed two-form on configurations of trace-free classes.

On a tuple (g_1, ..., g_m) of points of the trace-free class, tangent
vectors are stored as one coefficient per slot (velocity = X . g, see
`repvar.braid`).  The two-form pairs the left Maurer-Cartan value of
each partial product g_1 ... g_j against the coefficient of slot j+1 and
sums with a global minus sign.  This module evaluates the form, checks the
properties that make it usable (braid invariance, vanishing on the
mirrored-tuple submanifold and its braid images, nondegeneracy on the
product-one locus), and computes its pairing with the two standard test
spheres, whose ratio against the first-Chern pairing (measured by
`repvar.chern` and passed in) is the monotonicity constant pi^2/2.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .braid import (
    BraidWord,
    differential_arrays,
    is_singular_config,
    random_configurations,
    tangent_basis,
    tangent_frames,
)
from .su2 import cross, reflect, slot_product


# --- evaluation ---------------------------------------------------------------


def omega_c_array(base: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The full form: minus the sum of all partial pairings (batched).

    The j-th partial pairing, 1 <= j <= m-1, is
    (1/2) [ S_j(X) . Y_{j+1}  -  S_j(Y) . X_{j+1} ]  where
    S_j(X) = sum_{i<=j} Ad((g_i ... g_j)^{-1}) X_i is the left
    Maurer-Cartan value of the partial product map.  Conjugation by a
    trace-free class point is the half-turn 2 (g . v) g - v about it, so
    S_j follows from S_{j-1} by one reflection.

    The loop runs over slot-major, component-major views (one transpose
    each), and each dot product is the explicit sum u0 v0 + u1 v1 + u2 v2:
    the rounding order of ``np.sum(u * v, axis=-1)`` without its reduction
    overhead.
    """
    g, u, v = (a.transpose(-2, -1, *range(a.ndim - 2)) for a in (base, x, y))
    sx = sy = (0.0, 0.0, 0.0)
    total = np.zeros(base.shape[:-2])
    for j in range(1, g.shape[0]):
        p = g[j - 1]
        ax = [sx[c] + u[j - 1, c] for c in range(3)]
        ay = [sy[c] + v[j - 1, c] for c in range(3)]
        dx = 2.0 * (p[0] * ax[0] + p[1] * ax[1] + p[2] * ax[2])
        dy = 2.0 * (p[0] * ay[0] + p[1] * ay[1] + p[2] * ay[2])
        sx = [dx * p[c] - ax[c] for c in range(3)]
        sy = [dy * p[c] - ay[c] for c in range(3)]
        total = total + 0.5 * (
            (sx[0] * v[j, 0] + sx[1] * v[j, 1] + sx[2] * v[j, 2])
            - (sy[0] * u[j, 0] + sy[1] * u[j, 1] + sy[2] * u[j, 2]))
    return -total


# --- braid invariance ---------------------------------------------------------


def random_coefficients(pts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal coefficients projected to tangency (X . p = 0)."""
    raw = rng.normal(size=pts.shape)
    return raw - np.sum(raw * pts, axis=-1, keepdims=True) * pts


def check_braid_invariance(
    word: BraidWord, trials: int = 1000, rng_seed: int = 0
) -> float:
    """Max |omega_c_array(dw X, dw Y) - omega_c_array(X, Y)| over random pairs at
    random configurations (the whole product, not only the product-one
    locus)."""
    rng = np.random.default_rng(rng_seed)
    base = random_configurations(word.strands, trials, rng)
    x = random_coefficients(base, rng)
    y = random_coefficients(base, rng)
    before = omega_c_array(base, x, y)
    moved, pushed = differential_arrays(word, base, np.stack([x, y]))
    after = omega_c_array(moved, *pushed)
    return float(np.max(np.abs(after - before)))


# --- the mirrored-tuple submanifold -------------------------------------------


def lagrangian_tangent_arrays(
    half: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent frames to the mirrored-tuple submanifold, batched.

    half: (..., n, 3) base points; coeffs: (..., n, 3) tangent coefficients
    at them, or a stack of frames that broadcasts against them (the base is
    built from ``half`` alone).  Slot i of the result carries X_i; the
    mirror slot 2n+1-i carries -Ad(p_i^{-1}) X_i at base -p_i.
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
    base, frames = lagrangian_tangent_arrays(half, np.stack([cx, cy]))
    moved, pushed = differential_arrays(word, base, frames)
    return float(np.max(np.abs(omega_c_array(moved, *pushed))))


# --- test spheres ---------------------------------------------------------------


def _doubled_point_frame(a: np.ndarray, velocity: np.ndarray, slot: int,
                         slots: int) -> np.ndarray:
    """Pushforward of an ambient velocity u at a point A doubled (up to sign)
    at 0-based `slot` and `slot + 1`: both slots carry A x u."""
    coeff = cross(np.asarray(a, dtype=float), np.asarray(velocity, dtype=float))
    out = np.zeros(coeff.shape[:-1] + (slots, 3))
    out[..., slot:slot + 2, :] = coeff[..., None, :]
    return out


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
        """Coefficient frame of the pushforward of an ambient velocity at A."""
        return _doubled_point_frame(a, velocity, self.slot - 1, 2 * self.pairs)


@dataclass(frozen=True)
class CapCylinderSphere:
    """The degree-one test sphere: two hemispherical caps where a single
    doubled point moves, glued to a two-angle cylinder chart."""

    pairs: int  # n >= 2; configurations have 2n slots

    def __post_init__(self):
        if self.pairs < 2:
            raise ValueError("need at least two pairs")

    def _chart(self, shape: tuple[int, ...]) -> np.ndarray:
        """A zeroed (..., 2n, 3) configuration array holding the slots all
        three charts share: J at slot 2 and, from slot 5 on, J with
        alternating signs, starting negative."""
        out = np.zeros(shape + (2 * self.pairs, 3))
        out[..., 1, 0] = 1.0
        out[..., 4::2, 0] = -1.0
        out[..., 5::2, 0] = 1.0
        return out

    def cap_configuration(self, which: int, a: np.ndarray) -> np.ndarray:
        """Chart 1: (J, J, A, A, ...); chart 2: (-J, J, A, -A, ...)."""
        if which not in (1, 2):
            raise ValueError("cap index must be 1 or 2")
        a = np.asarray(a, dtype=float)
        out = self._chart(a.shape[:-1])
        out[..., 0, 0] = 1.0 if which == 1 else -1.0
        out[..., 2, :] = a
        out[..., 3, :] = a if which == 1 else -a
        return out

    def cap_frame(self, a: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        """Pushforward of an ambient velocity at A on either cap: moving
        slots 3 and 4 both carry coefficient A x u."""
        return _doubled_point_frame(a, velocity, 2, 2 * self.pairs)

    def cylinder_configuration(
        self, theta1: np.ndarray, theta2: np.ndarray
    ) -> np.ndarray:
        """Chart 3: (A_t1, J, A_t2, A_{t1+t2}, ...) with A_t on the circle
        through the first two coordinate axes."""
        theta1 = np.asarray(theta1, dtype=float)
        theta2 = np.asarray(theta2, dtype=float)
        theta12 = theta1 + theta2
        out = self._chart(theta12.shape)
        for slot, theta in ((0, theta1), (2, theta2), (3, theta12)):
            out[..., slot, 0] = np.cos(theta)
            out[..., slot, 1] = np.sin(theta)
        return out

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
        d1[..., 0:4:3, 2] = 1.0
        d2[..., 2:4, 2] = 1.0
        return d1, d2


def product_deviation(pts: np.ndarray) -> np.ndarray:
    """Distance of the slot product from the identity quaternion, batched."""
    acc = slot_product(pts)
    acc[..., 0] -= 1.0
    return np.linalg.norm(acc, axis=-1)


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
    frames = tangent_frames(*tangent_basis(pts))
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
    free = random_configurations(m - 2, count, rng)
    # solve p q = h^{-1} for the product h of the free slots: with
    # h^{-1} = (cos phi, sin phi * axis), take p orthogonal to the axis and
    # q = -cos phi p + sin phi (axis x p); at h = +-1 any axis will do
    inv = slot_product(free) * [1.0, -1.0, -1.0, -1.0]
    sin_phi = np.linalg.norm(inv[:, 1:], axis=-1, keepdims=True)
    flat = sin_phi < 1e-12
    axis = np.where(flat, [1.0, 0.0, 0.0], inv[:, 1:] / np.maximum(sin_phi, 1e-12))
    p = rng.normal(size=(count, 3))
    p -= np.sum(p * axis, axis=-1, keepdims=True) * axis
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    q = -inv[:, :1] * p + np.where(flat, 0.0, sin_phi) * cross(axis, p)
    return np.concatenate([free, p[:, None], q[:, None]], axis=1)


# --- the monotonicity constant ---------------------------------------------------


SPHERE_SAMPLES = 256  # lattice points per sphere chart


def _sphere_points(samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test points A on a sphere chart, each with an orthonormal tangent pair
    (u, A x u), as (samples, 3) arrays.

    The points are a golden-angle spiral lattice over the whole sphere:
    point i sits at height z = 1 - (2i + 1) / samples and longitude i times
    the golden angle, and u is the unit eastward direction there.
    """
    i = np.arange(samples)
    z = 1.0 - (2.0 * i + 1.0) / samples
    r = np.sqrt(1.0 - z * z)
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    a = np.stack([r * cos_phi, r * sin_phi, z], axis=-1)
    u = np.stack([-sin_phi, cos_phi, np.zeros(samples)], axis=-1)
    return a, u, cross(a, u)


@functools.cache
def _monotone_stack(pairs: int, order: int) -> tuple[np.ndarray, ...]:
    """Every chart `monotonicity_ratio` evaluates the form on, stacked in
    this order: the cylinder chart over [0, pi] x [0, 2 pi] at the tensor
    Gauss-Legendre nodes (order ** 2 of them, node (i, j) at i * order + j),
    both caps, cap 1 first, and the adjacent-pair sphere at slot 3, sign +1
    (SPHERE_SAMPLES lattice points each, carrying the tangent pair
    (u, A x u)), as one (points, slots, 3) array of configurations and one
    of each frame; then the cylinder's weights along each angle.

    The charts are inputs to the integral and the maxima, not measurements,
    so the stack is built on first use once per key for the life of the
    process and is read-only; every call evaluates the form on it afresh.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t1 = np.repeat(0.5 * math.pi * (nodes + 1.0), order)
    t2 = np.tile(math.pi * (nodes + 1.0), order)
    sphere = CapCylinderSphere(pairs)
    adjacent = AdjacentPairSphere(3, 1, pairs)
    a, u, v = _sphere_points(SPHERE_SAMPLES)
    charts = (
        (sphere.cylinder_configuration(t1, t2), *sphere.cylinder_frames(t1, t2)),
        *((sphere.cap_configuration(which, a), sphere.cap_frame(a, u),
           sphere.cap_frame(a, v)) for which in (1, 2)),
        (adjacent.configuration(a), adjacent.frame(a, u), adjacent.frame(a, v)),
    )
    # slot-major, component-major in memory, so that the views the form
    # loops over are contiguous
    stack = (*(np.ascontiguousarray(np.concatenate(parts).transpose(1, 2, 0))
               .transpose(2, 0, 1) for parts in zip(*charts)),
             0.5 * math.pi * weights, math.pi * weights)
    for arr in stack:
        arr.setflags(write=False)
    return stack


@dataclass(frozen=True)
class MonotonicityReport:
    """The form's pairing with the cap-cylinder sphere (``fn_integral``), the
    first-Chern pairing it is divided by and their ratio, and the largest
    |form| on the sphere's two caps (``cap_form_max``) and on the
    adjacent-pair sphere (``gamma_form_max``), where it vanishes."""

    fn_integral: float
    chern_pairing: int
    ratio: float
    gamma_form_max: float
    cap_form_max: float


def monotonicity_ratio(c1: int, pairs: int = 2,
                       quadrature_order: int = 32) -> MonotonicityReport:
    """Ratio of the form's pairing with the cap-cylinder sphere to its
    first-Chern pairing ``c1`` (expected pi^2/2), and the largest values of
    the form on the sphere's caps and on the adjacent-pair sphere (slot 3,
    sign +1), where the form vanishes, so there is no ratio to take.

    The one evaluation of the form, over the charts `_monotone_stack`
    stacks: the integral is the tensor Gauss-Legendre sum over the cylinder
    chart's slice (the caps contribute nothing), and each maximum is read
    off its sphere's slice.  Each value equals what the form gives on its
    chart alone.
    """
    base, x, y, w1, w2 = _monotone_stack(pairs, quadrature_order)
    values = omega_c_array(base, x, y)
    grid = quadrature_order ** 2
    caps = grid + 2 * SPHERE_SAMPLES
    fn_val = float(np.einsum("i,j,ij->", w1, w2,
                             values[:grid].reshape(len(w1), -1)))
    return MonotonicityReport(
        fn_integral=fn_val,
        chern_pairing=c1,
        ratio=fn_val / c1,
        gamma_form_max=float(np.max(np.abs(values[caps:]))),
        cap_form_max=float(np.max(np.abs(values[grid:caps]))),
    )
