"""Numerical computation of the fixed-point variety of a braid action.

Pipeline: random seeds on the product of 2-spheres -> Levenberg-Marquardt
on the fixed-point equation act(w, g) - g = 0, with a per-seed adaptive
damping weight and the exact Jacobian in orthonormal tangent coordinates
-> Gauss-Newton polish to machine precision -> clustering into connected
components -> per-component dimension estimate and topology tag.

Clustering detail that matters: global conjugation (a rotation applied to
every slot) maps solutions to solutions, so each component is a union of
rotation orbits and is sampled extremely sparsely in ambient coordinates.
Components are therefore linked in a rotation-invariant embedding (pairwise
dot products plus signed triple volumes), where 2- and 3-dimensional
components collapse to single points and the union-find radius is
meaningful.  Dimensions are still estimated in ambient coordinates, from
dedicated local samples regenerated around each representative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .braid import (
    BraidWord,
    Configuration,
    act_array,
    generator_step,
    project_coefficient,
    random_configurations,
    tangent_basis,
)
from .su2 import InternalError, circle_point, reflect

SINGULAR_TOL = 1e-9
ABELIAN_TOL = 1e-6
# Perturbation radius for local dimension samples.  It sits in the window
# where both error sources stay below the PCA threshold band: the
# Gauss-Newton re-convergence floor (~1e-8 absolute, so scale >> 3e-5) and
# the curvature sagitta of a unit-radius patch (~scale/2, so scale << 6e-4).
RESAMPLE_SCALE = 2e-4


@dataclass(frozen=True)
class SolverConfig:
    seeds: int = 1536
    rng_seed: int = 0
    descent_tol: float = 1e-12
    max_iters: int = 250
    link_radius: float = 0.15
    pca_threshold: float = 1e-3
    samples_per_component: int = 48


TOPOLOGY_TAGS = ("S2", "RP3", "PRODUCT_RP3_S1", "UNKNOWN")
# Rational cohomology rank of a component by tag: S2 and RP3 each have one
# class in degree 0 and one on top; RP3 x S1 has Poincare polynomial
# (1 + t^3)(1 + t).  An UNKNOWN component has no rank.
TAG_RATIONAL_RANK = {"S2": 2, "RP3": 2, "PRODUCT_RP3_S1": 4}


def variety_rank(tags: Iterable[str]) -> int | None:
    """Rational cohomology rank of a variety from its components' topology
    tags, or None when any component is UNKNOWN."""
    ranks = [TAG_RATIONAL_RANK.get(tag) for tag in tags]
    return None if None in ranks else sum(ranks)


@dataclass(frozen=True)
class ComponentReport:
    id: int
    representative: Configuration
    sample_count: int
    est_dimension: int
    topology_tag: str
    is_binary_dihedral: bool
    is_abelian: bool
    residual: float


@dataclass(frozen=True)
class SolveReport:
    word: BraidWord
    components: tuple[ComponentReport, ...]
    seeds_total: int
    seeds_converged: int
    full_variety: bool = False
    note: str = ""


# --- residual, Jacobian, Gauss-Newton ---------------------------------------


def residual_array(word: BraidWord, pts: np.ndarray) -> np.ndarray:
    """Chordal fixed-point residual sum_i |act(w,g)_i - g_i|^2 per seed."""
    diff = act_array(word, pts) - pts
    return np.sum(diff * diff, axis=(-2, -1))


def _jvp(k, state, vel):
    """One letter's ambient differential (forward mode)."""
    i = abs(k) - 1
    a = state[..., i, :]
    b = state[..., i + 1, :]
    va = vel[..., i, :]
    vb = vel[..., i + 1, :]
    out = vel.copy()
    ab = np.sum(a * b, axis=-1, keepdims=True)
    if k > 0:
        bva = np.sum(b * va, axis=-1, keepdims=True)
        avb = np.sum(a * vb, axis=-1, keepdims=True)
        out[..., i, :] = 2.0 * bva * a + 2.0 * ab * va + 2.0 * avb * a - vb
        out[..., i + 1, :] = va
    else:
        bva = np.sum(b * va, axis=-1, keepdims=True)
        avb = np.sum(a * vb, axis=-1, keepdims=True)
        out[..., i, :] = vb
        out[..., i + 1, :] = 2.0 * avb * b + 2.0 * ab * vb + 2.0 * bva * b - va
    return out


def _normalize(pts):
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


def _tangent_jacobian(word, pts, e1, e2):
    """Jacobian of g -> act(g) - g in the orthonormal tangent frames,
    shape (S, 3n, 2n); column m is the image of frame vector m."""
    S, n, _ = pts.shape
    app = list(reversed(word.letters))
    cols = []
    for m in range(2 * n):
        basis = np.zeros_like(pts)
        slot, which = divmod(m, 2)
        basis[:, slot, :] = e1[:, slot, :] if which == 0 else e2[:, slot, :]
        v = basis
        state = pts
        for k in app:
            v = _jvp(k, state, v)
            state = generator_step(k, state)
        cols.append((v - basis).reshape(S, 3 * n))
    return np.stack(cols, axis=-1)


def _apply_tangent_step(pts, x, e1, e2):
    move = x[:, 0::2, None] * e1 + x[:, 1::2, None] * e2
    return _normalize(pts + move)


def _gauss_newton(word, pts, iters=12, damping=None):
    """Least-squares Newton steps on F(g) - g = 0 in tangent coordinates.

    With `damping` set (a fraction of the top singular value), steps use a
    damped solve instead of a pseudoinverse.  Near a point where the
    linearization has extra near-null directions, plain pinv amplifies the
    residual along them by 1/sv and the iterate slides far along the
    solution set; damping caps that gain at 1/(2*lambda)."""
    for _ in range(iters):
        e1, e2 = tangent_basis(pts)
        A = _tangent_jacobian(word, pts, e1, e2)
        b = -(act_array(word, pts) - pts).reshape(len(pts), -1)
        if damping is None:
            x = np.einsum("sij,sj->si", np.linalg.pinv(A, rcond=1e-8), b)
        else:
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
            lam = damping * s[:, :1]
            gain = s / (s**2 + lam**2)
            x = np.einsum(
                "sji,sj->si", Vt, gain * np.einsum("sji,sj->si", U, b)
            )
        pts = _apply_tangent_step(pts, x, e1, e2)
    return pts


def _levenberg(word, pts, tol, max_iters):
    """Seed convergence: Levenberg-Marquardt with a per-seed adaptive
    damping weight.  Robust from random starts where an undamped step
    overshoots and plain gradient descent crawls along curved valleys."""
    r = residual_array(word, pts)
    lam = np.full(len(pts), 0.1)
    for _ in range(max_iters):
        live = (r >= tol) & (lam < 1e3)
        if not live.any():
            break
        e1, e2 = tangent_basis(pts)
        A = _tangent_jacobian(word, pts, e1, e2)
        b = -(act_array(word, pts) - pts).reshape(len(pts), -1)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        gain = s / (s**2 + lam[:, None] ** 2)
        x = np.einsum("sji,sj->si", Vt, gain * np.einsum("sji,sj->si", U, b))
        cand = _apply_tangent_step(pts, x, e1, e2)
        rc = residual_array(word, cand)
        accept = (rc < r) & live
        pts = np.where(accept[:, None, None], cand, pts)
        r = np.where(accept, rc, r)
        lam = np.where(accept, np.maximum(lam * 0.5, 1e-9), lam)
        lam = np.where(live & ~accept, lam * 4.0, lam)
    return pts, r


# --- rotation-invariant embedding and clustering ----------------------------


def invariant_features(pts: np.ndarray) -> np.ndarray:
    """Pairwise dot products and signed triple volumes: a complete invariant
    of a configuration up to global rotation (the triple signs separate
    mirror pairs, which really are different components)."""
    single = pts.ndim == 2
    if single:
        pts = pts[None, ...]
    n = pts.shape[-2]
    feats = []
    for i, j in combinations(range(n), 2):
        feats.append(np.sum(pts[..., i, :] * pts[..., j, :], axis=-1))
    for i, j, k in combinations(range(n), 3):
        cross = np.cross(pts[..., i, :], pts[..., j, :])
        feats.append(np.sum(cross * pts[..., k, :], axis=-1))
    out = np.stack(feats, axis=-1)
    return out[0] if single else out


class _DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def cluster_indices(features: np.ndarray, link_radius: float) -> list[np.ndarray]:
    """Union-find linking at link_radius; input order must already be
    deterministic (callers sort lexicographically first)."""
    S = len(features)
    dsu = _DSU(S)
    block = 512
    for lo in range(0, S, block):
        hi = min(lo + block, S)
        diff = features[lo:hi, None, :] - features[None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        pairs = np.argwhere(dist2 <= link_radius**2)
        for a, b in pairs:
            dsu.union(lo + int(a), int(b))
    groups: dict[int, list[int]] = {}
    for s in range(S):
        groups.setdefault(dsu.find(s), []).append(s)
    return [np.array(v) for _, v in sorted(groups.items())]


# --- per-configuration predicates --------------------------------------------


def is_singular_config(pts: np.ndarray, tol: float = SINGULAR_TOL) -> bool:
    """True when every coordinate of an (n, 3) configuration is +- one common
    class point (the abelian, singular locus of the total space)."""
    dots = pts @ pts.T
    return bool(np.all(np.abs(np.abs(dots) - 1.0) <= tol))


def _is_binary_dihedral(pts: np.ndarray, tol: float = ABELIAN_TOL) -> bool:
    """True when some axis e has every coordinate at +-e or orthogonal to e
    (i.e. the configuration lies in one circle-pair after a rotation)."""
    sv = np.linalg.svd(pts, compute_uv=False)
    # all coordinates on one great circle (plane through the origin); with
    # fewer than three strands this is automatic
    if len(sv) < 3 or sv[2] <= tol:
        return True
    for i in range(len(pts)):
        d = np.abs(pts @ pts[i])
        if np.all((d >= 1.0 - tol) | (d <= tol)):
            return True
    return False


# --- the solver ---------------------------------------------------------------


def _resample_component(word, rep, count, rng, tol):
    """Local solution samples around a representative: tangent perturbation
    at a tiny scale, re-converged by Gauss-Newton.  Used for PCA only.

    Samples that Gauss-Newton carried far from the representative are
    dropped: a near-singular least-squares step can slide a long way
    *within* the solution set, and a distant sample turns the flat local
    patch into a visibly curved one, inflating the dimension estimate."""
    pts = np.repeat(rep[None, :, :], count, axis=0)
    noise = rng.normal(size=pts.shape) * RESAMPLE_SCALE
    pts = _normalize(pts + project_coefficient(pts, noise))
    pts = _gauss_newton(word, pts, iters=8, damping=1e-4)
    r = residual_array(word, pts)
    dist = np.linalg.norm((pts - rep[None]).reshape(count, -1), axis=1)
    return pts[(r < tol) & (dist < 6.0 * RESAMPLE_SCALE)]


def _estimate_dimension(samples: np.ndarray, threshold: float) -> tuple[int, bool]:
    """(dimension, tie_flag) from the singular values of centered samples."""
    centered = samples - samples.mean(axis=0, keepdims=True)
    flat = centered.reshape(len(samples), -1)
    sv = np.linalg.svd(flat, compute_uv=False)
    if sv[0] == 0.0:
        return 0, False
    ratios = sv / sv[0]
    dim = int(np.sum(ratios > threshold))
    tie = bool(np.any((ratios > threshold / 3.0) & (ratios < threshold * 3.0)))
    return dim, tie


def _topology_tag(dim: int, tie: bool, abelian: bool) -> str:
    if tie:
        return "UNKNOWN"
    if dim == 2 and abelian:
        return "S2"
    if dim == 3:
        return "RP3"
    if dim == 4:
        return "PRODUCT_RP3_S1"
    return "UNKNOWN"


def solve(word: BraidWord, config: SolverConfig = SolverConfig()) -> SolveReport:
    rng = np.random.default_rng(config.rng_seed)
    n = word.strands

    # A word that fixes independent random configurations acts trivially:
    # its variety is the whole product of spheres, and clustering noise
    # would be meaningless.  Refuse with the full-variety report.
    probe = random_configurations(n, 3, rng)
    if np.all(residual_array(word, probe) < 1e-20):
        return SolveReport(
            word=word,
            components=(),
            seeds_total=0,
            seeds_converged=0,
            full_variety=True,
            note="word acts trivially; the variety is the full product of spheres",
        )

    pts = random_configurations(n, config.seeds, rng)
    pts, r = _levenberg(word, pts, 1e-9, config.max_iters)
    rough = pts[r < 1e-9]
    if len(rough) == 0:
        return SolveReport(word, (), config.seeds, 0, note="no seeds converged")
    polished = _gauss_newton(word, rough)
    rr = residual_array(word, polished)
    survivors = polished[rr < config.descent_tol]
    if len(survivors) == 0:
        return SolveReport(word, (), config.seeds, 0, note="no seeds converged")

    feats = invariant_features(survivors)
    order = np.lexsort(feats.T[::-1])  # deterministic merge order
    survivors = survivors[order]
    feats = feats[order]
    clusters = cluster_indices(feats, config.link_radius)

    reports = []
    for cid, idx in enumerate(clusters):
        cpts = survivors[idx]
        cfeats = feats[idx]
        # densest point as representative (feature-space neighbor count)
        diff = cfeats[:, None, :] - cfeats[None, :, :]
        density = np.sum(
            np.sum(diff * diff, axis=-1) <= (2.0 * config.link_radius) ** 2, axis=1
        )
        rep = cpts[int(np.argmax(density))]
        rep_res = float(residual_array(word, rep[None])[0])
        if rep_res >= config.descent_tol:
            raise InternalError(
                f"cluster representative fails re-verification: {rep_res:.3e}"
            )
        local = _resample_component(
            word, rep, config.samples_per_component, rng, config.descent_tol
        )
        if len(local) < max(8, len(rep) + 1):
            dim, tie = 0, True
        else:
            dim, tie = _estimate_dimension(local, config.pca_threshold)
        abelian = is_singular_config(rep, ABELIAN_TOL) and all(
            is_singular_config(p, ABELIAN_TOL) for p in local[:8]
        )
        dihedral = _is_binary_dihedral(rep) and all(
            _is_binary_dihedral(p) for p in local[:8]
        )
        reports.append(
            ComponentReport(
                id=cid,
                representative=Configuration.from_array(rep),
                sample_count=int(len(idx)),
                est_dimension=dim,
                topology_tag=_topology_tag(dim, tie, abelian),
                is_binary_dihedral=bool(dihedral),
                is_abelian=bool(abelian),
                residual=rep_res,
            )
        )
    return SolveReport(
        word=word,
        components=tuple(reports),
        seeds_total=config.seeds,
        seeds_converged=int(len(survivors)),
    )


# --- reference predictions ----------------------------------------------------


@dataclass(frozen=True)
class PredictedComponent:
    topology_tag: str
    est_dimension: int
    angle: float | None = None


def torus_components(n: int) -> tuple[PredictedComponent, ...]:
    """Component census for the (2, n) torus link (closure of the 2-strand
    word with n positive letters): the diagonal sphere, the antidiagonal
    sphere when n is even, and floor((n-1)/2) three-manifolds, one per
    fixed angle 2*pi*j/n between the two coordinates."""
    if n < 1:
        raise ValueError("need at least one crossing")
    out = [PredictedComponent("S2", 2, 0.0)]
    if n % 2 == 0:
        out.append(PredictedComponent("S2", 2, math.pi))
    for j in range(1, (n - 1) // 2 + 1):
        out.append(PredictedComponent("RP3", 3, 2.0 * math.pi * j / n))
    return tuple(out)


# --- the exact crossing-equation cases for the 8-component knot ---------------
#
# The three conjugation equations come from a 9-crossing diagram whose arcs
# reduce to three unknown class points a, b, c; x(y) below is conjugation,
# i.e. the half-turn of y about x.  The solution set splits into the
# diagonal sphere, a pentagonal family (angle pi/5 type) with the third
# point off the great circle, and a heptagonal family (angle 2*pi/7 type)
# with all three points on one great circle.


def _crossing_residual(a, b, c) -> float:
    r = reflect
    eq1 = r(c, r(b, r(a, b))) - r(a, r(b, a))
    eq2 = r(a, r(b, r(a, r(b, a)))) - r(c, r(b, c))
    eq3 = r(c, r(b, r(c, b))) - r(a, r(b, r(a, r(b, r(a, c)))))
    return float(
        np.linalg.norm(eq1) ** 2 + np.linalg.norm(eq2) ** 2 + np.linalg.norm(eq3) ** 2
    )


@dataclass(frozen=True)
class AngleCaseSolution:
    case: str
    parameters: dict
    a: tuple[float, float, float]
    b: tuple[float, float, float]
    c: tuple[float, float, float]
    residual: float
    triple_volume: float


def angle_case_9_42() -> tuple[AngleCaseSolution, ...]:
    """Exact representatives of every solution family of the three crossing
    equations: the diagonal point, the four pentagonal solutions (two angles
    times two mirror choices of c, separated by the sign of det(a,b,c)),
    and the three heptagonal ones."""
    sols = []

    a = circle_point(0.0)
    sols.append(
        AngleCaseSolution(
            "diagonal",
            {},
            tuple(a),
            tuple(a),
            tuple(a),
            _crossing_residual(a, a, a),
            0.0,
        )
    )

    # pentagonal: b at angle t from a with 5t + pi = 0 mod 2pi; c off the
    # circle, orthogonal to the point at -2t, at distance pi/3 from b.
    for t in (math.pi / 5.0, 3.0 * math.pi / 5.0):
        b = circle_point(t)
        alpha = circle_point(-2.0 * t)
        v1 = b - np.dot(b, alpha) * alpha
        v1 = v1 / np.linalg.norm(v1)
        v2 = np.cross(alpha, v1)
        cos_psi = 0.5 / np.dot(b, v1)
        sin_psi = math.sqrt(1.0 - cos_psi**2)
        for sign in (+1.0, -1.0):
            c = cos_psi * v1 + sign * sin_psi * v2
            sols.append(
                AngleCaseSolution(
                    "pentagonal",
                    {"angle": t, "mirror": int(sign)},
                    tuple(a),
                    tuple(b),
                    tuple(c),
                    _crossing_residual(a, b, c),
                    float(np.dot(np.cross(a, b), c)),
                )
            )

    # heptagonal: all three on one great circle, c at angle v from a and
    # b at 2v, with 7v = 0 mod 2pi.
    for k in (1, 2, 3):
        v = 2.0 * math.pi * k / 7.0
        b = circle_point(2.0 * v)
        c = circle_point(v)
        sols.append(
            AngleCaseSolution(
                "heptagonal",
                {"angle": v},
                tuple(a),
                tuple(b),
                tuple(c),
                _crossing_residual(a, b, c),
                float(np.dot(np.cross(a, b), c)),
            )
        )
    return tuple(sols)
