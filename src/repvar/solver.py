"""Numerical computation of the fixed-point variety of a braid action.

Pipeline: random seeds on the product of 2-spheres, the first few moved
onto exact abelian fixed points -> Levenberg-Marquardt
on the fixed-point equation act(w, g) - g = 0, with a per-seed adaptive
damping weight and the exact Jacobian in orthonormal tangent coordinates,
run on each seed until its residual is at rounding level (as the damping
falls, the step becomes the Gauss-Newton step, so the same loop polishes)
-> orbit groups from one sweep along the first invariant -> dimension and
topology tag per component.  Groups, their representatives (each group's
first sample) and the component ids follow the order the seeds were drawn
in, so a knot's planted abelian S2 is component 0.  The equation has one
home, the value `FixedPointEquation` built from the word: its residual and
its Jacobian are all that the descent, the loop tracer and the tags read of
the word.  The Jacobian is the action's one differential,
`braid.differential_arrays`, carrying all 2n tangent frames in one sweep.

Grouping detail that matters: global conjugation (a rotation applied to
every slot) maps solutions to solutions, so each component is a union of
rotation orbits and is sampled extremely sparsely in ambient coordinates.
Seeds are therefore compared in a rotation-invariant embedding (pairwise
dot products plus signed triple volumes), where each orbit is one point.
Only a seed the descent polished to rounding level (POLISH_TOL) is a
sample, and two samples are grouped when their invariants agree within
sqrt(DESCENT_TOL), i.e. when they lie on one orbit.  The residual bounds a
sample's distance to the variety only up to a factor 1/sigma_min, the
smallest nonzero singular value of the fixed-point Jacobian there, so a
seed kept at a looser residual can sit outside the radius of its own orbit
and make a group of its own.  A component's dimension is not estimated
from samples: it is the nullity of the fixed-point Jacobian at the group's
first seed, read off a clean gap in its singular values.  On a nonabelian
point a nullity of 4 is one direction more than the orbit; that direction
is traced, and only a loop that closes makes the groups along it one
RP3 x S1 component.
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
    closure_cycles,
    differential_arrays,
    is_singular_config,
    normalize,
    random_configurations,
    tangent_basis,
    tangent_frames,
)
from .su2 import cross

ABELIAN_TOL = 1e-6
MAX_ITERS = 250  # Levenberg-Marquardt iterations per solve
# Relative singular value of the fixed-point Jacobian below which a tangent
# direction counts as null.  A tag also needs a clean gap: no relative
# singular value within a factor 100 of it.
NULL_TOL = 1e-6
# The square of the grouping radius, and the residual that each step of the
# loop tracer must stay below.
DESCENT_TOL = 1e-12
# Residual (a squared distance) at which the descent stops, and which a seed
# must reach to be a sample.  It bounds the distance to the variety by
# 1e-12 / sigma_min: the invariants of a sample are good to that, inside the
# grouping radius sqrt(DESCENT_TOL) wherever sigma_min > 1e-6, and its null
# singular values sit far below the clean-gap floor NULL_TOL / 100.
POLISH_TOL = DESCENT_TOL ** 2
LOOP_STEP = 0.02  # tangent step of the RP3 x S1 loop tracer
LOOP_MAX_STEPS = 2000


@dataclass(frozen=True)
class SolverConfig:
    seeds: int = 1536
    rng_seed: int = 0


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
    # largest relative singular value counted as zero and smallest counted
    # as nonzero (None where no value is on that side)
    null_gap: tuple[float | None, float | None]
    # samples that `solve` planted on the abelian locus rather than found
    seeded_samples: int = 0


@dataclass(frozen=True)
class SolveReport:
    word: BraidWord
    components: tuple[ComponentReport, ...]
    seeds_total: int
    seeds_converged: int
    full_variety: bool = False
    note: str = ""


# --- residual, Jacobian, descent ---------------------------------------------


def residual_array(word: BraidWord, pts: np.ndarray) -> np.ndarray:
    """Chordal fixed-point residual sum_i |act(w,g)_i - g_i|^2 per seed."""
    diff = act_array(word, pts) - pts
    return np.sum(diff * diff, axis=(-2, -1))


@dataclass(frozen=True)
class FixedPointEquation:
    """The fixed-point equation act(w, g) - g = 0 of a braid word: the one
    system the descent, the loop tracer and the tags solve."""

    word: BraidWord

    def residual(self, pts: np.ndarray) -> np.ndarray:
        """Squared residual per seed (`residual_array`)."""
        return residual_array(self.word, pts)

    def jacobian(self, pts, e1, e2):
        """Jacobian of g -> act(g) - g in the orthonormal tangent frames,
        shape (S, 3n, 2n), and the residual vector act(g) - g, shape
        (S, 3n).  The 2n one-slot frames ride one `differential_arrays`
        sweep as coefficients p x v, and the pushed coefficients X read back
        as velocities X x p; column m is the pushed frame m minus frame m."""
        S, n, _ = pts.shape
        frames = tangent_frames(e1, e2)
        image, coeffs = differential_arrays(self.word, pts, cross(pts, frames))
        vel = cross(coeffs, image)
        jac = np.moveaxis((vel - frames).reshape(2 * n, S, 3 * n), 0, -1)
        return jac, (image - pts).reshape(S, -1)


def _apply_tangent_step(pts, x, e1, e2):
    move = x[:, 0::2, None] * e1 + x[:, 1::2, None] * e2
    return normalize(pts + move)


def _levenberg(system: FixedPointEquation, pts):
    """Seed convergence and polish: Levenberg-Marquardt with a per-seed
    adaptive damping weight, each iteration on the live seeds only (residual
    at or above POLISH_TOL, damping below its cap).  Robust from random
    starts where an undamped step overshoots and plain gradient descent
    crawls along curved valleys; as the damping falls to its floor the step
    becomes the Gauss-Newton step, which takes a converging seed on to
    rounding level.  Returns new points and their residuals."""
    pts = pts.copy()
    r = system.residual(pts)
    lam = np.full(len(pts), 0.1)
    for _ in range(MAX_ITERS):
        live = np.flatnonzero((r >= POLISH_TOL) & (lam < 1e3))
        if len(live) == 0:
            break
        at = pts[live]
        e1, e2 = tangent_basis(at)
        A, f = system.jacobian(at, e1, e2)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        gain = s / (s**2 + lam[live, None] ** 2)
        x = np.einsum("sji,sj->si", Vt, gain * np.einsum("sji,sj->si", U, -f))
        cand = _apply_tangent_step(at, x, e1, e2)
        rc = system.residual(cand)
        accept = rc < r[live]
        pts[live[accept]] = cand[accept]
        r[live[accept]] = rc[accept]
        lam[live] = np.where(accept, np.maximum(lam[live] * 0.5, 1e-9), lam[live] * 4.0)
    return pts, r


def _plant_abelian(word: BraidWord, pts: np.ndarray) -> int:
    """Overwrite the first rows of the seed batch ``pts``, in place, with
    exact abelian fixed points, and return how many.

    Row r keeps its first slot p and puts +-p in every slot, one sign per
    link component of the closure (a letter maps (a, +-a) to (+-a, a)),
    taking the sign patterns up to a global sign in turn: at least 4 rows
    and one per pattern, but no more than the batch holds.  Random seeds
    reach the abelian S2 ever more rarely as a word grows (at some solver
    seeds T(2,41) gets none of 1536), so it is planted, not left to luck."""
    labels = np.array(closure_cycles(word))
    patterns = 2 ** int(labels.max())
    rows = min(len(pts), max(4, patterns))
    # component c takes bit c of twice the pattern, so component 0 keeps +p
    twice = 2 * (np.arange(rows)[:, None] % patterns)
    signs = 1 - 2 * ((twice >> labels) & 1)
    pts[:rows] = signs[..., None] * pts[:rows, :1]
    return rows


# --- rotation-invariant embedding and clustering ----------------------------


def invariant_features(pts: np.ndarray) -> np.ndarray:
    """Pairwise dot products and signed triple volumes: a complete invariant
    of a configuration up to global rotation (the triple signs separate
    mirror pairs, which really are different components)."""
    n = pts.shape[-2]
    feats = []
    for i, j in combinations(range(n), 2):
        feats.append(np.sum(pts[..., i, :] * pts[..., j, :], axis=-1))
    for i, j, k in combinations(range(n), 3):
        volume = cross(pts[..., i, :], pts[..., j, :]) * pts[..., k, :]
        feats.append(np.sum(volume, axis=-1))
    return np.stack(feats, axis=-1)


def cluster_indices(features: np.ndarray, link_radius: float) -> list[np.ndarray]:
    """Connected components of the graph linking points within link_radius,
    each as ascending indices, ordered by smallest index, so the groups
    and each group's first index follow the input order.

    A sweep in order of the first feature tests each point only against the
    later points at most link_radius (plus a few ulps) above it there: one
    searchsorted window holds every pair the rounded test accepts.  Linked
    roots hang on the smallest, and pointer jumping spreads each minimum."""
    order = np.argsort(features[:, 0], kind="stable")
    first = features[order, 0]
    reach = link_radius * (1 + 4 * np.finfo(float).eps)
    ends = np.searchsorted(first, np.nextafter(first + reach, np.inf), side="right")
    labels = np.arange(len(features))
    for start, end in enumerate(ends):
        near = order[start:end]
        diff = features[near] - features[near[0]]
        roots = labels[near[np.sum(diff * diff, axis=-1) <= link_radius**2]]
        while not np.array_equal(labels[roots], roots):
            roots = labels[roots]
        labels[roots] = roots.min()
    while not np.array_equal(labels[labels], labels):
        labels = labels[labels]
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, starts) if len(order) else []


# --- per-configuration predicates --------------------------------------------


def _is_binary_dihedral(pts: np.ndarray) -> bool:
    """True when some axis e has every coordinate at +-e or orthogonal to e
    (i.e. the configuration lies in one circle-pair after a rotation)."""
    sv = np.linalg.svd(pts, compute_uv=False)
    # all coordinates on one great circle (plane through the origin); with
    # fewer than three strands this is automatic
    if len(sv) < 3 or sv[2] <= ABELIAN_TOL:
        return True
    for i in range(len(pts)):
        d = np.abs(pts @ pts[i])
        if np.all((d >= 1.0 - ABELIAN_TOL) | (d <= ABELIAN_TOL)):
            return True
    return False


# --- the solver ---------------------------------------------------------------


def _clean(gap: tuple[float | None, float | None]) -> bool:
    """No relative singular value within a factor 100 of NULL_TOL."""
    low, high = gap
    return ((low is None or low < NULL_TOL / 100.0)
            and (high is None or high > NULL_TOL * 100.0))


def _classify(
    sv: np.ndarray, abelian: bool
) -> tuple[int, str, tuple[float | None, float | None]]:
    """(nullity, topology tag, null gap) from the singular values of the
    fixed-point Jacobian at a point of a component.

    On a clean component the kernel of that Jacobian is the component's
    tangent space, so the nullity is its dimension: the conjugation orbit
    of a nonabelian point is RP3 (3), that of an abelian point S2 (2).  Any
    other nullity is UNKNOWN here (`solve` tags a nullity of 4 RP3 x S1
    only from a traced loop), as is a spectrum without a clean gap."""
    rel = sv / sv[0]
    null = rel < NULL_TOL
    nullity = int(np.count_nonzero(null))
    gap = (
        float(rel[null].max()) if null.any() else None,
        float(rel[~null].min()) if not null.all() else None,
    )
    if _clean(gap) and (nullity == 3 or (nullity == 2 and abelian)):
        return nullity, ("RP3" if nullity == 3 else "S2"), gap
    return nullity, "UNKNOWN", gap


def _trace_loop(system: FixedPointEquation, start: np.ndarray) -> np.ndarray | None:
    """Feature-space path of the null direction orthogonal to the orbit of
    the fixed point `start`, taken in tangent steps of LOOP_STEP, each
    re-polished by `_levenberg`.  The path once it returns to `start`
    within its longest step, or None when it leaves the variety or does not
    return within LOOP_MAX_STEPS."""
    pts, heading = start[None], None
    path = [invariant_features(start)]
    reach, left = 0.0, False
    for _ in range(LOOP_MAX_STEPS):
        e1, e2 = tangent_basis(pts)
        jac, _ = system.jacobian(pts, e1, e2)
        # the rotation about axis a moves slot i by a x g_i, whose tangent
        # coordinates are (a . e2_i, -a . e1_i)
        orbit = np.stack([e2[0], -e1[0]], axis=1).reshape(-1, 3).T
        x = np.linalg.svd(np.concatenate([jac[0], orbit]))[2][-1]
        move = x[0::2, None] * e1[0] + x[1::2, None] * e2[0]
        if heading is not None and np.sum(move * heading) < 0:
            x, move = -x, -move
        heading = move
        pts, r = _levenberg(system, _apply_tangent_step(pts, LOOP_STEP * x[None], e1, e2))
        if r[0] >= DESCENT_TOL:
            return None
        path.append(invariant_features(pts[0]))
        reach = max(reach, float(np.linalg.norm(path[-1] - path[-2])))
        dist = float(np.linalg.norm(path[-1] - path[0]))
        left = left or dist > 2.0 * reach
        if left and dist <= reach:
            return np.array(path)
    return None


def solve(word: BraidWord, config: SolverConfig = SolverConfig()) -> SolveReport:
    rng = np.random.default_rng(config.rng_seed)
    n = word.strands
    system = FixedPointEquation(word)

    # A word that fixes independent random configurations acts trivially:
    # its variety is the whole product of spheres, and clustering noise
    # would be meaningless.  Refuse with the full-variety report.
    probe = random_configurations(n, 3, rng)
    if np.all(system.residual(probe) < 1e-20):
        return SolveReport(
            word=word,
            components=(),
            seeds_total=0,
            seeds_converged=0,
            full_variety=True,
            note="word acts trivially; the variety is the full product of spheres",
        )

    pts = random_configurations(n, config.seeds, rng)
    planted_rows = _plant_abelian(word, pts)  # in place
    planted = np.arange(config.seeds) < planted_rows
    pts, r = _levenberg(system, pts)
    # a seed left above POLISH_TOL, stalled at the damping cap or still live
    # when the iterations ran out, is not a sample
    keep = r < POLISH_TOL
    survivors, rr, planted = pts[keep], r[keep], planted[keep]
    if len(survivors) == 0:
        return SolveReport(word, (), config.seeds, 0, note="no seeds converged")

    feats = invariant_features(survivors)
    # one group per orbit: a sample's invariants are within about
    # 1e-12 / sigma_min of its orbit's (see POLISH_TOL)
    groups = cluster_indices(feats, math.sqrt(DESCENT_TOL))
    firsts = np.array([g[0] for g in groups])
    reps = survivors[firsts]
    e1, e2 = tangent_basis(reps)
    jac, _ = system.jacobian(reps, e1, e2)
    abelian = [is_singular_config(rep, ABELIAN_TOL) for rep in reps]
    classes = [_classify(sv, ab) for sv, ab in
               zip(np.linalg.svd(jac, compute_uv=False), abelian)]

    # a group of nullity 4 on a nonabelian point may be an orbit on an
    # RP3 x S1: trace its extra direction, and if that closes a loop, the
    # groups within one step of it are that one component
    owner = np.arange(len(groups))
    for g, (dim, _, gap) in enumerate(classes):
        if owner[g] != g or dim != 4 or abelian[g] or not _clean(gap):
            continue
        path = _trace_loop(system, reps[g])
        if path is not None:
            reach = np.max(np.linalg.norm(np.diff(path, axis=0), axis=-1))
            apart = np.linalg.norm(feats[firsts][:, None] - path, axis=-1)
            owner[apart.min(axis=1) <= reach] = g
            classes[g] = (dim, "PRODUCT_RP3_S1", gap)

    sizes = np.array([len(g) for g in groups])
    seeded = np.array([np.count_nonzero(planted[g]) for g in groups])
    reports = []
    for g in np.unique(owner):
        dim, tag, gap = classes[g]
        reports.append(
            ComponentReport(
                id=len(reports),
                representative=Configuration.from_array(reps[g]),
                sample_count=int(sizes[owner == g].sum()),
                est_dimension=dim,
                topology_tag=tag,
                is_binary_dihedral=_is_binary_dihedral(reps[g]),
                is_abelian=abelian[g],
                residual=float(rr[firsts[g]]),
                null_gap=gap,
                seeded_samples=int(seeded[owner == g].sum()),
            )
        )
    return SolveReport(
        word=word,
        components=tuple(reports),
        seeds_total=config.seeds,
        seeds_converged=int(len(survivors)),
    )
