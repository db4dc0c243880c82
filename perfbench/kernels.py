"""Kernel microbenchmarks at fixed sizes, run in the traced run only.

Each kernel reports its median time per call over repeated calls, an
operation count and bytes moved.  Both counts are computed from the array
sizes by the formula next to each kernel, not measured: temporaries and cache
misses are ignored, and for the exact-integer kernels one element is
counted as an 8-byte word although Python stores it as an object.  Every
kernel's output is checked, so a fast wrong kernel fails the run.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

STRANDS = 4          # the 9_42 word's strand count
BATCH = 1536         # the solver's default seed count
SVD_SHAPE = (12, 8)  # the 4-strand tangent Jacobian, 3n x 2n
FORM_SLOTS = 8       # four sphere pairs for the form
HPRIME_PAIRS = 12    # build_hprime(12) is 22 x 22
HESSIAN_PAIRS = 12   # build_hessian(12) is 44 x 44
CLUSTERS = 8         # dense clusters in the synthetic clustering input
CLUSTER_SPREAD = 0.01
LINK_RADIUS = 0.15   # the solver's default


def _time_calls(fn, min_calls, min_seconds) -> tuple[list[float], object]:
    times, out = [], None
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def _pell(n: int) -> int:
    """Pf(build_hprime(n)) from Pf(2) = 2, Pf(3) = 5, Pf(n+2) = 2 Pf(n+1) + Pf(n)."""
    a, b = 2, 5
    for _ in range(n - 2):
        a, b = b, 2 * b + a
    return a


def run(seed: int) -> tuple[dict[str, float], dict[str, str | None]]:
    """All kernels: (metrics, kernel name -> failure reason or None)."""
    from repvar import hessian, solver
    from repvar.braid import act_array, differential_arrays, knot_by_name, random_configurations
    from repvar.symplectic import omega_c_array, random_coefficients

    rng = np.random.default_rng(seed)
    word = knot_by_name("9_42").word
    L, S, n = len(word.letters), BATCH, STRANDS
    pts = random_configurations(n, S, rng)
    coeffs = random_coefficients(pts, rng)
    form_base = random_configurations(FORM_SLOTS, S, rng)
    form_x = random_coefficients(form_base, rng)
    form_y = random_coefficients(form_base, rng)
    m, k = SVD_SHAPE
    mats = rng.normal(size=(S, m, k))
    centers = rng.normal(size=(CLUSTERS, 10))
    labels = rng.integers(0, CLUSTERS, size=S)
    raw = centers[labels] + CLUSTER_SPREAD * rng.normal(size=(S, 10))
    order = np.lexsort(raw.T[::-1])  # the solver sorts before clustering
    feats, labels = raw[order], labels[order]
    hprime = hessian.build_hprime(HPRIME_PAIRS)
    hess = hessian.build_hessian(HESSIAN_PAIRS)
    size_p, size_h = hprime.shape[0], hess.shape[0]
    d = feats.shape[1]

    def check_act(out):
        back = act_array(word.inverse(), out)
        return None if np.max(np.abs(back - pts)) < 1e-9 else "act_array not inverted by the inverse word"

    def check_diff(out):
        moved, moved_coeffs = out
        tangency = np.max(np.abs(np.sum(moved * moved_coeffs, axis=-1)))
        return None if tangency < 1e-9 else f"pushed frame off tangency by {tangency:.1e}"

    def check_svd(out):
        u, s, vt = out
        err = np.max(np.abs(np.einsum("sij,sj,sjk->sik", u, s, vt) - mats))
        return None if err < 1e-9 else f"U S Vt differs from A by {err:.1e}"

    def check_clusters(out):
        pure = all(len(set(labels[idx])) == 1 for idx in out)
        return None if pure and len(out) == len(set(labels)) else "synthetic clusters not recovered"

    kernels = {
        # reflect per letter and point: dot 5 + scale 1 + axpy 6 = 12 flop;
        # bytes per letter: copy in/out of the whole batch, two slots read,
        # one reflected slot written, two slots stored
        "act_array": (
            lambda: act_array(word, pts),
            L * S * 12,
            L * S * 24 * (2 * n + 5),
            check_act,
        ),
        # three reflections (36) and two vector adds (6) per letter and point
        "differential_arrays": (
            lambda: differential_arrays(word, pts, coeffs),
            L * S * 42,
            S * 24 * 4 * n + L * S * 24 * 21,
            check_diff,
        ),
        # per slot boundary and point: two adds and two reflections (30),
        # two dots and the update (12)
        "omega_c_array": (
            lambda: omega_c_array(form_base, form_x, form_y),
            (FORM_SLOTS - 1) * S * 42,
            (FORM_SLOTS - 1) * S * (24 * 7 + 16),
            lambda out: None if np.all(np.isfinite(out)) else "non-finite form values",
        ),
        # Golub-Van Loan count for U1, S, V of an m x k matrix: 14 m k^2 + 8 k^3
        "svd_batched": (
            lambda: np.linalg.svd(mats, full_matrices=False),
            S * (14 * m * k * k + 8 * k ** 3),
            S * 8 * (2 * m * k + k + k * k),
            check_svd,
        ),
        # pairwise distances: subtract, square, add per coordinate, and one
        # compare per pair; the difference block is written and read once
        "cluster_indices": (
            lambda: solver.cluster_indices(feats, LINK_RADIUS),
            S * S * (3 * d + 1),
            S * S * 8 * (2 * d + 1),
            check_clusters,
        ),
        # upper bound on congruence updates: per pivot pair and later index,
        # two sources times a row and a column sweep; mul + sub each
        "pfaffian": (
            lambda: hessian.pfaffian(hprime),
            2 * sum((size_p - p - 2) * 4 * size_p for p in range(0, size_p, 2)),
            3 * 8 * sum((size_p - p - 2) * 4 * size_p for p in range(0, size_p, 2)),
            lambda out: None if out == _pell(HPRIME_PAIRS) else f"Pf = {out}, want {_pell(HPRIME_PAIRS)}",
        ),
        # Bareiss: sum_j j^2 updates, two mul + sub + div each
        "integer_determinant": (
            lambda: hessian.integer_determinant(hess),
            4 * sum(j * j for j in range(1, size_h)),
            4 * 8 * sum(j * j for j in range(1, size_h)),
            lambda out: None if out == _pell(HESSIAN_PAIRS) ** 4 else "det(H) != Pf(H')^4",
        ),
    }

    metrics, checked = {}, {}
    for name, (fn, flop, nbytes, check) in kernels.items():
        slow = name == "cluster_indices"
        times, out = _time_calls(fn, 3 if slow else 20, 0.0 if slow else 0.25)
        median = statistics.median(times)
        if slow:
            metrics[f"kernel.{name}.s"] = median
        else:
            metrics[f"kernel.{name}.us"] = median * 1e6
        metrics[f"kernel.{name}.flop"] = flop
        metrics[f"kernel.{name}.bytes"] = nbytes
        checked[name] = check(out)
    return metrics, checked
