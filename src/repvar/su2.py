"""SU(2) as unit quaternions, specialized to the trace-free conjugacy class.

Conventions used throughout the package:

* A unit quaternion q = w + x i + y j + z k corresponds to the matrix
  [[w + x i, y + z i], [-y + z i, w - x i]] in SU(2).
* The trace-free class is exactly the pure (w = 0) unit quaternions; it is a
  round 2-sphere and every element squares to -1.
* The Lie algebra su(2) is identified with R^3 = span(i, j, k), and the
  invariant inner product is X . Y = -(1/2) trace(XY), which equals the
  Euclidean dot product of the coordinate vectors.
* Tangent vectors to the group at g are stored by their right-translation
  coefficient: the velocity X . g is stored as X.  The right Maurer-Cartan
  form reads off X; the left one reads off Ad(g^-1) X.

All functions act on batched ndarrays: quaternions (..., 4) in wxyz order,
class points and algebra vectors (..., 3).  They never renormalize; callers
own that.
"""
from __future__ import annotations

import numpy as np


class InternalError(AssertionError):
    """Raised when an invariant the library itself maintains is violated."""


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def pure_quat(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def reflect(axis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ad(p) v = 2 (p . v) p - v for a pure unit p: the half-turn about p.

    This is what conjugation by a class point does to both class points and
    algebra vectors, and it is the whole braid action in R^3 terms.
    """
    dot = np.sum(axis * v, axis=-1, keepdims=True)
    return 2.0 * dot * axis - v


def slot_product(pts: np.ndarray) -> np.ndarray:
    """The quaternion product g_1 g_2 ... g_m of the class points along the
    slot axis of (..., m, 3) configurations, as (..., 4) quaternions."""
    acc = np.zeros(pts.shape[:-2] + (4,))
    acc[..., 0] = 1.0
    for s in range(pts.shape[-2]):
        acc = quat_mul(acc, pure_quat(pts[..., s, :]))
    return acc


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of (..., 3) arrays, broadcast as
    ``np.cross`` broadcasts them.  Each component is one product minus
    another, so the result rounds exactly as ``np.cross``'s does, without
    its axis bookkeeping."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def circle_point(theta) -> np.ndarray:
    """The class point at angle theta on the great circle through the first
    two coordinate axes, batched over the shape of theta."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
