"""Winding-number certificate for the first-Chern pairing of the sphere family.

The cap-cylinder sphere family of :mod:`repvar.symplectic` meets the locus
where four canonical tangent-frame sections of the pulled-back complex line
become linearly dependent in two circles.  Cutting the parameter square
along the segment joining the two degenerate points and shrinking small
discs around them leaves a closed contour of eight pieces.  Along each
piece the four frame sections, written in a complex basis where the
almost-complex structure acts as the imaginary unit, form a 4x4 matrix
whose determinant has an elementary closed form of modulus 32.  Every
frame and closed form is a numpy function of an array of piece
parameters.  The frames of the eight pieces, each at its own `parameters`,
are joined into one read-only array, built once per sampling for the life
of the process, and every evaluation of the contour is one
batched 4x4 Laplace expansion of it (`determinants`: the six 2x2 minors of
rows 0-1 times their complementary minors in rows 2-3), which is both faster
and closer to the closed forms than a stacked LAPACK `np.linalg.det` on
matrices this small.  The modulus, junction and winding checks are
functions of that array of determinants.  The determinants of the contour
around the second degenerate circle are transcribed as the negation of the
first contour's, not built from frames of their own.

The first-Chern pairing with the sphere class localizes to the winding
number of that determinant around 0 -- once per degenerate circle.  Both
windings are -1 (the two determinants differ only by sign, which does not
move the winding), so the pairing, their sum, is the integer -2.  The tail
slots of the sphere family are constant, so the frame sections -- and with
them both windings -- do not depend on how many sphere pairs sit in the
tail of the configuration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ContourSegment",
    "CONTOUR",
    "contour_determinants",
    "determinants",
    "closed_form_gap",
    "modulus_deviation",
    "junction_gaps",
    "winding_number",
    "DETERMINANT_MODULUS",
    "MIN_SAFE_MODULUS",
    "MIN_SAMPLES_PER_SEGMENT",
]

DETERMINANT_MODULUS = 32.0
# Guard radius: a zero crossing would have to drag the modulus below this.
MIN_SAFE_MODULUS = 16.0
MIN_SAMPLES_PER_SEGMENT = 64

_DIAG = 2.0 * (1.0 + 1.0j)

# Rows shared between segments, each written into a frame in one assignment.
# The second frame section is constant on the whole contour; the third is
# constant near each degenerate circle but flips the sign of its first moving
# entry between the two; the fourth section has one constant limit on each
# side of the cut.
_ROW_SECOND = np.array([_DIAG, 0.0, _DIAG, 0.0])
_ROW_THIRD_FIRST = np.array([0.0, _DIAG, 0.0, _DIAG])
_ROW_THIRD_SECOND = np.array([0.0, -_DIAG, 0.0, _DIAG])
_ROW_CUT_FIRST = np.array([0.0, _DIAG, 0.0, 0.0])
_ROW_FOURTH_BELOW = np.array([1.0, 0.0, 1.0j, 0.0])
_ROW_FOURTH_ABOVE = -_ROW_FOURTH_BELOW


def _fill(out: np.ndarray, rows) -> np.ndarray:
    """Write four rows into the (..., 4, 4) array `out`: a constant row is an
    array of four entries, a moving row a tuple of four numbers or arrays
    shaped like the parameters."""
    for i, row in enumerate(rows):
        if isinstance(row, np.ndarray):
            out[..., i, :] = row
        else:
            for j, entry in enumerate(row):
                out[..., i, j] = entry
    return out


# Each segment's rows as functions of (sin t, cos t).  Transcribed: these
# builders, like each segment's `closed_form` below, are typed in from the
# paper's frame sections, not yet derived from the `CapCylinderSphere`
# charts, so the determinant checks compare them only with each other.
def _rows_disc1_outer(s, c):
    return ((-2.0 * s, 2.0 * c, -2.0j * s, 2.0j * c), _ROW_SECOND,
            _ROW_THIRD_FIRST, (-c, -s, -1.0j * c, -1.0j * s))


def _rows_disc1_inner(s, c, fourth):
    return ((0.0, 2.0 * (c - s * (1.0 + 1.0j)), 0.0, 2.0j * c),
            _ROW_SECOND, _ROW_THIRD_FIRST, fourth)


def _rows_cut(s, c, fourth):
    return (_ROW_CUT_FIRST, _ROW_SECOND,
            (0.0, 2.0 * c * (1.0 + 1.0j), 0.0, _DIAG), fourth)


def _rows_disc2_inner(s, c, fourth):
    return ((0.0, 2.0 * (-c + s * (1.0 + 1.0j)), 0.0, 2.0j * c),
            _ROW_SECOND, _ROW_THIRD_SECOND, fourth)


def _rows_disc2_outer(s, c):
    return ((-2.0 * s, -2.0 * c, -2.0j * s, 2.0j * c), _ROW_SECOND,
            _ROW_THIRD_SECOND, (-c, s, -1.0j * c, -1.0j * s))


@dataclass(frozen=True)
class ContourSegment:
    """One piece of the cut contour, parametrized in traversal direction.

    ``frame(t)`` gives the (..., 4, 4) complex matrices of the four section
    values at the parameters ``t``, whose rows ``rows(sin t, cos t)``
    spells out; ``closed_form(t)`` is the analytic determinant there,
    against which the numeric one is checked.
    """

    name: str
    start: float
    end: float
    rows: Callable[[np.ndarray, np.ndarray], tuple]
    closed_form: Callable[[np.ndarray], np.ndarray]

    def parameters(self, samples: int) -> np.ndarray:
        return np.linspace(self.start, self.end, samples)

    def frame(self, t) -> np.ndarray:
        out = np.empty(np.shape(t) + (4, 4), dtype=complex)
        return _fill(out, self.rows(np.sin(t), np.cos(t)))


# Traversal order around the cut contour.  The determinant is constant on
# the four pieces away from the cut ends and sweeps a clockwise quarter
# circle of radius 32 on each of the four quarter-disc pieces:
#   32 -> -32i -> -32 -> 32i -> 32.
CONTOUR: tuple[ContourSegment, ...] = (
    ContourSegment("disc1-outer", 0.0, math.pi,
                   _rows_disc1_outer, lambda t: 32.0 + 0.0j),
    ContourSegment("disc1-below-cut", math.pi, 1.5 * math.pi,
                   functools.partial(_rows_disc1_inner, fourth=_ROW_FOURTH_BELOW),
                   lambda t: -32.0 * np.exp(-1.0j * t)),
    ContourSegment("cut-lower", 0.0, math.pi,
                   functools.partial(_rows_cut, fourth=_ROW_FOURTH_BELOW),
                   lambda t: -32.0j),
    ContourSegment("disc2-below-cut", 0.5 * math.pi, math.pi,
                   functools.partial(_rows_disc2_inner, fourth=_ROW_FOURTH_BELOW),
                   lambda t: 32.0 * np.exp(-1.0j * t)),
    ContourSegment("disc2-outer", math.pi, 2.0 * math.pi,
                   _rows_disc2_outer, lambda t: -32.0 + 0.0j),
    ContourSegment("disc2-above-cut", 0.0, 0.5 * math.pi,
                   functools.partial(_rows_disc2_inner, fourth=_ROW_FOURTH_ABOVE),
                   lambda t: -32.0 * np.exp(-1.0j * t)),
    ContourSegment("cut-upper", math.pi, 0.0,
                   functools.partial(_rows_cut, fourth=_ROW_FOURTH_ABOVE),
                   lambda t: 32.0j),
    ContourSegment("disc1-above-cut", 1.5 * math.pi, 2.0 * math.pi,
                   functools.partial(_rows_disc1_inner, fourth=_ROW_FOURTH_ABOVE),
                   lambda t: 32.0 * np.exp(-1.0j * t)),
)


def _require_sampling(samples_per_segment: int) -> None:
    if samples_per_segment < MIN_SAMPLES_PER_SEGMENT:
        raise ValueError(
            f"need at least {MIN_SAMPLES_PER_SEGMENT} samples per segment, "
            f"got {samples_per_segment}")


@functools.cache
def _frames(samples_per_segment: int) -> np.ndarray:
    """The section values along the first contour as read-only (8 * samples,
    4, 4) complex frames in traversal order.  They are an input to the
    determinant, not a measurement, so they are built once per sampling for
    the life of the process."""
    frames = np.concatenate([seg.frame(seg.parameters(samples_per_segment))
                             for seg in CONTOUR])
    frames.setflags(write=False)
    return frames


# Column pairs (j, k) of the six 2x2 minors in Laplace's expansion along
# rows 0-1; read backwards, they are the complementary pairs for rows 2-3.
_J = np.array([0, 0, 0, 1, 1, 2])
_K = np.array([1, 2, 3, 2, 3, 3])
_J_REST, _K_REST = _J[::-1], _K[::-1]


def determinants(frames: np.ndarray) -> np.ndarray:
    """Determinants of the (..., 4, 4) matrices ``frames`` by Laplace
    expansion along the first two rows: each 2x2 minor of rows 0-1 times the
    complementary minor of rows 2-3, summed with the signs of the column
    permutations.  Entry by entry, so a batch and any slice of it agree
    exactly."""
    top = (frames[..., 0, _J] * frames[..., 1, _K]
           - frames[..., 0, _K] * frames[..., 1, _J])
    rest = (frames[..., 2, _J_REST] * frames[..., 3, _K_REST]
            - frames[..., 2, _K_REST] * frames[..., 3, _J_REST])
    p = top * rest
    return p[..., 0] - p[..., 1] + p[..., 2] + p[..., 3] - p[..., 4] + p[..., 5]


def contour_determinants(samples_per_segment: int = 64) -> np.ndarray:
    """Determinants along the first contour in traversal order, one
    `determinants` call on the process's frames, measured afresh by every
    call, read-only.

    Segment k holds entries ``k * samples .. (k + 1) * samples - 1``; its
    first and last entry sit exactly at its start and end parameter.
    """
    _require_sampling(samples_per_segment)
    values = determinants(_frames(samples_per_segment))
    values.setflags(write=False)
    return values


def _segment_values(values: np.ndarray) -> np.ndarray:
    """Contour determinants as (segment, sample) rows."""
    return values.reshape(len(CONTOUR), -1)


def closed_form_gap(samples_per_segment: int = 64) -> float:
    """Largest distance between a numeric determinant and its closed form."""
    rows = _segment_values(contour_determinants(samples_per_segment))
    gap = 0.0
    for seg, values in zip(CONTOUR, rows):
        diff = values - seg.closed_form(seg.parameters(samples_per_segment))
        gap = max(gap, float(np.max(np.abs(diff))))
    return gap


def modulus_deviation(values: np.ndarray) -> float:
    """Largest deviation of |determinant| from 32 along a contour."""
    return float(np.max(np.abs(np.abs(values) - DETERMINANT_MODULUS)))


def junction_gaps(values: np.ndarray) -> np.ndarray:
    """|determinant jump| at the eight segment-to-segment junctions of the
    contour determinants ``values``.

    Each segment's first and last sample are its values at its start and
    end, so the gaps read the same array as the other checks.
    """
    rows = _segment_values(values)
    return np.abs(rows[:, -1] - np.roll(rows[:, 0], -1))


def winding_number(values: np.ndarray) -> int:
    """Winding of the determinants ``values`` around 0 along the closed
    contour; refuses a loop that comes near 0, is sampled too coarsely or
    does not close."""
    moduli = np.abs(values)
    if float(np.min(moduli)) < MIN_SAFE_MODULUS:
        raise ValueError(
            "section determinant modulus dipped below "
            f"{MIN_SAFE_MODULUS}: possible zero crossing")
    loop = np.concatenate([values, values[:1]])
    steps = np.angle(loop[1:] / loop[:-1])
    if float(np.max(np.abs(steps))) >= 0.5 * math.pi:
        raise ValueError(
            "argument step of pi/2 or more between consecutive samples; "
            "refine the sampling")
    total = float(np.sum(steps)) / (2.0 * math.pi)
    nearest = round(total)
    if abs(total - nearest) > 1e-9:
        raise ValueError(
            f"accumulated argument {total} turns is not an integer")
    return int(nearest)
