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
parameters.  One `np.linspace` gives the parameters of all eight pieces,
their frames are written into one array, and the whole contour is one
batched `np.linalg.det`.  That array is memoised per
sample count, as are its negation (the second contour) and the winding of
each: the modulus, junction, winding and pairing checks all read them, so a
verify run evaluates the contour once and winds each contour once
(``claims.run`` clears the memos, so each run evaluates them afresh).

The first-Chern pairing with the sphere class localizes to the winding
number of that determinant around 0 -- once per degenerate circle.  Both
windings are -1 (the two determinants differ only by sign, which does not
move the winding), so the pairing is the integer -2, independently of how
many sphere pairs sit in the tail of the configuration.
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
    "closed_form_gap",
    "modulus_deviation",
    "junction_gaps",
    "winding_number",
    "chern_pairing",
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


# Each segment's rows as functions of (sin t, cos t).
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
_STARTS = np.array([seg.start for seg in CONTOUR])
_ENDS = np.array([seg.end for seg in CONTOUR])


def _parameters(samples_per_segment: int) -> np.ndarray:
    """Every segment's parameters as (segment, sample) rows; row k equals
    ``CONTOUR[k].parameters(samples_per_segment)`` exactly."""
    return np.linspace(_STARTS, _ENDS, samples_per_segment, axis=-1)


def _require_sampling(samples_per_segment: int) -> None:
    if samples_per_segment < MIN_SAMPLES_PER_SEGMENT:
        raise ValueError(
            f"need at least {MIN_SAMPLES_PER_SEGMENT} samples per segment, "
            f"got {samples_per_segment}")


@functools.cache
def _first_contour(samples_per_segment: int) -> np.ndarray:
    """Determinants along the first contour, one stacked det, read-only.

    Segment k holds entries ``k * samples .. (k + 1) * samples - 1``; its
    first and last entry sit exactly at its start and end parameter.
    """
    _require_sampling(samples_per_segment)
    params = _parameters(samples_per_segment)
    sin, cos = np.sin(params), np.cos(params)
    frames = np.empty(params.shape + (4, 4), dtype=complex)
    for k, seg in enumerate(CONTOUR):
        _fill(frames[k], seg.rows(sin[k], cos[k]))
    values = np.linalg.det(frames.reshape(-1, 4, 4))
    values.setflags(write=False)
    return values


@functools.cache
def _second_contour(samples_per_segment: int) -> np.ndarray:
    """The negated first contour, read-only; memoised like it."""
    values = -_first_contour(samples_per_segment)
    values.setflags(write=False)
    return values


def contour_determinants(samples_per_segment: int = 64, *,
                         second_contour: bool = False) -> np.ndarray:
    """Determinant values along the whole contour in traversal order.

    The contour around the second degenerate circle reuses the same
    parametrization with every section value negated, so its determinant is
    the pointwise negative of the first.  Both arrays are shared read-only
    memos.
    """
    if second_contour:
        return _second_contour(samples_per_segment)
    return _first_contour(samples_per_segment)


def _segment_values(samples_per_segment: int) -> np.ndarray:
    """The first contour's determinants as (segment, sample) rows."""
    return _first_contour(samples_per_segment).reshape(len(CONTOUR), -1)


def closed_form_gap(samples_per_segment: int = 64) -> float:
    """Largest distance between a numeric determinant and its closed form."""
    rows = _segment_values(samples_per_segment)
    gap = 0.0
    for seg, t, values in zip(CONTOUR, _parameters(samples_per_segment), rows):
        diff = values - seg.closed_form(t)
        gap = max(gap, float(np.max(np.abs(diff))))
    return gap


def modulus_deviation(samples_per_segment: int = 64, *,
                      second_contour: bool = False) -> float:
    """Largest deviation of |determinant| from 32 along the contour."""
    values = contour_determinants(samples_per_segment,
                                  second_contour=second_contour)
    return float(np.max(np.abs(np.abs(values) - DETERMINANT_MODULUS)))


def junction_gaps(samples_per_segment: int = 64) -> np.ndarray:
    """|determinant jump| at the eight segment-to-segment junctions.

    Each segment's first and last sample are its values at its start and
    end, so the gaps read the same array as the other checks.
    """
    rows = _segment_values(samples_per_segment)
    return np.abs(rows[:, -1] - np.roll(rows[:, 0], -1))


def _loop_winding(values: np.ndarray) -> int:
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


@functools.cache
def _winding(samples_per_segment: int, second_contour: bool) -> int:
    return _loop_winding(
        contour_determinants(samples_per_segment,
                             second_contour=second_contour))


def winding_number(samples_per_segment: int = 64, *,
                   second_contour: bool = False) -> int:
    """Winding of the section determinant around 0 along the closed contour.

    Memoised per contour like the determinants, so the winding claims and
    the pairing share one winding of each contour per run.
    """
    return _winding(samples_per_segment, second_contour)


def chern_pairing(samples_per_segment: int = 64) -> int:
    """First-Chern pairing with the cap-cylinder sphere class: always -2.

    The tail slots of the sphere family are constant, so the frame
    sections -- and with them both windings -- do not depend on how many
    pairs the configuration has.
    """
    first = winding_number(samples_per_segment)
    second = winding_number(samples_per_segment, second_contour=True)
    return first + second
