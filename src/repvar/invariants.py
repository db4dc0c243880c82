"""Exact knot invariants from the unreduced Burau representation.

A polynomial in Z[t, t^-1] is a numpy ``dtype=object`` array of Python
integers, lowest exponent first, so nothing here overflows and nothing is
floating point.  One matrix serves both invariants.  The Alexander chain is:
braid word -> Burau coefficient array B -> the minor of B - I without row
and column 0 by cofactors, with ``np.convolve`` as the product -> normalized
Alexander polynomial -> determinant |value at t = -1|.  `colourings`, the
Fox colourings of the word (the binary-dihedral fixed points of the
action), read B at t = -1 and count det again.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product

import numpy as np

from .braid import BraidWord, closure_components, load_knot_table
from .su2 import InternalError


class NonKnotError(ValueError):
    """The braid closure has more than one component."""


@dataclass(frozen=True)
class LaurentPoly:
    """sum(coeffs[i] * t**(min_exp + i)); coeffs trimmed, ints only."""

    min_exp: int
    coeffs: tuple[int, ...]

    def evaluate(self, t: int) -> Fraction:
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            total += Fraction(c) * Fraction(t) ** (self.min_exp + i)
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + i
            term = f"{c}" if e == 0 else (f"{c}*t" if e == 1 else f"{c}*t^{e}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")

    def determinant(self) -> int:
        """|value at t = -1|, odd for a knot; an even value raises."""
        det = abs(int(self.evaluate(-1)))
        if det % 2 == 0:
            raise InternalError(f"knot determinant {det} is even; Burau chain is broken")
        return det


def burau(word: BraidWord) -> np.ndarray:
    """Unreduced Burau matrix of the word as an (n, n, 2L+1) array of Python
    ints, L = len(word.letters): entry [i, j, e] is the coefficient of
    t^(e - L).  Letters compose like the action (a homomorphism:
    burau(v * w) = burau(v) @ burau(w)).

    A letter acts on its two columns (a, b) only: sigma_i takes them to
    ((1 - t) a + b, t a), its inverse to (t^-1 b, a + (1 - t^-1) b).  An
    entry after k letters has degree at most k in t and in t^-1, so no shift
    wraps round.  Every row sums to 1, and (1, t, ..., t^(n-1)) B is
    (1, t, ..., t^(n-1)).
    """
    n, span = word.strands, len(word.letters)
    out = np.zeros((n, n, 2 * span + 1), dtype=object)
    out[range(n), range(n), span] = 1
    for letter in word.letters:
        c = abs(letter) - 1
        a, b = out[:, c], out[:, c + 1]
        if letter > 0:
            ta = np.roll(a, 1, axis=-1)
            out[:, c], out[:, c + 1] = a + b - ta, ta
        else:
            b_t = np.roll(b, -1, axis=-1)
            out[:, c], out[:, c + 1] = b_t, a + b - b_t
    return out


def _det(m: np.ndarray) -> np.ndarray:
    """Cofactor determinant of a (k, k, d) polynomial array: k * (d - 1) + 1
    coefficients, whose lowest exponent is k times that of the entries."""
    k = m.shape[0]
    if k == 1:
        return m[0, 0]
    total = np.zeros(k * (m.shape[2] - 1) + 1, dtype=object)
    for j in range(k):
        if m[0, j].any():
            term = np.convolve(m[0, j], _det(np.delete(m[1:], j, axis=1)))
            total += term if j % 2 == 0 else -term
    return total


def alexander(word: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the knot closure.

    Exact chain: B - I is the Alexander matrix of the closed braid (Fox), so
    its minor without row and column 0 is the polynomial up to a unit +-t^k;
    it is shifted to lowest exponent 0 and signed so the value at t = 1 is
    +1.  Raises NonKnotError for multi-component closures.
    """
    _require_knot(word)
    if word.strands == 1:
        return LaurentPoly(0, (1,))
    n = word.strands
    matrix = burau(word)
    matrix[range(n), range(n), len(word.letters)] -= 1
    minor = _det(matrix[1:, 1:])
    support = np.flatnonzero(minor)
    if not len(support):
        raise InternalError("Alexander polynomial cannot be zero for a knot")
    coeffs = tuple(int(c) for c in minor[support[0]:support[-1] + 1])
    at_one = sum(coeffs)
    if at_one == -1:
        coeffs = tuple(-c for c in coeffs)
    elif at_one != 1:
        raise InternalError(f"Alexander value at 1 is {at_one}, expected +-1")
    poly = LaurentPoly(0, coeffs)
    if coeffs != coeffs[::-1]:
        raise InternalError(f"Alexander polynomial {poly} is not palindromic")
    return poly


def determinant(word: BraidWord) -> int:
    """|Alexander at t = -1|, odd for a knot (see `LaurentPoly.determinant`)."""
    return alexander(word).determinant()


def _require_knot(word: BraidWord) -> None:
    if (pieces := closure_components(word)) != 1:
        raise NonKnotError(f"closure of {word} has {pieces} components; "
                           "the invariants here are for knots only")


def _smith(a: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Invariant factors d of an integer matrix a of full column rank, and a
    unimodular W with U a W = diag(d), U unimodular: the Smith normal form,
    pivoting on the smallest nonzero entry left."""
    rows, cols = len(a), len(a[0])
    w = [[int(i == j) for j in range(cols)] for i in range(cols)]
    for k in range(cols):
        while True:
            _, i, j = min((abs(a[i][j]), i, j) for i in range(k, rows)
                          for j in range(k, cols) if a[i][j])
            a[k], a[i] = a[i], a[k]
            for r in (*a, *w):
                r[k], r[j] = r[j], r[k]
            for i in range(k + 1, rows):
                q = a[i][k] // a[k][k]
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, cols):
                q = a[k][j] // a[k][k]
                for r in (*a, *w):
                    r[j] -= q * r[k]
            if not any(a[k][k + 1:]) and not any(r[k] for r in a[k + 1:]):
                # an entry the pivot does not divide joins the pivot row
                bad = [r for r in a[k + 1:] if any(x % a[k][k] for x in r)]
                if not bad:
                    break
                a[k] = [x + y for x, y in zip(a[k], bad[0])]
    return [abs(a[k][k]) for k in range(cols)], w


def colourings(word: BraidWord) -> list[tuple[Fraction, ...]]:
    """Fox colourings of the knot closure up to sign: turns x in [0, 1)^n
    with x_1 = 0, one per pair x, -x mod 1, the trivial class first.

    Points at angles 2 pi x on one great circle are fixed by `act_array`
    exactly when (B - I) x = 0 mod 1, B the unreduced Burau matrix at t = -1
    composed as `act_array` composes letters: a letter takes the angles
    (a, b) of its slots to (2a - b, a), its inverse to (b, 2b - a).  The
    solutions form a group of order det, read off the Smith normal form of
    (B - I)[:, 1:]; each nontrivial class is one binary-dihedral
    representation.  Raises NonKnotError on a link."""
    _require_knot(word)
    n, span = word.strands, len(word.letters)
    signs = np.array([(-1) ** abs(e - span) for e in range(2 * span + 1)],
                     dtype=object)
    b = burau(word) @ signs
    b[range(n), range(n)] -= 1
    factors, w = _smith(b[:, 1:].tolist())
    classes = set()
    for c in product(*map(range, factors)):
        y = [Fraction(ci, d) for ci, d in zip(c, factors)]
        x = (Fraction(0), *(sum(a * b for a, b in zip(row, y)) % 1 for row in w))
        classes.add(min(x, tuple(-xi % 1 for xi in x)))
    return sorted(classes)


@dataclass(frozen=True)
class TwoBridgePrediction:
    determinant: int
    spheres: int
    projective_spaces: int
    total_components: int
    cohomology_rank: int


def two_bridge_prediction(det: int) -> TwoBridgePrediction:
    """Component census of the trace-free variety for a two-bridge knot of
    the given determinant: one 2-sphere plus (det - 1)/2 copies of RP^3,
    with total rational cohomology rank det + 1."""
    if det <= 0 or det % 2 == 0:
        raise ValueError("a knot determinant is a positive odd integer")
    rp3 = (det - 1) // 2
    return TwoBridgePrediction(
        determinant=det,
        spheres=1,
        projective_spaces=rp3,
        total_components=1 + rp3,
        cohomology_rank=det + 1,
    )


def load_khovanov_ranks() -> dict[str, int]:
    """The 'name,rank' table of rational Khovanov ranks shipped as data."""
    return _parse_khovanov_ranks(
        resources.files("repvar").joinpath("data/khovanov.csv").read_text())


def _parse_khovanov_ranks(text: str) -> dict[str, int]:
    """'name,rank' rows of CSV text.  A row that is not a name and a
    non-negative integer rank raises `ValueError` naming its line."""
    out: dict[str, int] = {}
    reader = csv.reader(text.splitlines())
    for row in reader:
        if not row or row[0].strip().startswith("#") or row[0].strip() == "name":
            continue
        where = f"khovanov.csv, line {reader.line_num}"
        if len(row) != 2:
            raise ValueError(f"{where}: expected 'name,rank', got {row!r}")
        rank = row[1].strip()
        if not rank.isdecimal():
            raise ValueError(
                f"{where}: rank {row[1]!r} is not a non-negative integer")
        out[row[0].strip()] = int(rank)
    return out


def validate_knot_table() -> dict[str, int]:
    """Recompute every determinant in the shipped table; raises on mismatch.
    Returns the computed values for reporting."""
    computed = {}
    for name, entry in load_knot_table().items():
        det = determinant(entry.word)
        if det != entry.expected_determinant:
            raise InternalError(
                f"table determinant for {name} is {entry.expected_determinant}, "
                f"Burau computes {det}"
            )
        computed[name] = det
    return computed
