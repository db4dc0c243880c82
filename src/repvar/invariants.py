"""Exact knot invariants from the reduced Burau representation.

All arithmetic is over Z[t, t^-1] with Python integers; nothing here is
floating point.  The chain is: braid word -> reduced Burau matrix ->
det(B - I) -> divide out 1 + t + ... + t^(n-1) exactly -> normalized
Alexander polynomial -> determinant |value at t = -1|.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .braid import BraidWord, closure_components, load_knot_table
from .su2 import InternalError


class InexactDivisionError(ArithmeticError):
    """Laurent division that should have been exact left a remainder."""


class NonKnotError(ValueError):
    """The braid closure has more than one component."""


@dataclass(frozen=True)
class LaurentPoly:
    """sum(coeffs[i] * t**(min_exp + i)); coeffs trimmed, ints only."""

    min_exp: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(min_exp: int, coeffs) -> "LaurentPoly":
        coeffs = [int(c) for c in coeffs]
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return LaurentPoly(0, ())
        return LaurentPoly(min_exp + lo, tuple(coeffs[lo:hi]))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    @staticmethod
    def t_power(k: int, coefficient: int = 1) -> "LaurentPoly":
        return LaurentPoly.make(k, (coefficient,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return LaurentPoly.make(lo, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LaurentPoly.make(self.min_exp + other.min_exp, out)

    def shifted(self, k: int) -> "LaurentPoly":
        if self.is_zero():
            return self
        return LaurentPoly(self.min_exp + k, self.coeffs)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[t, t^-1]; raises if a remainder is left."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        rem = list(self.coeffs)
        den = other.coeffs
        if len(rem) < len(den):
            raise InexactDivisionError("numerator degree span too small")
        q = [0] * (len(rem) - len(den) + 1)
        for i in range(len(q) - 1, -1, -1):
            lead = rem[i + len(den) - 1]
            if lead % den[-1] != 0:
                raise InexactDivisionError("leading coefficient does not divide")
            q[i] = lead // den[-1]
            for j, d in enumerate(den):
                rem[i + j] -= q[i] * d
        if any(rem):
            raise InexactDivisionError("nonzero remainder")
        return LaurentPoly.make(self.min_exp - other.min_exp, q)

    def evaluate(self, t: int) -> Fraction:
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            total += Fraction(c) * Fraction(t) ** (self.min_exp + i)
        return total

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.min_exp + i
            term = f"{c}" if e == 0 else (f"{c}*t" if e == 1 else f"{c}*t^{e}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


@dataclass(frozen=True)
class BurauMatrix:
    """(strands-1) x (strands-1) matrix over Z[t, t^-1], row-major tuple."""

    size: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    @staticmethod
    def identity(size: int) -> "BurauMatrix":
        return BurauMatrix(
            size,
            tuple(
                tuple(ONE if i == j else ZERO for j in range(size))
                for i in range(size)
            ),
        )

    def __matmul__(self, other: "BurauMatrix") -> "BurauMatrix":
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ZERO
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return BurauMatrix(n, tuple(rows))

    def minus_identity(self) -> "BurauMatrix":
        return BurauMatrix(
            self.size,
            tuple(
                tuple(
                    self.entries[i][j] - (ONE if i == j else ZERO)
                    for j in range(self.size)
                )
                for i in range(self.size)
            ),
        )

    def det(self) -> LaurentPoly:
        return _det(self.entries)


def _det(rows: tuple[tuple[LaurentPoly, ...], ...]) -> LaurentPoly:
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = tuple(
            tuple(rows[i][k] for k in range(n) if k != j) for i in range(1, n)
        )
        term = rows[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _generator_matrix(strands: int, letter: int) -> BurauMatrix:
    """Reduced Burau image of one letter.

    Positive letter i (1-based) in the basis f_1 .. f_{n-1}:
        f_{i-1} -> f_{i-1} + f_i,  f_i -> -t f_i,  f_{i+1} -> t f_i + f_{i+1}
    (columns outside 1..n-1 are dropped).  The inverse letter has the block
    inverted, with entries t^-1.
    """
    n = strands - 1
    i = abs(letter)
    rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    r = i - 1  # 0-based row of f_i
    t = LaurentPoly.t_power(1)
    tinv = LaurentPoly.t_power(-1)
    if letter > 0:
        rows[r][r] = -t
        if r - 1 >= 0:
            rows[r][r - 1] = ONE
        if r + 1 < n:
            rows[r][r + 1] = t
    else:
        rows[r][r] = -tinv
        if r - 1 >= 0:
            rows[r][r - 1] = tinv
        if r + 1 < n:
            rows[r][r + 1] = ONE
    return BurauMatrix(n, tuple(tuple(row) for row in rows))


def burau_reduced(word: BraidWord) -> BurauMatrix:
    """Reduced Burau matrix of the word; letters compose like the action
    (a homomorphism: burau(v * w) = burau(v) @ burau(w))."""
    if word.strands < 2:
        raise ValueError("Burau needs at least two strands")
    out = BurauMatrix.identity(word.strands - 1)
    for k in word.letters:
        out = out @ _generator_matrix(word.strands, k)
    return out


def alexander(word: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the knot closure.

    Exact chain: det(burau - I) divided by 1 + t + ... + t^(n-1) before any
    evaluation, then shifted to lowest exponent 0 and signed so the value at
    t = 1 is +1.  Raises NonKnotError for multi-component closures and
    InexactDivisionError if the division fails (which would mean a bug).
    """
    if closure_components(word) != 1:
        raise NonKnotError(
            f"closure of {word} has {closure_components(word)} components; "
            "the Alexander chain here is for knots only"
        )
    if word.strands == 1:
        return ONE
    numerator = burau_reduced(word).minus_identity().det()
    cyclotomic_like = LaurentPoly.make(0, (1,) * word.strands)
    quotient = numerator.exact_div(cyclotomic_like)
    if quotient.is_zero():
        raise InternalError("Alexander polynomial cannot be zero for a knot")
    poly = quotient.shifted(-quotient.min_exp)
    at_one = poly.evaluate(1)
    if at_one == -1:
        poly = -poly
    elif at_one != 1:
        raise InternalError(f"Alexander value at 1 is {at_one}, expected +-1")
    if not poly.is_palindromic():
        raise InternalError(f"Alexander polynomial {poly} is not palindromic")
    return poly


def determinant(word: BraidWord) -> int:
    """|Alexander at t = -1|.  Always odd for a knot; an even value is a bug
    signal and raises."""
    value = alexander(word).evaluate(-1)
    det = abs(int(value))
    if det % 2 == 0:
        raise InternalError(f"knot determinant {det} is even; Burau chain is broken")
    return det


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


def load_khovanov_ranks(path: str | Path | None = None) -> dict[str, int]:
    """User-supplied 'name,rank' CSV; a small reference file ships as data.

    A row that is not a name and a non-negative integer rank raises
    `ValueError` naming the file and the line.
    """
    if path is None:
        text = resources.files("repvar").joinpath("data/khovanov.csv").read_text()
        lines = text.splitlines()
    else:
        lines = Path(path).read_text().splitlines()
    out: dict[str, int] = {}
    reader = csv.reader(lines)
    for row in reader:
        if not row or row[0].strip().startswith("#") or row[0].strip() == "name":
            continue
        where = f"{path or 'khovanov.csv'}, line {reader.line_num}"
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
