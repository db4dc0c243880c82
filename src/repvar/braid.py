"""Braid words and their action on configurations of trace-free points.

The generator with index k (1-based, acting on slots k, k+1) maps

    (g_k, g_{k+1})  ->  (g_k g_{k+1} g_k^-1, g_k)

and its inverse maps (g_k, g_{k+1}) -> (g_{k+1}, g_{k+1}^-1 g_k g_{k+1}).
Conjugation by a class point is the half-turn about it, so on coordinate
vectors the generator reads (a, b) -> (2 (a.b) a - b, a); the whole action
stays inside products of 2-spheres and never needs quaternion products.

Words act on the left: act_array(v * w, g) == act_array(v, act_array(w, g)),
i.e. the last letter of a word is applied first.  Tangent vectors are stored
as one right-translation coefficient per slot (velocity X . p = X x p, with
X orthogonal to p), and `differential_arrays` pushes them forward.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .su2 import InternalError, reflect


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        for k in self.letters:
            if k == 0 or abs(k) > self.strands - 1:
                raise ValueError(f"letter {k} out of range for {self.strands} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in reversed(self.letters)))

    def __str__(self) -> str:
        return f"{self.strands}: " + " ".join(str(k) for k in self.letters)


def parse_braid(text: str) -> BraidWord:
    """Parse 'n: k1 k2 ...' (e.g. '2: 1 1 1'); 'n:' is the identity word."""
    m = re.fullmatch(r"\s*(\d+)\s*:\s*((?:-?\d+[\s,]*)*)", text)
    if not m:
        raise ValueError(f"cannot parse braid word {text!r}")
    strands = int(m.group(1))
    body = m.group(2).replace(",", " ").split()
    return BraidWord(strands, tuple(int(k) for k in body))


@dataclass(frozen=True)
class Configuration:
    """A point of the product of 2-spheres, one class point per strand,
    held as float triples so that it compares and hashes by value."""

    points: tuple[tuple[float, float, float], ...]

    @staticmethod
    def from_array(arr: np.ndarray) -> "Configuration":
        return Configuration(tuple(map(tuple, np.asarray(arr, dtype=float).tolist())))

    def as_array(self) -> np.ndarray:
        return np.array(self.points)

    def __len__(self) -> int:
        return len(self.points)


def project_coefficient(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nearest tangent coefficient at p to an arbitrary algebra vector v."""
    return v - np.sum(v * p, axis=-1, keepdims=True) * p


def tangent_basis(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal tangent vectors per slot, batched: e1 is p x h for a
    helper axis h far from p, and e2 = p x e1."""
    helper = np.zeros_like(pts)
    use_x = np.abs(pts[..., 0]) < 0.9
    helper[..., 0] = np.where(use_x, 1.0, 0.0)
    helper[..., 1] = np.where(use_x, 0.0, 1.0)
    e1 = np.cross(pts, helper)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(pts, e1)
    return e1, e2


# --- the action --------------------------------------------------------------


def generator_step(k: int, pts: np.ndarray) -> np.ndarray:
    """One letter applied to (..., n, 3) configurations."""
    i = abs(k) - 1
    a = pts[..., i, :]
    b = pts[..., i + 1, :]
    out = pts.copy()
    if k > 0:
        out[..., i, :] = reflect(a, b)
        out[..., i + 1, :] = a
    else:
        out[..., i, :] = b
        out[..., i + 1, :] = reflect(b, a)
    return out


def act_array(word: BraidWord, pts: np.ndarray) -> np.ndarray:
    for k in reversed(word.letters):
        pts = generator_step(k, pts)
    return pts


def differential_arrays(
    word: BraidWord, pts: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pushforward of coefficient frames, letter by letter.

    For the positive letter at (a, b) with coefficients (X, Y):
        slot k     <- X + Ad(a) Y - Ad(a b a^-1) X   at base a b a^-1
        slot k+1   <- X                              at base a
    and for the negative letter:
        slot k     <- Y                              at base b
        slot k+1   <- Ad(b^-1)(X + Ad(a) Y - Y)      at base b^-1 a b
    """
    pts = pts.copy()
    coeffs = coeffs.copy()
    for k in reversed(word.letters):
        i = abs(k) - 1
        # copies, not views: both slots are overwritten below
        a = pts[..., i, :].copy()
        b = pts[..., i + 1, :].copy()
        X = coeffs[..., i, :].copy()
        Y = coeffs[..., i + 1, :].copy()
        if k > 0:
            c = reflect(a, b)
            coeffs[..., i, :] = X + reflect(a, Y) - reflect(c, X)
            coeffs[..., i + 1, :] = X
            pts[..., i, :] = c
            pts[..., i + 1, :] = a
        else:
            d = reflect(b, a)
            # Ad(b^-1) = Ad(b) on the class (half-turns are involutions)
            coeffs[..., i, :] = Y
            coeffs[..., i + 1, :] = reflect(b, X + reflect(a, Y) - Y)
            pts[..., i, :] = b
            pts[..., i + 1, :] = d
    return pts, coeffs


def closure_permutation(word: BraidWord) -> list[int]:
    perm = list(range(word.strands))
    for k in word.letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def closure_components(word: BraidWord) -> int:
    """Number of link components of the closed braid (permutation cycles)."""
    perm = closure_permutation(word)
    seen = [False] * word.strands
    count = 0
    for s in range(word.strands):
        if not seen[s]:
            count += 1
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
    return count


def check_braid_relations(strands: int, samples: int = 50, rng_seed: int = 0) -> dict:
    """Numerically confirm the defining relations of the braid group action.

    Returns the worst chordal deviations over random configurations for:
    adjacent relation s_k s_{k+1} s_k = s_{k+1} s_k s_{k+1}, far
    commutation, and cancellation s_k s_k^-1 = id.
    """
    rng = np.random.default_rng(rng_seed)
    pts = random_configurations(strands, samples, rng)
    worst = {"adjacent": 0.0, "commuting": 0.0, "cancellation": 0.0}
    for k in range(1, strands):
        w = BraidWord(strands, (k, -k))
        dev = np.abs(act_array(w, pts) - pts).max()
        worst["cancellation"] = max(worst["cancellation"], float(dev))
    for k in range(1, strands - 1):
        lhs = BraidWord(strands, (k, k + 1, k))
        rhs = BraidWord(strands, (k + 1, k, k + 1))
        dev = np.abs(act_array(lhs, pts) - act_array(rhs, pts)).max()
        worst["adjacent"] = max(worst["adjacent"], float(dev))
    for k in range(1, strands):
        for l in range(k + 2, strands):
            lhs = BraidWord(strands, (k, l))
            rhs = BraidWord(strands, (l, k))
            dev = np.abs(act_array(lhs, pts) - act_array(rhs, pts)).max()
            worst["commuting"] = max(worst["commuting"], float(dev))
    return worst


def random_configurations(strands: int, count: int, rng: np.random.Generator) -> np.ndarray:
    pts = rng.normal(size=(count, strands, 3))
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


# --- the name table -----------------------------------------------------------


@dataclass(frozen=True)
class KnotEntry:
    name: str
    word: BraidWord
    expected_determinant: int


def load_knot_table() -> dict[str, KnotEntry]:
    """Braid representatives shipped as data.  Loading re-validates that each
    closure really is a knot; the determinant column is re-checked against
    the Burau computation in the invariants module (and in the tests), so a
    bad entry cannot survive silently."""
    text = resources.files("repvar").joinpath("data/braids.txt").read_text()
    table: dict[str, KnotEntry] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, strands, letters, det = (s.strip() for s in line.split(";"))
        word = parse_braid(f"{strands}: {letters}")
        if closure_components(word) != 1:
            raise InternalError(f"table entry {name} does not close to a knot")
        table[name] = KnotEntry(name, word, int(det))
    return table


def knot_by_name(name: str) -> KnotEntry:
    table = load_knot_table()
    if name not in table:
        raise KeyError(f"unknown knot {name!r}; known: {sorted(table)}")
    return table[name]
