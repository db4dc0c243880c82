"""Braid words and their action on configurations of trace-free points.

The generator with index k (1-based, acting on slots k, k+1) maps

    (g_k, g_{k+1})  ->  (g_k g_{k+1} g_k^-1, g_k)

and its inverse maps (g_k, g_{k+1}) -> (g_{k+1}, g_{k+1}^-1 g_k g_{k+1}).
Conjugation by a class point is the half-turn about it, so on coordinate
vectors the generator reads (a, b) -> (2 (a.b) a - b, a); the whole action
stays inside products of 2-spheres and never needs quaternion products.

The action has one implementation, `generator_step`, which steps a letter in
place and renormalises the half-turned slot; `act_array` and
`differential_arrays` step every letter on one copy of their input.  Words
act on the left: act_array(v * w, g) == act_array(v, act_array(w, g)), i.e.
the last letter of a word is applied first.  Tangent vectors are stored as one
right-translation coefficient per slot (velocity X . p = X x p, with X
orthogonal to p), and `differential_arrays` is the one pushforward: the
solver's fixed-point Jacobian and the symplectic checks both read it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .su2 import InternalError, cross, reflect


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
    # letters need a separator between them, so a run of digits is never
    # split (trying every split would take exponential time to reject)
    m = re.fullmatch(r"\s*(\d+)\s*:\s*((?:-?\d+(?:[\s,]+-?\d+)*[\s,]*)?)",
                     text)
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


# Largest |X . p| / max(|X|, 1) that `differential_arrays` accepts.
TANGENCY_TOL = 1e-9


def normalize(pts: np.ndarray) -> np.ndarray:
    """Radial projection of (..., 3) vectors onto the unit sphere."""
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


def tangent_basis(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal tangent vectors per slot, batched: e1 is p x h for a
    helper axis h far from p, and e2 = p x e1."""
    helper = np.zeros_like(pts)
    use_x = np.abs(pts[..., 0]) < 0.9
    helper[..., 0] = np.where(use_x, 1.0, 0.0)
    helper[..., 1] = np.where(use_x, 0.0, 1.0)
    e1 = cross(pts, helper)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = cross(pts, e1)
    return e1, e2


def tangent_frames(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """The 2n one-slot tangent frames of a (..., n, 3) basis, stacked in
    front, shape (2n, ..., n, 3): frame 2s is e1 and frame 2s + 1 is e2 at
    slot s, with every other slot zero."""
    n = e1.shape[-2]
    slots = np.arange(n)
    frames = np.zeros((2 * n,) + e1.shape)
    frames[2 * slots, ..., slots, :] = np.moveaxis(e1, -2, 0)
    frames[2 * slots + 1, ..., slots, :] = np.moveaxis(e2, -2, 0)
    return frames


SINGULAR_TOL = 1e-9


def is_singular_config(pts: np.ndarray, tol: float = SINGULAR_TOL) -> bool:
    """True when every coordinate of an (n, 3) configuration is +- one common
    class point (the abelian, singular locus of the total space)."""
    dots = pts @ pts.T
    return bool(np.all(np.abs(np.abs(dots) - 1.0) <= tol))


# --- the action --------------------------------------------------------------


def generator_step(k: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One letter applied in place to (..., n, 3) configurations; returns
    copies of the two slots it read.

    The half-turned slot is renormalised: the half-turn drifts off the
    sphere in floating point, and a long word amplifies the drift (without
    it the norm error on random seeds is 6e-4 at T(2,20) and overflows by
    T(2,35)); with it the error stays at rounding level."""
    i = abs(k) - 1
    a = pts[..., i, :].copy()
    b = pts[..., i + 1, :].copy()
    if k > 0:
        pts[..., i, :] = normalize(reflect(a, b))
        pts[..., i + 1, :] = a
    else:
        pts[..., i, :] = b
        pts[..., i + 1, :] = normalize(reflect(b, a))
    return a, b


def act_array(word: BraidWord, pts: np.ndarray) -> np.ndarray:
    pts = pts.copy()
    for k in reversed(word.letters):
        generator_step(k, pts)
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

    Base points advance through `generator_step`, so the returned base is
    `act_array(word, pts)` bit for bit.  The base points need only broadcast
    against the coefficients: (S, n, 3) points carry a (F, S, n, 3) stack of
    frames in one sweep.

    Every coefficient must be tangent, X . p = 0 at its base point p: a part
    along p leaves the class, and the formulas above would push it into a
    tangent image all the same.  A slot with
    |X . p| > TANGENCY_TOL max(|X|, 1) raises ValueError.
    """
    along = np.abs(np.einsum("...i,...i->...", coeffs, pts))
    size = np.sqrt(np.einsum("...i,...i->...", coeffs, coeffs))
    if np.any(along > TANGENCY_TOL * np.maximum(size, 1.0)):
        raise ValueError(
            "coefficients are not tangent to their base points: "
            f"|X . p| reaches {float(np.max(along)):.3e}")
    pts, coeffs = pts.copy(), coeffs.copy()
    for k in reversed(word.letters):
        i = abs(k) - 1
        a, b = generator_step(k, pts)
        # copies, not views: X is read after its slot is overwritten, and
        # the arithmetic below runs faster on contiguous slots
        X = coeffs[..., i, :].copy()
        Y = coeffs[..., i + 1, :].copy()
        if k > 0:
            coeffs[..., i, :] = X + reflect(a, Y) - reflect(pts[..., i, :], X)
            coeffs[..., i + 1, :] = X
        else:
            # Ad(b^-1) = Ad(b) on the class (half-turns are involutions)
            coeffs[..., i, :] = Y
            coeffs[..., i + 1, :] = reflect(b, X + reflect(a, Y) - Y)
    return pts, coeffs


def closure_permutation(word: BraidWord) -> list[int]:
    perm = list(range(word.strands))
    for k in word.letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def closure_cycles(word: BraidWord) -> list[int]:
    """The link component of each strand of the closed braid: the cycles of
    its permutation, numbered from 0 in order of their first strand."""
    perm = closure_permutation(word)
    labels = [-1] * word.strands
    count = 0
    for s in range(word.strands):
        if labels[s] < 0:
            t = s
            while labels[t] < 0:
                labels[t] = count
                t = perm[t]
            count += 1
    return labels


def closure_components(word: BraidWord) -> int:
    """Number of link components of the closed braid (permutation cycles)."""
    return max(closure_cycles(word)) + 1


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
    return normalize(rng.normal(size=(count, strands, 3)))


# --- the name table -----------------------------------------------------------


@dataclass(frozen=True)
class KnotEntry:
    name: str
    word: BraidWord
    expected_determinant: int


def load_knot_table() -> dict[str, KnotEntry]:
    """Braid representatives shipped as data.  Loading re-validates that each
    closure really is a knot.  The determinant column is not checked here:
    `invariants.validate_knot_table` recomputes it from the Burau chain, and
    only `test_determinants_match_the_shipped_table` calls that."""
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


def _rotations(word: BraidWord) -> set[BraidWord]:
    """Every cyclic rotation of ``word``: its conjugates by a prefix, whose
    closures are the same link."""
    letters = word.letters
    return {BraidWord(word.strands, letters[k:] + letters[:k])
            for k in range(max(len(letters), 1))}


def knot_name(word: BraidWord) -> str | None:
    """The name of the table knot whose shipped braid is ``word`` or a cyclic
    rotation of it, or None."""
    return next((name for name, entry in load_knot_table().items()
                 if word in _rotations(entry.word)), None)
