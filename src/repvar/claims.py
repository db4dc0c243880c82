"""The registry of the paper's claims.

Each geometric claim is one check that ``repvar verify`` reports: its
``suite.check`` name, its kind (``abs_le``: |value| <= bound, ``gt``: value >
bound, ``equals``: value == bound), its bound, and its measurement, a function
of one run's `Measurements`.  That object carries the run's seed and
trials, and measures each value that several claims share at most once;
every run makes a fresh one, so no run reads a measured value another left
behind.  The inputs the measurements take that never change -- the contour
frames, and the cylinder grid and sphere charts stacked into one array for
the form -- are built once per process by `chern` and `symplectic` and are
read-only.
``repvar verify`` and the acceptance gate run claims from here, and
``repvar variety`` and the gate its reference censuses (`census_checks`).
The library is called through module attributes, so a profiler that swaps
them sees every call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from . import braid, chern, hessian, su2, symplectic

if TYPE_CHECKING:  # the verify suites never load the solver
    from .solver import SolveReport

HESSIAN_SIZES = range(2, 9)
# det H(n) = Pf(H'(n))^4 is checked for the first three sizes, n = 2..4
DETERMINANT_SIZES = range(2, 5)
# Pf(H'(n)) for n = 2..8, the table the recurrence Pf(n+2) = 2 Pf(n+1) + Pf(n)
# produces from 2, 5.  Transcribed from the paper, like the Hessian blocks
# and the contour frames the hessian.* and chern.* claims measure: none of
# them is yet derived from the geometry.
PFAFFIANS_2_TO_8 = [2, 5, 12, 29, 70, 169, 408]


def check_record(name: str, kind: str, value, bound) -> dict:
    """A check record; the bound is stored as `expected` for an equality and
    as `threshold` otherwise."""
    if kind == "equals":
        return {"name": name, "kind": kind, "value": value, "expected": bound,
                "passed": bool(value == bound)}
    passed = abs(value) <= bound if kind == "abs_le" else value > bound
    return {"name": name, "kind": kind, "value": float(value),
            "threshold": bound, "passed": bool(passed)}


def describe(check: dict) -> str:
    """The measured value against its bound, e.g. ``|1.2e-15| <= 1e-10``."""
    if check["kind"] == "abs_le":
        return f"|{check['value']:.3e}| <= {check['threshold']:.0e}"
    if check["kind"] == "gt":
        return f"{check['value']:.3e} > {check['threshold']:.0e}"
    return f"{check['value']} == {check['expected']}"


@dataclass(frozen=True)
class Measurements:
    """One run's inputs and the values its claims share.

    Each shared value is a cached property, measured on first use and kept
    only as long as this object: the Hessians H(n), each a leading block of
    the one H(8) that is built, and their spectra (one eigensolve per H(n));
    the exact values read off one pass over the largest matrix -- the parity
    result of every H(n) from one comparison of H(8) with its swap
    conjugate, every Pf(H'(n)) from one elimination of H'(8), and det H(n)
    for n = 2..4 from one elimination of H(4); the contour determinants (one
    `chern` determinant evaluation), the windings of both contours and the
    monotonicity report (one evaluation of the form, which every monotone
    claim reads, the cap maximum included).  So no run reads a value
    another measured; only the read-only inputs of the contour and of the
    form (frames, the stacked grid and charts) are shared across runs.
    """

    seed: int = 0
    trials: int = 1000

    @functools.cached_property
    def hessians(self) -> list[np.ndarray]:
        """H(n) for every n in HESSIAN_SIZES, each read as the leading
        (4n-4) block of the one largest H."""
        largest = hessian.build_hessian(HESSIAN_SIZES[-1])
        return [largest[:4 * n - 4, :4 * n - 4] for n in HESSIAN_SIZES]

    @functools.cached_property
    def spectra(self) -> list[np.ndarray]:
        return [hessian.spectrum(h) for h in self.hessians]

    @functools.cached_property
    def parity_negated(self) -> list[bool]:
        """Whether the parity swap negates H(n), for every n in HESSIAN_SIZES,
        from one comparison of the largest H with its swap conjugate; H(n)
        is its leading block of size 4n-4, the (2n-2)-th even one."""
        negated = hessian.parity_swap_negates(self.hessians[-1])
        return [negated[2 * n - 3] for n in HESSIAN_SIZES]

    @functools.cached_property
    def determinants(self) -> list[int]:
        """det H(n) for every n in DETERMINANT_SIZES, from one elimination of
        the largest of them, H(n) being its leading block of size 4n-4."""
        size = 4 * DETERMINANT_SIZES[-1] - 4
        dets = hessian.leading_determinants(self.hessians[-1][:size, :size])
        return [dets[4 * n - 5] for n in DETERMINANT_SIZES]

    @functools.cached_property
    def hprime_pfaffians(self) -> tuple[int, ...]:
        """Pf(H'(n)) for every n in HESSIAN_SIZES from one elimination of the
        largest H', read off the largest H as `hessian.build_hprime` is."""
        return tuple(hessian.leading_pfaffians(self.hessians[-1][1::2, 0::2]))

    @functools.cached_property
    def contour(self) -> np.ndarray:
        """Determinants along the first contour; the second is its negation."""
        return chern.contour_determinants()

    @functools.cached_property
    def windings(self) -> tuple[int, int]:
        """Windings of the first and the second contour."""
        return (chern.winding_number(self.contour),
                chern.winding_number(-self.contour))

    @property
    def chern_pairing(self) -> int:
        """First-Chern pairing with the cap-cylinder sphere class: the sum of
        the two windings."""
        return sum(self.windings)

    @functools.cached_property
    def monotonicity(self) -> symplectic.MonotonicityReport:
        return symplectic.monotonicity_ratio(self.chern_pairing)


@dataclass(frozen=True)
class Claim:
    name: str
    kind: str
    bound: Any
    measure: Callable[[Measurements], Any]

    def check(self, m: Measurements) -> dict:
        return check_record(self.name, self.kind, self.measure(m), self.bound)


def _invariance(strands: int, m: Measurements) -> float:
    """Worst deviation of the form under every generator and its inverse."""
    worst = 0.0
    for k in range(1, strands):
        for sign in (1, -1):
            worst = max(worst, symplectic.check_braid_invariance(
                braid.BraidWord(strands, (sign * k,)), m.trials, m.seed))
    return worst


def _form_ranks(pairs: int, m: Measurements) -> list[int]:
    """The distinct form ranks at 100 random product-one points."""
    pts = symplectic.random_k_points(pairs, 100, np.random.default_rng(m.seed))
    return sorted({symplectic.nondegeneracy_rank(p) for p in pts})


def _random_word_images(strands: int, m: Measurements) -> float:
    """Worst |form| over the images under 20 random words of length 1..8."""
    rng = np.random.default_rng(m.seed + strands)
    worst = 0.0
    for _ in range(20):
        length = int(rng.integers(1, 9))
        letters = tuple(
            int(rng.integers(1, strands)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(length))
        worst = max(worst, symplectic.check_gamma_lagrangian(
            braid.BraidWord(strands, letters), m.trials, m.seed))
    return worst


CLAIMS: tuple[Claim, ...] = (
    *(Claim(f"symplectic.invariance_all_generators_{s}_strands", "abs_le", 1e-10,
            functools.partial(_invariance, s))
      for s in (4, 6, 8)),
    *(Claim(f"symplectic.form_rank_on_{n}_pair_product_one_locus", "equals",
            [4 * n], functools.partial(_form_ranks, n))
      for n in (2, 3)),
    Claim("lagrangian.doubled_word_image", "abs_le", 1e-10,
          lambda m: symplectic.check_gamma_lagrangian(
              symplectic.sigma_tilde(braid.knot_by_name("3_1").word),
              m.trials, m.seed)),
    Claim("lagrangian.identity_4_strands", "abs_le", 1e-10,
          lambda m: symplectic.check_gamma_lagrangian(
              braid.BraidWord(4, ()), m.trials, m.seed)),
    Claim("lagrangian.random_words_4_strands", "abs_le", 1e-10,
          functools.partial(_random_word_images, 4)),
    Claim("lagrangian.identity_6_strands", "abs_le", 1e-10,
          lambda m: symplectic.check_gamma_lagrangian(
              braid.BraidWord(6, ()), m.trials, m.seed)),
    Claim("lagrangian.random_words_6_strands", "abs_le", 1e-10,
          functools.partial(_random_word_images, 6)),
    Claim("hessian.parity_swap_negates", "equals", [True] * 7,
          lambda m: m.parity_negated),
    Claim("hessian.signature_zero", "equals", [0] * 7,
          lambda m: [hessian.signature(eigs) for eigs in m.spectra]),
    Claim("hessian.min_abs_eigenvalue", "gt", 1e-2,
          lambda m: min(hessian.min_abs_eigenvalue(eigs) for eigs in m.spectra)),
    Claim("hessian.pfaffian_recurrence_vs_direct", "equals", PFAFFIANS_2_TO_8,
          lambda m: list(m.hprime_pfaffians)),
    Claim("hessian.pfaffian_table", "equals", PFAFFIANS_2_TO_8,
          lambda m: hessian.pfaffian_recurrence(8)),
    Claim("hessian.det_equals_pfaffian_fourth", "equals", [True] * 3,
          lambda m: [det == pf ** 4
                     for det, pf in zip(m.determinants, m.hprime_pfaffians)]),
    Claim("chern.modulus_deviation_first_contour", "abs_le", 1e-9,
          lambda m: chern.modulus_deviation(m.contour)),
    Claim("chern.modulus_deviation_second_contour", "abs_le", 1e-9,
          lambda m: chern.modulus_deviation(-m.contour)),
    Claim("chern.junction_gap_max", "abs_le", 1e-9,
          lambda m: float(np.max(chern.junction_gaps(m.contour)))),
    Claim("chern.winding_first_contour", "equals", -1,
          lambda m: m.windings[0]),
    Claim("chern.winding_second_contour", "equals", -1,
          lambda m: m.windings[1]),
    Claim("chern.chern_pairing", "equals", -2, lambda m: m.chern_pairing),
    Claim("monotone.cylinder_integral_plus_pi_squared", "abs_le", 1e-8,
          lambda m: m.monotonicity.fn_integral + math.pi ** 2),
    Claim("monotone.cap_pullback_max", "abs_le", 1e-12,
          lambda m: m.monotonicity.cap_form_max),
    Claim("monotone.adjacent_pair_sphere_form_max", "abs_le", 1e-12,
          lambda m: m.monotonicity.gamma_form_max),
    Claim("monotone.chern_pairing", "equals", -2,
          lambda m: m.monotonicity.chern_pairing),
    Claim("monotone.ratio_minus_half_pi_squared", "abs_le", 1e-6,
          lambda m: m.monotonicity.ratio - math.pi ** 2 / 2.0),
)

SUITES = tuple(dict.fromkeys(c.name.partition(".")[0] for c in CLAIMS))


def run(names: Iterable[str], seed: int = 0, trials: int = 1000) -> list[dict]:
    """Check records of the named claims, in registry order, measured on one
    fresh `Measurements`."""
    wanted = set(names)
    unknown = wanted - {c.name for c in CLAIMS}
    if unknown:
        raise KeyError(f"unknown claims: {sorted(unknown)}")
    m = Measurements(seed, trials)
    return [c.check(m) for c in CLAIMS if c.name in wanted]


# --- reference censuses ---------------------------------------------------------
#
# From the paper's statements: a two-bridge knot of determinant det has one
# abelian S2 and (det - 1) / 2 copies of RP3, 9_42 one abelian S2 and seven
# three-dimensional components, the square knot components of dimensions 2,
# 3, 3 and 4, and the (2, n) torus link the components of `torus_components`.
# Every knot has exactly one abelian component, an S2: its determinant is odd,
# so no nonabelian representation limits on it (Klassen, Trans. AMS 1991).

TWO_BRIDGE_KNOTS = ("3_1", "4_1", "5_1", "5_2", "6_1", "7_1")
KNOT_DIMENSIONS = {"9_42": [2] + [3] * 7, "square": [2, 3, 3, 4]}


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


def _slot_angle(points) -> float:
    """The angle between the two points of a 2-strand configuration, as
    atan2(|a x b|, a . b): well conditioned at 0 and pi, where the arccosine
    of the dot product reads one rounding unit from +-1 as about 1.5e-8."""
    a, b = np.asarray(points)
    return math.atan2(math.hypot(*su2.cross(a, b)), float(np.dot(a, b)))


def census_checks(report: SolveReport) -> list[dict]:
    """Check records of a solve report against every reference census of its
    word: that of the table knot with this word, the one abelian S2 and the
    Fox colourings of any knot word, and T(2, n) for a 2-strand word of
    exponent sum +-n, n >= 1.  A report that none of these covers fails
    `census.covered`, unless its word acts trivially (`full_variety`), and
    one with an UNKNOWN component fails `census.unknown_components`,
    whatever else is checked.

    `census.binary_dihedral` counts the nonabelian colouring classes within
    sqrt(DESCENT_TOL) of a distinct RP3 representative (in the solver's
    rotation invariants) and the RP3 flagged binary dihedral: (det - 1) / 2
    each.  A report with an RP3 x S1, as the square knot's, skips it: classes
    on a traced loop cannot be located until the report carries its path."""
    from . import invariants, solver  # only a census needs them

    word, comps = report.word, report.components
    tagged = sorted([c.topology_tag, c.est_dimension] for c in comps)
    knot = braid.knot_name(word)
    is_knot = braid.closure_components(word) == 1
    det = invariants.determinant(word) if is_knot else None
    checks = []
    if knot in TWO_BRIDGE_KNOTS:
        pred = invariants.two_bridge_prediction(det)
        checks.append(check_record(
            "census.components", "equals", tagged,
            sorted([["S2", 2]] * pred.spheres
                   + [["RP3", 3]] * pred.projective_spaces)))
    elif knot is not None:
        checks.append(check_record(
            "census.dimensions", "equals",
            sorted(c.est_dimension for c in comps), KNOT_DIMENSIONS[knot]))
    if is_knot and not report.full_variety:
        checks.append(check_record(
            "census.abelian_dimensions", "equals",
            sorted(c.est_dimension for c in comps if c.is_abelian), [2]))
    if is_knot and "PRODUCT_RP3_S1" not in (c.topology_tag for c in comps):
        classes = invariants.colourings(word)[1:]
        rp3 = [c for c in comps if c.topology_tag == "RP3"]
        matched = set()
        if classes and rp3:
            turns = 2.0 * math.pi * np.array(classes, dtype=float)
            apart = np.linalg.norm(
                solver.invariant_features(su2.circle_point(turns))[:, None]
                - solver.invariant_features(np.array(
                    [c.representative.points for c in rp3])), axis=-1)
            matched = {int(row.argmin()) for row in apart
                       if row.min() <= math.sqrt(solver.DESCENT_TOL)}
        checks.append(check_record(
            "census.binary_dihedral", "equals",
            [len(matched), sum(c.is_binary_dihedral for c in rp3)],
            [(det - 1) // 2] * 2))
    crossings = abs(sum(word.letters))
    if word.strands == 2 and crossings >= 1:
        torus = torus_components(crossings)
        angles = sorted(_slot_angle(c.representative.points) for c in comps)
        want_angles = sorted(c.angle for c in torus)
        # a census of the wrong size scores pi, the largest angle error
        error = (max(abs(a - b) for a, b in zip(angles, want_angles))
                 if len(angles) == len(want_angles) else math.pi)
        checks += [
            check_record("census.torus_components", "equals", tagged,
                         sorted([c.topology_tag, c.est_dimension]
                                for c in torus)),
            check_record("census.torus_angles", "abs_le", error, 1e-6)]
    if not checks and not report.full_variety:
        checks.append(check_record("census.covered", "equals", False, True))
    unknown = sum(c.topology_tag == "UNKNOWN" for c in comps)
    if unknown:
        checks.append(check_record(
            "census.unknown_components", "equals", unknown, 0))
    return checks
