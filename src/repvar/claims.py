"""The registry of the paper's geometric claims.

Each entry is one check that ``repvar verify`` reports: its ``suite.check``
name, its kind (``abs_le``: |value| <= bound, ``gt``: value > bound,
``equals``: value == bound), its bound, and its measurement from a seed and
a trial count (seedless claims ignore both).  ``repvar verify`` and the
acceptance gate both run claims from here.  The library is called through
module attributes, so a profiler that swaps them sees every call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from . import braid, chern, hessian, symplectic

HESSIAN_SIZES = range(2, 9)
# Pf(H'(n)) for n = 2..8, the table the recurrence Pf(n+2) = 2 Pf(n+1) + Pf(n)
# produces from 2, 5
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
class Claim:
    name: str
    kind: str
    bound: Any
    measure: Callable[[int, int], Any]

    def check(self, seed: int, trials: int) -> dict:
        return check_record(self.name, self.kind, self.measure(seed, trials),
                            self.bound)


def _invariance(strands: int, seed: int, trials: int) -> float:
    """Worst deviation of the form under every generator and its inverse."""
    worst = 0.0
    for k in range(1, strands):
        for sign in (1, -1):
            worst = max(worst, symplectic.check_braid_invariance(
                braid.BraidWord(strands, (sign * k,)), trials, seed))
    return worst


def _form_ranks(pairs: int, seed: int, trials: int) -> list[int]:
    """The distinct form ranks at 100 random product-one points."""
    pts = symplectic.random_k_points(pairs, 100, np.random.default_rng(seed))
    return sorted({symplectic.nondegeneracy_rank(p) for p in pts})


def _random_word_images(strands: int, seed: int, trials: int,
                        words: int = 20) -> float:
    """Worst |form| over the images under 20 random words of length 1..8."""
    rng = np.random.default_rng(seed + strands)
    worst = 0.0
    for _ in range(words):
        length = int(rng.integers(1, 9))
        letters = tuple(
            int(rng.integers(1, strands)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(length))
        worst = max(worst, symplectic.check_gamma_lagrangian(
            braid.BraidWord(strands, letters), trials, seed))
    return worst


@functools.cache
def _monotonicity() -> symplectic.MonotonicityReport:
    """Shared by four claims; `run` clears it so that each run measures it
    once."""
    return symplectic.monotonicity_ratio()


@functools.cache
def _hprime_pfaffians() -> tuple[int, ...]:
    """Pf(H'(n)) for every n in HESSIAN_SIZES from one elimination of the
    largest H', of which each smaller one is the leading block.  Shared by
    two claims; `run` clears it so that each run eliminates once."""
    return tuple(hessian.leading_pfaffians(
        hessian.build_hprime(HESSIAN_SIZES[-1])))


def clear_memos() -> None:
    """Forget every memoised measurement: the Hessians H(n) and H'(n), the
    Hessian spectra, the leading Pfaffians of H'(8), the contour
    determinants (both contours), their windings and the monotonicity
    report.  Each run and each report command starts here, so none of them
    reads a value an earlier one left behind."""
    _monotonicity.cache_clear()
    _hprime_pfaffians.cache_clear()
    hessian.build_hessian.cache_clear()
    hessian.build_hprime.cache_clear()
    hessian.spectrum.cache_clear()
    chern._first_contour.cache_clear()
    chern._second_contour.cache_clear()
    chern._winding.cache_clear()


CLAIMS: tuple[Claim, ...] = (
    *(Claim(f"symplectic.invariance_all_generators_{s}_strands", "abs_le", 1e-10,
            functools.partial(_invariance, s))
      for s in (4, 6, 8)),
    *(Claim(f"symplectic.form_rank_on_{n}_pair_product_one_locus", "equals",
            [4 * n], functools.partial(_form_ranks, n))
      for n in (2, 3)),
    Claim("lagrangian.doubled_word_image", "abs_le", 1e-10,
          lambda seed, trials: symplectic.check_gamma_lagrangian(
              symplectic.sigma_tilde(braid.knot_by_name("3_1").word), trials, seed)),
    Claim("lagrangian.identity_4_strands", "abs_le", 1e-10,
          lambda seed, trials: symplectic.check_gamma_lagrangian(
              braid.BraidWord(4, ()), trials, seed)),
    Claim("lagrangian.random_words_4_strands", "abs_le", 1e-10,
          functools.partial(_random_word_images, 4)),
    Claim("lagrangian.identity_6_strands", "abs_le", 1e-10,
          lambda seed, trials: symplectic.check_gamma_lagrangian(
              braid.BraidWord(6, ()), trials, seed)),
    Claim("lagrangian.random_words_6_strands", "abs_le", 1e-10,
          functools.partial(_random_word_images, 6)),
    Claim("hessian.parity_swap_negates", "equals", [True] * 7,
          lambda *_: [hessian.check_php(n) for n in HESSIAN_SIZES]),
    Claim("hessian.signature_zero", "equals", [0] * 7,
          lambda *_: [hessian.signature(n) for n in HESSIAN_SIZES]),
    Claim("hessian.min_abs_eigenvalue", "gt", 1e-2,
          lambda *_: min(hessian.min_abs_eigenvalue(n) for n in HESSIAN_SIZES)),
    Claim("hessian.pfaffian_recurrence_vs_direct", "equals", PFAFFIANS_2_TO_8,
          lambda *_: list(_hprime_pfaffians())),
    Claim("hessian.pfaffian_table", "equals", PFAFFIANS_2_TO_8,
          lambda *_: hessian.pfaffian_recurrence(8)),
    Claim("hessian.det_equals_pfaffian_fourth", "equals", [True] * 3,
          lambda *_: [
              hessian.det_factorization(n, _hprime_pfaffians()[n - 2]).matches
              for n in (2, 3, 4)]),
    Claim("chern.modulus_deviation_first_contour", "abs_le", 1e-9,
          lambda *_: chern.modulus_deviation()),
    Claim("chern.modulus_deviation_second_contour", "abs_le", 1e-9,
          lambda *_: chern.modulus_deviation(second_contour=True)),
    Claim("chern.junction_gap_max", "abs_le", 1e-9,
          lambda *_: float(np.max(chern.junction_gaps()))),
    Claim("chern.winding_first_contour", "equals", -1,
          lambda *_: chern.winding_number()),
    Claim("chern.winding_second_contour", "equals", -1,
          lambda *_: chern.winding_number(second_contour=True)),
    Claim("chern.chern_pairing", "equals", -2, lambda *_: chern.chern_pairing()),
    Claim("monotone.cylinder_integral_plus_pi_squared", "abs_le", 1e-8,
          lambda *_: _monotonicity().fn_integral + math.pi ** 2),
    Claim("monotone.cap_pullback_max", "abs_le", 1e-12,
          lambda *_: symplectic.cap_pullback_max(2)),
    Claim("monotone.adjacent_pair_sphere_form_max", "abs_le", 1e-12,
          lambda *_: _monotonicity().gamma_form_max),
    Claim("monotone.chern_pairing", "equals", -2,
          lambda *_: _monotonicity().chern_pairing),
    Claim("monotone.ratio_minus_half_pi_squared", "abs_le", 1e-6,
          lambda *_: _monotonicity().ratio - math.pi ** 2 / 2.0),
)

SUITES = tuple(dict.fromkeys(c.name.partition(".")[0] for c in CLAIMS))


def run(names: Iterable[str], seed: int = 0, trials: int = 1000) -> list[dict]:
    """Check records of the named claims, in registry order."""
    wanted = set(names)
    unknown = wanted - {c.name for c in CLAIMS}
    if unknown:
        raise KeyError(f"unknown claims: {sorted(unknown)}")
    clear_memos()
    return [c.check(seed, trials) for c in CLAIMS if c.name in wanted]
