"""Workload operations and the reference answers they are checked against.

Every reference here is written out from the paper's statements (or read
from the determinant column of the shipped braid table), never computed by
the package under test:

* two-bridge knots: one abelian S2 plus (det - 1) / 2 copies of RP3;
* 9_42: dimensions [2] + [3] * 7 with exactly one abelian component, of
  dimension 2;
* square knot: dimensions [2, 3, 3, 4];
* T(2, n): the diagonal S2 at angle 0, the antidiagonal S2 at angle pi when
  n is even, and one RP3 at each angle 2 pi j / n, 1 <= j <= (n - 1) / 2,
  angles between the two coordinates of the representative checked to 1e-6;
* the verify suites: every check the CLI reports, by name, against the
  tolerance or exact value the paper states.

A check returns None when the output is correct and a one-line reason when
it is not.  The benchmark never trusts a pass/fail flag the program sets on
its own output.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

TWO_BRIDGE = ("3_1", "4_1", "5_1", "5_2", "6_1", "7_1")
TORUS_SWEEP = tuple(range(2, 11))
TORUS_LONG = tuple(range(11, 42, 3))
ANGLE_TOL = 1e-6

# Pf(build_hprime(n)) for n = 2..8: Pf(n + 2) = 2 Pf(n + 1) + Pf(n) from 2, 5.
PFAFFIANS_2_TO_8 = [2, 5, 12, 29, 70, 169, 408]

# suite -> check name -> (kind, reference).  "le": |value| <= bound,
# "gt": value > bound, "eq": value == reference exactly.
VERIFY_REFERENCE: dict[str, dict[str, tuple[str, Any]]] = {
    "symplectic": {
        "invariance_all_generators_4_strands": ("le", 1e-10),
        "invariance_all_generators_6_strands": ("le", 1e-10),
        "invariance_all_generators_8_strands": ("le", 1e-10),
        "form_rank_on_2_pair_product_one_locus": ("eq", [8]),
        "form_rank_on_3_pair_product_one_locus": ("eq", [12]),
    },
    "lagrangian": {
        "doubled_word_image": ("le", 1e-10),
        "identity_4_strands": ("le", 1e-10),
        "identity_6_strands": ("le", 1e-10),
        "random_words_4_strands": ("le", 1e-10),
        "random_words_6_strands": ("le", 1e-10),
    },
    "hessian": {
        "parity_swap_negates": ("eq", [True] * 7),
        "signature_zero": ("eq", [0] * 7),
        "min_abs_eigenvalue": ("gt", 1e-2),
        "pfaffian_recurrence_vs_direct": ("eq", PFAFFIANS_2_TO_8),
        "pfaffian_table": ("eq", PFAFFIANS_2_TO_8),
        "det_equals_pfaffian_fourth": ("eq", [True] * 3),
    },
    "chern": {
        "modulus_deviation_first_contour": ("le", 1e-9),
        "modulus_deviation_second_contour": ("le", 1e-9),
        "junction_gap_max": ("le", 1e-9),
        "winding_first_contour": ("eq", -1),
        "winding_second_contour": ("eq", -1),
        "chern_pairing": ("eq", -2),
    },
    "monotone": {
        "cylinder_integral_plus_pi_squared": ("le", 1e-8),
        "cap_pullback_max": ("le", 1e-12),
        "adjacent_pair_sphere_form_max": ("le", 1e-12),
        "chern_pairing": ("eq", -2),
        "ratio_minus_half_pi_squared": ("le", 1e-6),
    },
}


@dataclass(frozen=True)
class Op:
    """One unit of work: `call(op_seed)` runs the program, `check(output)`
    judges it, `info(output)` extracts counters for the trace.  `root` names
    the span that brackets the op in a traced run."""

    name: str
    call: Callable[[int], Any]
    check: Callable[[Any], str | None]
    info: Callable[[Any], dict] = field(default=lambda out: {})
    root: str = "op"


# --- reference censuses ------------------------------------------------------


def table_determinants(braids_txt: Path) -> dict[str, int]:
    """The determinant column of the shipped braid table, parsed here rather
    than through the package's loader."""
    dets = {}
    for line in braids_txt.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            cols = [c.strip() for c in line.split(";")]
            dets[cols[0]] = int(cols[3])
    return dets


def torus_reference(n: int) -> list[tuple[str, int, float]]:
    """(tag, dimension, angle) of every component of T(2, n)'s variety."""
    out = [("S2", 2, 0.0)]
    if n % 2 == 0:
        out.append(("S2", 2, math.pi))
    out += [("RP3", 3, 2.0 * math.pi * j / n) for j in range(1, (n - 1) // 2 + 1)]
    return sorted(out)


def _nonfinite(report) -> str | None:
    for c in report.components:
        rep = np.asarray(c.representative.as_array(), dtype=float)
        if not (np.all(np.isfinite(rep)) and math.isfinite(c.residual)):
            return f"non-finite component {c.id}"
    return None


def check_knot(name: str, det: int, report) -> str | None:
    """Census of a table knot against its reference."""
    if report.full_variety:
        return "reported the full variety"
    bad = _nonfinite(report)
    if bad:
        return bad
    comps = report.components
    dims = sorted(c.est_dimension for c in comps)
    abelian = [c for c in comps if c.is_abelian]
    if name in TWO_BRIDGE:
        want = sorted([("S2", 2)] + [("RP3", 3)] * ((det - 1) // 2))
        got = sorted((c.topology_tag, c.est_dimension) for c in comps)
        if got != want or len(abelian) != 1:
            return f"census {got} ({len(abelian)} abelian), want {want} (1 abelian)"
    elif name == "9_42":
        if dims != [2] + [3] * 7 or len(abelian) != 1 or abelian[0].est_dimension != 2:
            return f"dims {dims} with {len(abelian)} abelian, want [2]+[3]*7 with one abelian dim 2"
    elif name == "square":
        if dims != [2, 3, 3, 4]:
            return f"dims {dims}, want [2, 3, 3, 4]"
    else:
        return f"no reference census for {name}"
    return None


def check_torus(n: int, report) -> str | None:
    """Census and angles of T(2, n) against the closed form."""
    if report.full_variety:
        return "reported the full variety"
    bad = _nonfinite(report)
    if bad:
        return bad
    want = torus_reference(n)
    got = sorted((c.topology_tag, c.est_dimension) for c in report.components)
    if got != [(t, d) for t, d, _ in want]:
        return f"census {got}, want {[(t, d) for t, d, _ in want]}"
    angles = []
    for c in report.components:
        p = np.asarray(c.representative.as_array(), dtype=float)
        angles.append(math.acos(float(np.clip(np.dot(p[0], p[1]), -1.0, 1.0))))
    worst = float(np.max(np.abs(np.sort(angles) - np.sort([a for *_, a in want]))))
    if not worst < ANGLE_TOL:
        return f"angle error {worst:.2e} >= {ANGLE_TOL:.0e}"
    return None


def check_verify(suite: str, outcome: tuple[Any, str]) -> str | None:
    """A `repvar verify <suite> --json` call: exit code, then every check's
    value against the benchmark's own reference."""
    code, stdout = outcome
    if code not in (None, 0):
        return f"exit code {code}"
    record = json.loads(stdout)
    want = VERIFY_REFERENCE[suite]
    seen = {}
    for c in record["checks"]:
        prefix, _, name = c["name"].partition(".")
        if prefix != suite:
            return f"check {c['name']} outside suite {suite}"
        seen[name] = c["value"]
    if sorted(seen) != sorted(want):
        return f"checks {sorted(seen)}, want {sorted(want)}"
    for name, (kind, ref) in want.items():
        value = seen[name]
        if kind == "eq":
            ok = value == ref
        elif kind == "le":
            ok = math.isfinite(value) and abs(value) <= ref
        else:
            ok = math.isfinite(value) and value > ref
        if not ok:
            return f"{suite}.{name} = {value!r}, want {kind} {ref!r}"
    return None


# --- workloads ----------------------------------------------------------------


def _solve_info(report) -> dict:
    return {
        "seeds_total": report.seeds_total,
        "seeds_converged": report.seeds_converged,
        "components": len(report.components),
    }


def _solve_op(name, word, check) -> Op:
    from repvar import solver

    # solver.solve is looked up per call so a traced run sees its wrapper
    return Op(
        name=name,
        call=lambda s: solver.solve(word, solver.SolverConfig(rng_seed=s)),
        check=check,
        info=_solve_info,
    )


def knot_table_ops(root: Path) -> list[Op]:
    from repvar.braid import load_knot_table

    dets = table_determinants(root / "src" / "repvar" / "data" / "braids.txt")
    return [
        _solve_op(name, entry.word, lambda r, name=name: check_knot(name, dets[name], r))
        for name, entry in load_knot_table().items()
    ]


def torus_ops(ns) -> list[Op]:
    from repvar.braid import BraidWord

    return [
        _solve_op(f"T(2,{n})", BraidWord(2, (1,) * n), lambda r, n=n: check_torus(n, r))
        for n in ns
    ]


def verify_ops(run_dir: Path, suites) -> list[Op]:
    from repvar import cli

    def call(suite, s):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.cli.main(
                ["verify", suite, "--seed", str(s), "--json", "--run-dir", str(run_dir)],
                prog_name="repvar",
                standalone_mode=False,
            )
        return code, out.getvalue()

    return [
        Op(
            name=suite,
            call=lambda s, suite=suite: call(suite, s),
            check=lambda out, suite=suite: check_verify(suite, out),
            root="cli",
        )
        for suite in suites
    ]
