"""Command-line front door.

Verbs: ``variety`` (solve a braid closure's trace-free variety),
``invariants`` (exact Alexander / determinant / component prediction),
``verify`` (run the registered claims with pass/fail scorecard), ``hessian``
and ``chern`` (emit those modules' reports).  Every invocation persists a
schema-versioned JSON record to the run directory; ``verify``, ``hessian``
and ``chern`` exit nonzero iff a check fails.  Flags mirror to environment
variables with the REPVAR_ prefix (command-qualified, e.g.
REPVAR_VARIETY_SEEDS); explicit flags win.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__, chern as chern_mod, claims, hessian as hessian_mod
from .braid import BraidWord, closure_components, knot_by_name, parse_braid
from .invariants import (
    alexander,
    compare_khovanov,
    determinant,
    load_khovanov_ranks,
    two_bridge_prediction,
)
from .claims import check_record, describe
from .solver import SolverConfig, solve, variety_rank

SCHEMA_VERSION = 1
VERIFY_SUITES = (*claims.SUITES, "all")


# --- record plumbing ---------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


# a record file is always new: never truncate one another invocation wrote
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def _create_record_file(run_dir: str, stem: str) -> int:
    """Open ``{stem}.json`` in ``run_dir`` for writing, as a new file.

    A name already taken (two invocations in the same microsecond) gets a
    ``-1``, ``-2``, ... suffix instead of overwriting the other record.  The
    directory is made only when the first open finds it missing.
    """
    taken = 0
    made_dir = False
    while True:
        name = f"{stem}-{taken}.json" if taken else f"{stem}.json"
        try:
            return os.open(os.path.join(run_dir, name), _NEW_FILE, 0o666)
        except FileExistsError:
            taken += 1
        except FileNotFoundError:
            if made_dir:
                raise
            os.makedirs(run_dir, exist_ok=True)
            made_dir = True


def _persist(run_dir: str, command: str, results: dict,
             checks: list[dict]) -> tuple[dict, str]:
    """Write the record; its config is exactly the command's parsed options.

    Returns the record and the JSON text written, which `_emit` echoes.
    """
    now = datetime.now(timezone.utc)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": dict(click.get_current_context().params),
        "timestamp": now.isoformat(),
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    text = json.dumps(record, indent=2, sort_keys=True, default=_jsonable)
    data = memoryview(text.encode())
    fd = _create_record_file(
        run_dir, f"{command}-{now.strftime('%Y%m%dT%H%M%S%f')}")
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    return record, text


def _emit(text: str, as_json: bool, table_lines: list[str]) -> None:
    # An explicit file: click's cache for its default stdout keeps a
    # redirected io.StringIO alive for the life of the process.
    if as_json:
        click.echo(text, file=sys.stdout)
    else:
        for line in table_lines:
            click.echo(line, file=sys.stdout)


def _check_table(checks: list[dict]) -> list[str]:
    return [f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {describe(c)}"
            for c in checks]


def _resolve_word(name: str | None, braid_text: str | None) -> tuple[str, BraidWord]:
    if (name is None) == (braid_text is None):
        raise click.UsageError("give exactly one of --name or --braid")
    if name is not None:
        try:
            return name, knot_by_name(name).word
        except KeyError as exc:
            raise click.UsageError(str(exc)) from None
    try:
        return braid_text, parse_braid(braid_text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _io_options(fn):
    fn = click.option("--run-dir", default="runs", show_default=True,
                      type=click.Path(file_okay=False),
                      help="directory for the per-invocation JSON record")(fn)
    fn = click.option("--json/--table", "as_json", default=False,
                      show_default=True, help="stdout format")(fn)
    return fn


# --- commands ----------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="repvar")
def cli() -> None:
    """Trace-free SU(2) representation varieties of braid closures."""


@cli.command()
@click.option("--name", default=None, help="knot from the shipped table")
@click.option("--braid", "braid_text", default=None,
              help='braid word, e.g. "3: 1 -2 1 -2"')
@click.option("--seeds", type=click.IntRange(min=1), default=None,
              help="random solver restarts [default: solver's 1536]")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="RNG seed")
@click.option("--tol", type=float, default=None,
              help="survivor residual tolerance [default: solver's 1e-12]")
@click.option("--link-radius", type=click.FloatRange(min=0, min_open=True), default=None,
              help="clustering radius [default: solver's 0.15]")
@click.option("--khovanov-csv", type=click.Path(exists=True, dir_okay=False),
              default=None, help="'name,rank' CSV overriding the shipped one")
@_io_options
def variety(name, braid_text, seeds, seed, tol, link_radius, khovanov_csv,
            as_json, run_dir) -> None:
    """Solve for the components of the variety of a braid closure."""
    label, word = _resolve_word(name, braid_text)
    config = SolverConfig(rng_seed=seed)
    overrides = {}
    if seeds is not None:
        overrides["seeds"] = seeds
    if tol is not None:
        overrides["descent_tol"] = tol
    if link_radius is not None:
        overrides["link_radius"] = link_radius
    config = dataclasses.replace(config, **overrides)
    report = solve(word, config)

    results = {
        "input": label,
        "strands": word.strands,
        "letters": list(word.letters),
        "closure_components": closure_components(word),
        "full_variety": report.full_variety,
        "note": report.note,
        "seeds_total": report.seeds_total,
        "seeds_converged": report.seeds_converged,
        "component_count": len(report.components),
        "components": [
            {
                "id": c.id,
                "topology_tag": c.topology_tag,
                "est_dimension": c.est_dimension,
                "sample_count": c.sample_count,
                "residual": c.residual,
                "is_abelian": c.is_abelian,
                "is_binary_dihedral": c.is_binary_dihedral,
                "null_gap": c.null_gap,
                "representative": c.representative.as_array().tolist(),
            }
            for c in report.components
        ],
    }
    rank = variety_rank(c.topology_tag for c in report.components)
    if (results["closure_components"] == 1 and report.components
            and rank is not None):
        try:
            cmp_report = compare_khovanov(label, rank, khovanov_csv)
        except KeyError:
            cmp_report = None
        if cmp_report is not None:
            results["khovanov"] = {
                "variety_rank": cmp_report.variety_rank,
                "khovanov_rank": cmp_report.khovanov_rank,
                "matches": cmp_report.matches,
            }

    _, text = _persist(run_dir, "variety", results, [])
    lines = [f"{label}: {len(report.components)} component(s), "
             f"{report.seeds_converged}/{report.seeds_total} seeds converged"]
    if report.full_variety:
        lines.append(f"  note: {report.note}")
    for c in report.components:
        lines.append(
            f"  [{c.id}] dim={c.est_dimension} tag={c.topology_tag} "
            f"samples={c.sample_count} residual={c.residual:.2e}")
    if "khovanov" in results:
        kh = results["khovanov"]
        verdict = "match" if kh["matches"] else "MISMATCH"
        lines.append(f"  khovanov: variety rank {kh['variety_rank']} vs "
                     f"{kh['khovanov_rank']} ({verdict})")
    _emit(text, as_json, lines)


@cli.command()
@click.option("--name", default=None, help="knot from the shipped table")
@click.option("--braid", "braid_text", default=None,
              help='braid word, e.g. "2: 1 1 1"')
@click.option("--khovanov-csv", type=click.Path(exists=True, dir_okay=False),
              default=None, help="'name,rank' CSV overriding the shipped one")
@_io_options
def invariants(name, braid_text, khovanov_csv, as_json, run_dir) -> None:
    """Exact Alexander polynomial, determinant, component prediction."""
    label, word = _resolve_word(name, braid_text)
    pieces = closure_components(word)
    if pieces != 1:
        raise click.UsageError(
            f"closure of {label!r} is a {pieces}-component link; "
            "invariants need a knot")
    poly = alexander(word)
    det = determinant(word)
    prediction = two_bridge_prediction(det)
    results = {
        "input": label,
        "strands": word.strands,
        "letters": list(word.letters),
        "alexander": {
            "text": str(poly),
            "min_exp": poly.min_exp,
            "coeffs": list(poly.coeffs),
        },
        "determinant": det,
        "two_bridge_prediction": dataclasses.asdict(prediction),
    }
    try:
        ranks = load_khovanov_ranks(khovanov_csv)
        if label in ranks:
            results["khovanov_rank"] = ranks[label]
            results["prediction_matches_khovanov"] = (
                prediction.cohomology_rank == ranks[label])
    except OSError:
        pass

    _, text = _persist(run_dir, "invariants", results, [])
    lines = [
        f"{label}: Alexander {poly}",
        f"  determinant {det}",
        f"  two-bridge prediction: 1 sphere + {prediction.projective_spaces} "
        f"RP^3 = {prediction.total_components} components, "
        f"cohomology rank {prediction.cohomology_rank}",
    ]
    if "khovanov_rank" in results:
        lines.append(f"  khovanov rank {results['khovanov_rank']} "
                     f"(prediction {'matches' if results['prediction_matches_khovanov'] else 'differs'})")
    _emit(text, as_json, lines)


@cli.command()
@click.argument("which", type=click.Choice(VERIFY_SUITES))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=1000, show_default=True,
              help="random frame pairs per invariance/vanishing check")
@_io_options
@click.pass_context
def verify(ctx, which, seed, trials, as_json, run_dir) -> None:
    """Run a suite of the paper's claims; exit nonzero iff any check fails."""
    checks = claims.run(
        (c.name for c in claims.CLAIMS
         if which == "all" or c.name.startswith(f"{which}.")),
        seed, trials)
    results = {"suite": which, "trials": trials,
               "failed": [c["name"] for c in checks if not c["passed"]]}
    record, text = _persist(run_dir, "verify", results, checks)
    lines = []
    if not as_json:
        lines = _check_table(checks)
        lines.append("all checks passed" if record["passed"]
                     else f"{len(results['failed'])} check(s) FAILED")
    _emit(text, as_json, lines)
    if not record["passed"]:
        ctx.exit(1)


@cli.command(name="hessian")
@click.option("--n", "pairs", type=click.IntRange(min=2), default=4, show_default=True,
              help="number of sphere pairs")
@_io_options
@click.pass_context
def hessian_cmd(ctx, pairs, as_json, run_dir) -> None:
    """Integer Hessian report: matrix, signature, Pfaffian table."""
    claims.clear_memos()
    fact = hessian_mod.det_factorization(pairs)
    table_max = max(pairs, 3)
    results = {
        "n": pairs,
        "matrix": hessian_mod.build_hessian(pairs).tolist(),
        "signature": hessian_mod.signature(pairs),
        "min_abs_eigenvalue": hessian_mod.min_abs_eigenvalue(pairs),
        "hprime": hessian_mod.build_hprime(pairs).tolist(),
        "pfaffian_table": hessian_mod.pfaffian_recurrence(table_max),
        "hessian_det": fact.hessian_det,
        "hprime_pfaffian": fact.hprime_pfaffian,
    }
    checks = [
        check_record("parity_swap_negates", "equals",
                     hessian_mod.check_php(pairs), True),
        check_record("signature_zero", "equals", results["signature"], 0),
        check_record("det_equals_pfaffian_fourth", "equals", fact.matches, True),
        check_record("recurrence_matches_direct", "equals",
                     results["pfaffian_table"][pairs - 2], fact.hprime_pfaffian),
    ]
    record, text = _persist(run_dir, "hessian", results, checks)
    lines = [f"n={pairs}: signature {results['signature']}, "
             f"min |eig| {results['min_abs_eigenvalue']:.4f}, "
             f"det {fact.hessian_det} = {fact.hprime_pfaffian}^4",
             f"Pfaffian table (n=2..{table_max}): {results['pfaffian_table']}"]
    lines += _check_table(checks)
    _emit(text, as_json, lines)
    if not record["passed"]:
        ctx.exit(1)


@cli.command(name="chern")
@click.option("--samples",
              type=click.IntRange(min=chern_mod.MIN_SAMPLES_PER_SEGMENT),
              default=64, show_default=True, help="samples per contour segment")
@_io_options
@click.pass_context
def chern_cmd(ctx, samples, as_json, run_dir) -> None:
    """Contour report: determinant modulus, junctions, windings, pairing."""
    claims.clear_memos()
    modulus_first = chern_mod.modulus_deviation(samples)
    modulus_second = chern_mod.modulus_deviation(samples, second_contour=True)
    junctions = chern_mod.junction_gaps(samples)
    winding_first = chern_mod.winding_number(samples)
    winding_second = chern_mod.winding_number(samples, second_contour=True)
    results = {
        "samples_per_segment": samples,
        "modulus_deviation_first_contour": modulus_first,
        "modulus_deviation_second_contour": modulus_second,
        "junction_gaps": junctions.tolist(),
        "winding_first_contour": winding_first,
        "winding_second_contour": winding_second,
        "pairing": winding_first + winding_second,
    }
    checks = [
        check_record("per_segment_modulus_first", "abs_le", modulus_first, 1e-9),
        check_record("per_segment_modulus_second", "abs_le", modulus_second, 1e-9),
        check_record("junction_gap_max", "abs_le", float(np.max(junctions)), 1e-9),
        check_record("winding_first_contour", "equals", winding_first, -1),
        check_record("winding_second_contour", "equals", winding_second, -1),
        check_record("pairing", "equals", results["pairing"], -2),
    ]
    record, text = _persist(run_dir, "chern", results, checks)
    lines = [f"windings {winding_first} + {winding_second} = "
             f"{results['pairing']}"]
    lines += _check_table(checks)
    _emit(text, as_json, lines)
    if not record["passed"]:
        ctx.exit(1)


def main() -> None:
    cli(auto_envvar_prefix="REPVAR")


if __name__ == "__main__":
    main()
