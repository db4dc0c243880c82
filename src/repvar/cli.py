"""Command-line front door.

Verbs: ``variety`` (solve a braid closure's trace-free variety),
``invariants`` (exact Alexander / determinant / component prediction) and
``verify`` (run the registered claims with pass/fail scorecard; the paper's
Hessian and first-Chern claims are its ``hessian`` and ``chern`` suites).
Every invocation appends its schema-versioned JSON record, one line of
compact JSON, to ``records.jsonl`` in the run directory; ``variety`` (its
census) and ``verify`` exit nonzero iff a check fails.  Flags mirror to
environment variables with the REPVAR_ prefix (command-qualified, e.g.
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

from . import __version__, claims
from .braid import (BraidWord, closure_components, knot_by_name, knot_name,
                    parse_braid)

SCHEMA_VERSION = 2
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


# an append never truncates or overwrites a record another invocation wrote
_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND
RECORD_LOG = "records.jsonl"


def _persist(run_dir: str, command: str, results: dict,
             checks: list[dict]) -> tuple[dict, str]:
    """Append the record to the run directory's log as one line.

    Its config is exactly the command's parsed options.  The line goes out in
    one write, and a short write raises: a second write could land after
    another process's line.  The directory is made only when the first open
    finds it missing.  Returns the record and its JSON text (the line without
    its newline), which `_emit` echoes.
    """
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": dict(click.get_current_context().params),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "versions": {"repvar": __version__, "numpy": np.__version__},
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    # compact, so that the C encoder writes it (indent selects the Python one)
    text = json.dumps(record, sort_keys=True, default=_jsonable)
    data = (text + "\n").encode()
    path = os.path.join(run_dir, RECORD_LOG)
    try:
        fd = os.open(path, _APPEND, 0o666)
    except FileNotFoundError:
        os.makedirs(run_dir, exist_ok=True)
        fd = os.open(path, _APPEND, 0o666)
    try:
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"short write to {path}: {written} of {len(data)} bytes")
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
    return [f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: "
            f"{claims.describe(c)}" for c in checks]


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
                      help="directory of the record log, records.jsonl")(fn)
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
@_io_options
@click.pass_context
def variety(ctx, name, braid_text, seeds, seed, as_json, run_dir) -> None:
    """Solve for the components of the variety of a braid closure; exit
    nonzero iff its census differs from the reference census of its word."""
    from . import solver  # imported here, so that `verify` never loads it
    from .invariants import load_khovanov_ranks

    label, word = _resolve_word(name, braid_text)
    ranks = load_khovanov_ranks()
    report = solver.solve(word, solver.SolverConfig(
        rng_seed=seed, **({} if seeds is None else {"seeds": seeds})))

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
            {**dataclasses.asdict(c),
             "representative": c.representative.as_array().tolist()}
            for c in report.components
        ],
    }
    rank = solver.variety_rank(c.topology_tag for c in report.components)
    knot = knot_name(word)
    if report.components and rank is not None and knot in ranks:
        results["khovanov"] = {"variety_rank": rank,
                               "khovanov_rank": ranks[knot],
                               "matches": rank == ranks[knot]}

    checks = claims.census_checks(report)
    record, text = _persist(run_dir, "variety", results, checks)
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
    lines += _check_table(checks)
    _emit(text, as_json, lines)
    if not record["passed"]:
        ctx.exit(1)


@cli.command()
@click.option("--name", default=None, help="knot from the shipped table")
@click.option("--braid", "braid_text", default=None,
              help='braid word, e.g. "2: 1 1 1"')
@_io_options
def invariants(name, braid_text, as_json, run_dir) -> None:
    """Exact Alexander polynomial, determinant, component prediction."""
    from . import invariants as invariants_mod  # as `solver` in `variety`

    label, word = _resolve_word(name, braid_text)
    pieces = closure_components(word)
    if pieces != 1:
        raise click.UsageError(
            f"closure of {label!r} is a {pieces}-component link; "
            "invariants need a knot")
    ranks = invariants_mod.load_khovanov_ranks()
    poly = invariants_mod.alexander(word)
    det = poly.determinant()
    prediction = invariants_mod.two_bridge_prediction(det)
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
    knot = knot_name(word)
    if knot in ranks:
        results["khovanov_rank"] = ranks[knot]
        results["prediction_matches_khovanov"] = (
            prediction.cohomology_rank == ranks[knot])

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


def main() -> None:
    cli(auto_envvar_prefix="REPVAR")


if __name__ == "__main__":
    main()
