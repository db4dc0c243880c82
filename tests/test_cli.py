"""Command-line surface: verbs, reports on disk, exit codes, env overrides."""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import weakref
from datetime import datetime, timezone
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import repvar
from repvar import chern, claims
from repvar.cli import RECORD_LOG, SCHEMA_VERSION, cli
from repvar.solver import NULL_TOL, solve

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, tmp_path, args, env=None):
    return runner.invoke(
        cli,
        [*args, "--run-dir", str(tmp_path)],
        env=env,
        auto_envvar_prefix="REPVAR",
        catch_exceptions=False,
    )


def _lines(run_dir):
    """The lines of the run directory's record log, newlines kept."""
    return (run_dir / RECORD_LOG).read_bytes().splitlines(keepends=True)


def _record(tmp_path, command):
    records = [json.loads(line) for line in _lines(tmp_path)]
    records = [r for r in records if r["command"] == command]
    assert records, f"no {command} record written"
    return records[-1]


# --- variety ---------------------------------------------------------------------


def test_variety_by_name(runner, tmp_path):
    result = _run(
        runner, tmp_path, ["variety", "--name", "3_1", "--seeds", "192", "--json"]
    )
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["command"] == "variety"
    assert record["passed"] is True
    assert [c["name"] for c in record["checks"]] == [
        "census.components", "census.abelian_dimensions",
        "census.binary_dihedral", "census.torus_components",
        "census.torus_angles"]
    comps = record["results"]["components"]
    assert len(comps) == 2
    tags = sorted(c["topology_tag"] for c in comps)
    assert tags == ["RP3", "S2"]
    # each tag comes with the singular values on either side of its gap
    for c in comps:
        zero, nonzero = c["null_gap"]
        assert zero < NULL_TOL < nonzero
    kh = record["results"]["khovanov"]
    assert kh["variety_rank"] == 4 and kh["matches"] is True
    # and the same record landed in the run directory
    on_disk = _record(tmp_path, "variety")
    assert on_disk["results"] == record["results"]


def test_variety_by_braid_text(runner, tmp_path):
    result = _run(
        runner, tmp_path,
        ["variety", "--braid", "2: 1 1 1", "--seeds", "160", "--table"],
    )
    assert result.exit_code == 0, result.output
    assert "component(s)" in result.output
    assert "tag=" in result.output
    assert "PASS  census.torus_angles: " in result.output
    # the word is 3_1's, so the rank is 3_1's though the label is the word
    assert "khovanov: variety rank 4 vs 4 (match)" in result.output
    assert _record(tmp_path, "variety")["results"]["khovanov"] == {
        "variety_rank": 4, "khovanov_rank": 4, "matches": True}


def test_variety_fails_on_a_census_one_component_short(runner, tmp_path,
                                                       monkeypatch):
    def short(word, config):
        report = solve(word, config)
        return dataclasses.replace(report, components=report.components[1:])

    monkeypatch.setattr("repvar.solver.solve", short)
    args = ["variety", "--name", "3_1", "--seeds", "192"]
    table = _run(runner, tmp_path, [*args, "--table"])
    assert table.exit_code == 1
    assert "FAIL  census.components: " in table.output
    assert _record(tmp_path, "variety")["passed"] is False
    as_json = _run(runner, tmp_path, [*args, "--json"])
    assert as_json.exit_code == 1
    assert json.loads(as_json.output)["passed"] is False


@pytest.mark.parametrize("text, names", [
    # no reference census, which fails the record; and its abelian group
    # (a, a, -a) has nullity 4 on the S2 x S2 it lies on and is tagged UNKNOWN
    ("3: 1 1", ["census.covered", "census.unknown_components"]),
    ("2: 1 -1 1", ["census.abelian_dimensions", "census.binary_dihedral",
                   "census.torus_components", "census.torus_angles"]),
])
def test_variety_checks_the_reference_census_of_its_word(runner, tmp_path,
                                                         text, names):
    result = _run(runner, tmp_path,
                  ["variety", "--braid", text, "--seeds", "128", "--json"])
    record = json.loads(result.output)
    assert [c["name"] for c in record["checks"]] == names
    uncovered = "census.covered" in names
    assert result.exit_code == int(uncovered), result.output
    assert record["passed"] is not uncovered
    if not uncovered:  # the word is sigma_1: the unknot's one S2, no colouring
        checks = {c["name"]: c for c in record["checks"]}
        assert checks["census.torus_components"]["expected"] == [["S2", 2]]
        assert checks["census.binary_dihedral"]["expected"] == [0, 0]


def test_variety_fails_a_census_with_unknown_components(runner, tmp_path):
    # trefoil beside a free strand: no reference census, and most of its
    # groups are orbits of a 5-dimensional component, each tagged UNKNOWN
    result = _run(runner, tmp_path,
                  ["variety", "--braid", "3: 1 1 1", "--seeds", "128", "--json"])
    assert result.exit_code == 1, result.output
    record = json.loads(result.output)
    unknown = sum(c["topology_tag"] == "UNKNOWN"
                  for c in record["results"]["components"])
    assert unknown > 0
    assert record["checks"] == [{
        "name": "census.covered", "kind": "equals",
        "value": False, "expected": True, "passed": False}, {
        "name": "census.unknown_components", "kind": "equals",
        "value": unknown, "expected": 0, "passed": False}]
    assert record["passed"] is False


@pytest.mark.parametrize("seed", [0, 1])
def test_variety_of_a_rotated_table_word_gets_the_full_census(runner,
                                                              tmp_path, seed):
    # a cyclic rotation of 4_1's word is a conjugate, so `knot_name` finds
    # 4_1 and the solve is held to its whole reference census
    result = _run(runner, tmp_path, ["variety", "--braid", "3: -2 1 -2 1",
                                     "--seed", str(seed), "--json"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    checks = {c["name"]: c for c in record["checks"]}
    assert list(checks) == ["census.components", "census.abelian_dimensions",
                            "census.binary_dihedral"]
    assert checks["census.components"]["expected"] == [
        ["RP3", 3], ["RP3", 3], ["S2", 2]]
    assert record["passed"] is True
    assert record["results"]["khovanov"]["matches"] is True


def test_variety_records_the_planted_abelian_samples(runner, tmp_path):
    # one seed: it is planted, so the record's one component is an S2 that
    # random search did not find, and its census fails
    result = _run(runner, tmp_path,
                  ["variety", "--braid", "2: 1 1 1", "--seeds", "1", "--json"])
    assert result.exit_code == 1
    comps = json.loads(result.output)["results"]["components"]
    assert [(c["topology_tag"], c["sample_count"], c["seeded_samples"])
            for c in comps] == [("S2", 1, 1)]
    result = _run(runner, tmp_path,
                  ["variety", "--braid", "2: 1 1 1 1", "--seeds", "96", "--json"])
    comps = json.loads(result.output)["results"]["components"]
    assert sum(c["seeded_samples"] for c in comps) == 4
    assert all(c["topology_tag"] == "S2" for c in comps if c["seeded_samples"])


def test_variety_requires_exactly_one_word(runner, tmp_path):
    assert _run(runner, tmp_path, ["variety"]).exit_code == 2
    both = _run(
        runner, tmp_path, ["variety", "--name", "3_1", "--braid", "2: 1 1 1"]
    )
    assert both.exit_code == 2


def test_variety_env_var_overrides_seeds(runner, tmp_path):
    result = _run(
        runner, tmp_path, ["variety", "--name", "3_1", "--json"],
        env={"REPVAR_VARIETY_SEEDS": "96"},
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["config"]["seeds"] == 96


def test_variety_is_deterministic(runner, tmp_path):
    args = ["variety", "--braid", "2: 1 1 1 1 1", "--seeds", "128", "--json"]
    r1 = json.loads(_run(runner, tmp_path, args).output)
    r2 = json.loads(_run(runner, tmp_path, args).output)
    assert r1["results"] == r2["results"]


# --- invariants -------------------------------------------------------------------


def test_invariants_for_a_table_knot(runner, tmp_path):
    # by name and by its word: the Khovanov rank is the knot's either way
    for word in (["--name", "4_1"], ["--braid", "3: 1 -2 1 -2"]):
        result = _run(runner, tmp_path, ["invariants", *word, "--json"])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        res = record["results"]
        assert res["input"] == word[1]
        assert res["determinant"] == 5
        assert res["alexander"]["coeffs"] == [-1, 3, -1]
        assert res["two_bridge_prediction"]["total_components"] == 3
        assert res["two_bridge_prediction"]["cohomology_rank"] == 6
        assert res["khovanov_rank"] == 6
        assert res["prediction_matches_khovanov"] is True


def test_invariants_runs_the_burau_chain_once(runner, tmp_path, monkeypatch):
    # the determinant is the Alexander polynomial's, not a second chain's
    from repvar import invariants

    calls = []
    burau = invariants.burau

    def counting(word):
        calls.append(word)
        return burau(word)

    monkeypatch.setattr(invariants, "burau", counting)
    result = _run(runner, tmp_path, ["invariants", "--name", "5_2", "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["determinant"] == 7
    assert len(calls) == 1


def test_invariants_fails_when_the_khovanov_table_cannot_be_read(
        runner, tmp_path, monkeypatch):
    def unreadable(path=None):
        raise OSError("unreadable")

    monkeypatch.setattr("repvar.invariants.load_khovanov_ranks", unreadable)
    result = runner.invoke(
        cli, ["invariants", "--name", "4_1", "--run-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert isinstance(result.exception, OSError)
    assert list(tmp_path.iterdir()) == []


def test_invariants_rejects_links(runner, tmp_path):
    result = runner.invoke(
        cli, ["invariants", "--braid", "2: 1 1", "--run-dir", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "2-component link" in result.output
    assert list(tmp_path.iterdir()) == []


# --- verify -----------------------------------------------------------------------


def test_verify_fast_suites_pass(runner, tmp_path):
    for which in ("hessian", "chern", "monotone"):
        result = _run(runner, tmp_path, ["verify", which, "--json"])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["passed"] is True
        assert all(c["passed"] for c in record["checks"])


def test_verify_checks_repeat_across_runs_in_one_process(runner, tmp_path):
    # the second pair of runs reads the inputs the first built, and must
    # measure the same checks
    checks = {}
    for suite in ("chern", "monotone", "chern", "monotone"):
        result = _run(runner, tmp_path, ["verify", suite, "--json"])
        assert result.exit_code == 0, result.output
        checks.setdefault(suite, []).append(json.loads(result.output)["checks"])
    for suite, (first, second) in checks.items():
        assert second == first, suite


def test_verify_sampling_suites_with_reduced_trials(runner, tmp_path):
    for which in ("symplectic", "lagrangian"):
        result = _run(
            runner, tmp_path, ["verify", which, "--trials", "60", "--json"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["passed"] is True


@pytest.mark.parametrize("suite", ["hessian", "chern", "monotone"])
def test_verify_suites_load_neither_the_solver_nor_numpy_random(tmp_path,
                                                                 suite):
    # a fresh interpreter, so no other test's imports are counted
    script = (
        "import sys\n"
        "from repvar import cli\n"
        f"cli.cli.main(['verify', {suite!r}, '--json', '--run-dir', {str(tmp_path)!r}],\n"
        "             standalone_mode=False)\n"
        "print([m for m in ('numpy.random', 'repvar.solver', 'repvar.invariants')\n"
        "       if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    record, loaded = done.stdout.rstrip().rsplit("\n", 1)
    assert json.loads(record)["passed"] is True
    assert loaded == "[]"


def test_verify_rejects_unknown_suite(runner, tmp_path):
    assert _run(runner, tmp_path, ["verify", "everything"]).exit_code == 2


def test_the_commands_are_variety_invariants_and_verify():
    assert sorted(cli.commands) == ["invariants", "variety", "verify"]


def test_report_commands_do_not_read_an_earlier_run_s_memos(
        runner, tmp_path, monkeypatch):
    claims.run([c.name for c in claims.CLAIMS if c.name.startswith("chern.")])
    claims.run(["hessian.signature_zero"])
    calls = []
    for module, name in ((chern, "determinants"), (np.linalg, "eigvalsh")):
        original = getattr(module, name)

        def counting(m, name=name, original=original):
            calls.append(name)
            return original(m)

        monkeypatch.setattr(module, name, counting)
    assert _run(runner, tmp_path, ["verify", "chern"]).exit_code == 0
    assert calls == ["determinants"]
    calls.clear()
    # one spectrum per Hessian size, n = 2..8
    assert _run(runner, tmp_path, ["verify", "hessian"]).exit_code == 0
    assert calls == ["eigvalsh"] * len(claims.HESSIAN_SIZES)


@pytest.mark.parametrize("args", [
    ["verify", "symplectic", "--trials", "0"],
    ["verify", "symplectic", "--trials", "-1"],
    ["variety", "--name", "3_1", "--seeds", "0"],
    ["variety", "--name", "3_1", "--seeds", "-1"],
    ["variety", "--name", "3_1", "--seeds", "1.5"],
    ["verify", "symplectic", "--trials", "1.5"],
    ["verify", "symplectic", "--seed", "-1"],
    ["variety", "--name", "3_1", "--seed", "-1"],
    ["variety", "--name", "3_1", "--seeds", "nan"],
    ["verify", "symplectic", "--trials", "inf"],
    ["variety", "--name", "3_1", "--seed", "1.5"],
    ["verify", "symplectic", "--seed", "1.5"],
    ["variety", "--name", "3_1", "--seed", "nan"],
    ["verify", "symplectic", "--seed", "inf"],
])
def test_out_of_range_counts_and_radii_are_usage_errors(runner, tmp_path, args):
    result = _run(runner, tmp_path, args)
    assert result.exit_code == 2, result.output


def test_in_process_calls_release_their_stdout_buffer(tmp_path):
    # a caller that redirects stdout per call (as a benchmark loop does) must
    # not have every buffer kept alive by the CLI
    for fmt in ("--json", "--table"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["verify", "hessian", fmt, "--run-dir", str(tmp_path)],
                     standalone_mode=False)
        assert buf.getvalue()
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None, fmt


def test_records_are_written_per_invocation(runner, tmp_path):
    _run(runner, tmp_path, ["verify", "hessian"])
    _run(runner, tmp_path, ["invariants", "--name", "4_1"])
    # one log line per invocation, and no other file in the run directory
    assert [p.name for p in tmp_path.iterdir()] == [RECORD_LOG]
    records = [json.loads(line) for line in _lines(tmp_path)]
    assert [r["command"] for r in records] == ["verify", "invariants"]
    for record in records:
        assert set(record) == {
            "schema_version", "command", "config", "timestamp", "versions",
            "results", "checks", "passed",
        }
        assert record["schema_version"] == SCHEMA_VERSION == 2
        assert record["versions"] == {"repvar": repvar.__version__,
                                      "numpy": np.__version__}


def test_record_timestamp_is_the_clock_reading(runner, tmp_path, monkeypatch):
    ticks = count()

    class TickingClock(datetime):
        """Each read is one microsecond later than the one before."""

        @classmethod
        def now(cls, tz=None):
            return datetime(2026, 1, 2, 3, 4, 5, next(ticks), tzinfo=tz)

    monkeypatch.setattr("repvar.cli.datetime", TickingClock)
    for _ in range(2):
        _run(runner, tmp_path, ["verify", "hessian"])
    assert [json.loads(line)["timestamp"] for line in _lines(tmp_path)] == [
        datetime(2026, 1, 2, 3, 4, 5, k, tzinfo=timezone.utc).isoformat()
        for k in (0, 1)]


def test_json_stdout_is_the_record_file(runner, tmp_path):
    for args in (["verify", "hessian"], ["invariants", "--name", "4_1"]):
        result = _run(runner, tmp_path, [*args, "--json"])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == _lines(tmp_path)[-1], args[0]


def test_records_in_the_same_microsecond_are_both_kept(runner, tmp_path,
                                                       monkeypatch):
    class FrozenClock(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2026, 1, 2, 3, 4, 5, 6, tzinfo=tz)

    monkeypatch.setattr("repvar.cli.datetime", FrozenClock)
    run_dir = tmp_path / "not" / "yet"
    for trials in (1, 2):
        result = _run(runner, run_dir, ["verify", "hessian", "--json",
                                        "--trials", str(trials)])
        assert result.exit_code == 0, result.output
    # neither run truncated the other's record
    assert [json.loads(line)["config"]["trials"]
            for line in _lines(run_dir)] == [1, 2]


def test_concurrent_invocations_append_whole_lines(tmp_path):
    # two processes, 50 in-process invocations each, into one run directory
    script = (
        "import contextlib, io, sys\n"
        "from repvar import cli\n"
        "for k in range(int(sys.argv[1]), int(sys.argv[1]) + 50):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.cli.main(['verify', 'hessian', '--seed', str(k), '--json',\n"
        f"                      '--run-dir', {str(tmp_path)!r}],\n"
        "                     standalone_mode=False)\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    procs = [subprocess.Popen([sys.executable, "-c", script, str(first)], env=env)
             for first in (0, 50)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    lines = _lines(tmp_path)
    assert len(lines) == 100
    seeds = sorted(json.loads(line)["config"]["seed"] for line in lines)
    assert seeds == list(range(100))


def test_a_short_record_write_raises(runner, tmp_path, monkeypatch):
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:-1]))
    with pytest.raises(OSError, match="short write"):
        _run(runner, tmp_path, ["verify", "hessian"])


def test_record_config_holds_exactly_the_command_options(runner, tmp_path):
    io_keys = {"as_json", "run_dir"}
    cases = {
        "variety": (["--braid", "2: 1 1 1", "--seeds", "64"],
                    {"name", "braid_text", "seeds", "seed"}),
        "invariants": (["--name", "4_1"], {"name", "braid_text"}),
        "verify": (["hessian"], {"which", "seed", "trials"}),
    }
    for command, (args, keys) in cases.items():
        result = _run(runner, tmp_path, [command, *args, "--json"])
        assert result.exit_code == 0, result.output
        assert set(json.loads(result.output)["config"]) == keys | io_keys, command


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("repvar ")]
    assert lines
    for line in lines:
        _, name, *args = shlex.split(line, comments=True)
        command = cli.commands[name]
        # parses and validates the options without running the command
        command.make_context(name, args)
