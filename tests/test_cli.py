"""Command-line surface: verbs, reports on disk, exit codes, env overrides."""
from __future__ import annotations

import contextlib
import gc
import io
import json
import re
import shlex
import weakref
from datetime import datetime
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from repvar import claims
from repvar.cli import SCHEMA_VERSION, cli
from repvar.solver import NULL_TOL

README = Path(__file__).resolve().parents[1] / "README.md"


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


def _record(tmp_path, command):
    files = sorted(tmp_path.glob(f"{command}-*.json"))
    assert files, f"no {command} record written"
    return json.loads(files[-1].read_text())


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
    result = _run(runner, tmp_path, ["invariants", "--name", "4_1", "--json"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    res = record["results"]
    assert res["determinant"] == 5
    assert res["alexander"]["coeffs"] == [-1, 3, -1]
    assert res["two_bridge_prediction"]["total_components"] == 3
    assert res["two_bridge_prediction"]["cohomology_rank"] == 6
    assert res["khovanov_rank"] == 6
    assert res["prediction_matches_khovanov"] is True


def test_invariants_rejects_links(runner, tmp_path):
    result = runner.invoke(
        cli, ["invariants", "--braid", "2: 1 1", "--run-dir", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "2-component link" in result.output


# --- verify -----------------------------------------------------------------------


def test_verify_fast_suites_pass(runner, tmp_path):
    for which in ("hessian", "chern", "monotone"):
        result = _run(runner, tmp_path, ["verify", which, "--json"])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["passed"] is True
        assert all(c["passed"] for c in record["checks"])


def test_verify_sampling_suites_with_reduced_trials(runner, tmp_path):
    for which in ("symplectic", "lagrangian"):
        result = _run(
            runner, tmp_path, ["verify", which, "--trials", "60", "--json"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["passed"] is True


def test_verify_rejects_unknown_suite(runner, tmp_path):
    assert _run(runner, tmp_path, ["verify", "everything"]).exit_code == 2


# --- hessian / chern verbs -----------------------------------------------------------


def test_hessian_verb(runner, tmp_path):
    result = _run(runner, tmp_path, ["hessian", "--n", "3", "--json"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    res = record["results"]
    assert res["pfaffian_table"] == [2, 5]
    assert res["hprime"] == [[0, 2, -1, 0], [-2, 0, -2, 1], [1, 2, 0, 2], [0, -1, -2, 0]]
    assert res["hprime_pfaffian"] == 5
    assert res["signature"] == 0
    assert record["passed"] is True


def test_chern_verb(runner, tmp_path):
    result = _run(runner, tmp_path, ["chern", "--json"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    res = record["results"]
    assert res["winding_first_contour"] == -1
    assert res["winding_second_contour"] == -1
    assert res["pairing"] == -2
    assert record["passed"] is True


def test_report_commands_do_not_read_an_earlier_run_s_memos(
        runner, tmp_path, monkeypatch):
    claims.run([c.name for c in claims.CLAIMS if c.name.startswith("chern.")])
    claims.run(["hessian.signature_zero"])
    calls = []
    for name in ("det", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(m, name=name, original=original):
            calls.append(name)
            return original(m)

        monkeypatch.setattr(np.linalg, name, counting)
    assert _run(runner, tmp_path, ["chern"]).exit_code == 0
    assert calls == ["det"]
    calls.clear()
    assert _run(runner, tmp_path, ["hessian", "--n", "4"]).exit_code == 0
    assert calls == ["eigvalsh"]


def test_chern_samples_below_the_floor_is_a_usage_error(runner, tmp_path):
    assert _run(runner, tmp_path, ["chern", "--samples", "63"]).exit_code == 2
    assert _run(runner, tmp_path, ["chern", "--samples", "64"]).exit_code == 0


@pytest.mark.parametrize("args", [
    ["verify", "symplectic", "--trials", "0"],
    ["hessian", "--n", "1"],
    ["variety", "--name", "3_1", "--seeds", "0"],
    ["variety", "--name", "3_1", "--seeds", "-1"],
    ["variety", "--name", "3_1", "--link-radius", "0"],
    ["variety", "--name", "3_1", "--link-radius", "-0.15"],
    ["verify", "symplectic", "--seed", "-1"],
    ["variety", "--name", "3_1", "--seed", "-1"],
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
            cli.main(["hessian", "--n", "2", fmt, "--run-dir", str(tmp_path)],
                     standalone_mode=False)
        assert buf.getvalue()
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None, fmt


def test_records_are_written_per_invocation(runner, tmp_path):
    _run(runner, tmp_path, ["hessian", "--n", "2"])
    _run(runner, tmp_path, ["chern"])
    assert len(list(tmp_path.glob("hessian-*.json"))) == 1
    assert len(list(tmp_path.glob("chern-*.json"))) == 1
    record = _record(tmp_path, "chern")
    assert set(record) >= {
        "schema_version", "command", "config", "timestamp", "results",
        "checks", "passed",
    }


def test_record_file_name_carries_the_record_timestamp(runner, tmp_path,
                                                       monkeypatch):
    ticks = count()

    class TickingClock(datetime):
        """Each read is one microsecond later than the one before."""

        @classmethod
        def now(cls, tz=None):
            return datetime(2026, 1, 2, 3, 4, 5, next(ticks), tzinfo=tz)

    monkeypatch.setattr("repvar.cli.datetime", TickingClock)
    _run(runner, tmp_path, ["hessian", "--n", "2"])
    (path,) = tmp_path.glob("hessian-*.json")
    stamp = datetime.fromisoformat(json.loads(path.read_text())["timestamp"])
    assert path.stem == f"hessian-{stamp.strftime('%Y%m%dT%H%M%S%f')}"


def test_json_stdout_is_the_record_file(runner, tmp_path):
    for args in (["verify", "hessian"], ["hessian", "--n", "3"], ["chern"]):
        result = _run(runner, tmp_path, [*args, "--json"])
        assert result.exit_code == 0, result.output
        (path,) = tmp_path.glob(f"{args[0]}-*.json")
        assert result.stdout_bytes == path.read_bytes() + b"\n", args[0]


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
    paths = sorted(run_dir.glob("verify-*.json"))
    assert [p.name for p in paths] == ["verify-20260102T030405000006-1.json",
                                       "verify-20260102T030405000006.json"]
    # neither run truncated the other's record
    assert sorted(json.loads(p.read_text())["config"]["trials"]
                  for p in paths) == [1, 2]


def test_record_config_holds_exactly_the_command_options(runner, tmp_path):
    io_keys = {"as_json", "run_dir"}
    cases = {
        "variety": (["--braid", "2: 1 1 1", "--seeds", "64"],
                    {"name", "braid_text", "seeds", "seed", "tol",
                     "link_radius", "khovanov_csv"}),
        "invariants": (["--name", "4_1"], {"name", "braid_text", "khovanov_csv"}),
        "verify": (["hessian"], {"which", "seed", "trials"}),
        "hessian": (["--n", "2"], {"pairs"}),
        "chern": ([], {"samples"}),
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
