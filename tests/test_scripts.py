"""Command-line scripts: argument checks and exit codes."""
from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repvar.solver import torus_components

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _component(tag: str, dimension: int, angle: float):
    """A solved component whose first two points meet at `angle`."""
    points = np.array([[1.0, 0.0, 0.0], [math.cos(angle), math.sin(angle), 0.0]])
    return SimpleNamespace(
        topology_tag=tag, est_dimension=dimension,
        representative=SimpleNamespace(as_array=lambda: points))


def _run_sweep(monkeypatch, args: list[str], solve=None) -> int:
    """The sweep's exit code: 0 when `main` returns."""
    sweep = _load("run_torus_sweep")
    if solve is not None:
        monkeypatch.setattr(sweep, "solve", solve)
    monkeypatch.setattr(sys, "argv", ["run_torus_sweep.py", *args])
    try:
        sweep.main()
    except SystemExit as stop:
        return stop.code
    return 0


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_torus_sweep_needs_a_crossing_count_of_at_least_two(monkeypatch,
                                                            max_n):
    def solve(word, config):
        raise AssertionError("nothing to solve")

    assert _run_sweep(monkeypatch, ["--max-n", max_n], solve) == 2


@pytest.mark.parametrize("exact", [True, False])
def test_torus_sweep_exits_nonzero_iff_a_census_differs(monkeypatch, capsys,
                                                        exact):
    def solve(word, config):
        want = torus_components(len(word.letters))
        found = [_component(c.topology_tag, c.est_dimension, c.angle)
                 for c in want]
        return SimpleNamespace(components=found if exact else found[1:])

    code = _run_sweep(monkeypatch, ["--max-n", "3"], solve)
    assert code == (0 if exact else 1)
    out = capsys.readouterr().out
    assert ("all exact" in out) == exact
