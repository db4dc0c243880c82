"""Tests of the benchmark's own checker and loop (run: python3 -m pytest perfbench)."""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import census
import run

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _component(i, tag, dim, abelian=False, points=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))):
    arr = np.array(points, dtype=float)
    return SimpleNamespace(
        id=i, topology_tag=tag, est_dimension=dim, is_abelian=abelian, residual=0.0,
        representative=SimpleNamespace(as_array=lambda: arr),
    )


def _report(components):
    return SimpleNamespace(full_variety=False, components=tuple(components))


def _9_42(rp3_count):
    comps = [_component(0, "S2", 2, abelian=True)]
    comps += [_component(i + 1, "RP3", 3) for i in range(rp3_count)]
    return _report(comps)


def test_fabricated_seven_component_9_42_is_flagged():
    assert census.check_knot("9_42", 7, _9_42(7)) is None
    assert census.check_knot("9_42", 7, _9_42(6)) is not None


def test_two_bridge_census_follows_the_determinant():
    five_two = [_component(0, "S2", 2, abelian=True)] + [_component(i, "RP3", 3) for i in (1, 2, 3)]
    assert census.check_knot("5_2", 7, _report(five_two)) is None
    assert census.check_knot("5_2", 9, _report(five_two)) is not None
    no_abelian = [_component(0, "S2", 2)] + five_two[1:]
    assert census.check_knot("5_2", 7, _report(no_abelian)) is not None


def test_determinants_come_from_the_table_column():
    dets = census.table_determinants(HERE.parent / "src" / "repvar" / "data" / "braids.txt")
    assert dets["9_42"] == 7 and dets["square"] == 9 and dets["3_1"] == 3


def _torus_report(n, shift=0.0):
    comps = []
    for i, (tag, dim, angle) in enumerate(census.torus_reference(n)):
        a = angle + shift
        comps.append(_component(i, tag, dim, abelian=tag == "S2",
                                points=((1.0, 0.0, 0.0), (math.cos(a), math.sin(a), 0.0))))
    return _report(comps)


def test_torus_census_checks_angles():
    assert [t for t, *_ in census.torus_reference(6)] == ["RP3", "RP3", "S2", "S2"]
    assert census.check_torus(6, _torus_report(6)) is None
    assert "angle" in census.check_torus(6, _torus_report(6, shift=1e-5))


def test_non_finite_result_fails():
    bad = _component(0, "S2", 2, abelian=True, points=((np.nan, 0.0, 0.0), (1.0, 0.0, 0.0)))
    assert "non-finite" in census.check_torus(2, _report([bad]))


def _verify_stdout(suite, **overrides):
    checks = []
    for name, (kind, ref) in census.VERIFY_REFERENCE[suite].items():
        value = ref if kind == "eq" else (ref * 2 if kind == "gt" else 0.0)
        checks.append({"name": f"{suite}.{name}", "value": overrides.get(name, value)})
    return json.dumps({"checks": checks, "passed": True})


def test_verify_checker_uses_its_own_reference():
    assert census.check_verify("chern", (None, _verify_stdout("chern"))) is None
    wrong = _verify_stdout("chern", chern_pairing=-1)
    assert "chern_pairing" in census.check_verify("chern", (None, wrong))
    assert census.check_verify("chern", (1, _verify_stdout("chern"))) is not None
    dropped = json.loads(_verify_stdout("monotone"))
    dropped["checks"].pop()
    assert census.check_verify("monotone", (0, json.dumps(dropped))) is not None


def test_raising_op_counts_as_failed_and_the_run_continues():
    def boom(seed):
        raise np.linalg.LinAlgError("SVD did not converge")

    ops = [
        census.Op("boom", boom, lambda out: None),
        census.Op("overflow", lambda seed: np.exp(np.array([1000.0])), lambda out: None),
    ]
    records, wall = run.run_ops(ops, 3, passes=2)
    assert [r.name for r in records] == ["boom", "overflow", "boom", "overflow"]
    assert [r.seed for r in records] == [3, 3, 3 + run.PASS_STRIDE, 3 + run.PASS_STRIDE]
    assert all("LinAlgError" in r.failure for r in records[::2])
    assert all(r.failure is None and r.nonfinite_warnings == 1 for r in records[1::2])
    metrics = run.end_to_end(records, wall, 0.1, 50.0, len(ops))
    assert metrics["op_p50_s"] == math.inf  # half the ops failed: +inf each
    assert metrics["goodput_ops_per_min"] == 2 / wall * 60.0


def test_metric_names_and_layer_map():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    names = e2e + layer + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert set(e2e) <= set(run.end_to_end([run.OpRecord("x", 0, 1.0, None, 0)], 1.0, 0.1, 50.0, 1))
    layers = json.loads((HERE / "layer_map.json").read_text())
    assert all(NAME.fullmatch(n) for n in layers)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == (layers[m["name"]]["unit"], layers[m["name"]]["better"])
    for entry in layers.values():
        metric, workload = entry["moves"]
        assert metric in e2e and workload in run.WORKLOADS
