"""The public surface: exported names and the Configuration value type."""
from __future__ import annotations

import numpy as np

import repvar
from repvar.braid import Configuration, parse_braid, random_configurations
from repvar.solver import SolverConfig, solve


def test_exports_are_the_array_core():
    assert sorted(repvar.__all__) == sorted([
        "BraidWord",
        "Configuration",
        "act_array",
        "check_braid_relations",
        "closure_components",
        "differential_arrays",
        "knot_by_name",
        "load_knot_table",
        "parse_braid",
        "__version__",
    ])
    for name in repvar.__all__:
        assert getattr(repvar, name) is not None


def test_configuration_round_trips_and_compares_by_value():
    arr = random_configurations(4, 1, np.random.default_rng(3))[0]
    config = Configuration.from_array(arr)
    assert len(config) == 4
    assert np.array_equal(config.as_array(), arr)
    twin = Configuration.from_array(arr.copy())
    assert twin == config and hash(twin) == hash(config)
    moved = arr.copy()
    moved[0] = -moved[0]
    assert Configuration.from_array(moved) != config


def test_solve_representatives_are_configuration_arrays():
    report = solve(parse_braid("2: 1 1 1"), SolverConfig(seeds=64))
    assert report.components
    for comp in report.components:
        assert isinstance(comp.representative, Configuration)
        assert comp.representative.as_array().shape == (2, 3)
