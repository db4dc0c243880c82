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


def test_the_solver_names_the_benchmark_binds_exist(monkeypatch):
    # perfbench times the solve through these module attributes, swapping a
    # counting wrapper onto each, and calls `solve` with a seed-only config:
    # a name that is renamed away, or that the solver no longer reads
    # through its module, leaves the span reading 0 rather than failing
    from repvar import solver

    for name in ("solve", "cluster_indices", "invariant_features",
                 "residual_array", "act_array"):
        assert callable(getattr(solver, name)), name
    assert solver.SolverConfig(rng_seed=3).rng_seed == 3
    calls = {"residual_array": 0, "act_array": 0}
    for name, original in [(n, getattr(solver, n)) for n in calls]:
        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(solver, name, counting)
    word = parse_braid("2: 1 1 1")
    pts = random_configurations(2, 8, np.random.default_rng(5))
    solver._levenberg(solver.FixedPointEquation(word), pts)
    assert calls["residual_array"] > 0 and calls["act_array"] > 0, calls


def test_the_verify_names_the_benchmark_binds_exist():
    # perfbench times the verify suites and their kernels through these
    # module attributes; a name renamed away leaves its span or kernel
    # unmeasured rather than failing
    from repvar import braid, chern, hessian, symplectic

    bound = {
        symplectic: ("monotonicity_ratio", "omega_c_array",
                     "random_coefficients", "check_braid_invariance",
                     "check_gamma_lagrangian", "nondegeneracy_rank",
                     "random_k_points"),
        braid: ("act_array", "differential_arrays", "knot_by_name",
                "random_configurations"),
        hessian: ("pfaffian", "integer_determinant", "build_hprime",
                  "build_hessian", "signature"),
        chern: ("winding_number", "modulus_deviation"),
    }
    for module, names in bound.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)
