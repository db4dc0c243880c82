"""Span recording for the traced run, from outside the package.

For the traced run only, module attributes are swapped for wrappers that
record one span per call: name, start, end, parent span and op id, plus a
size (the number of stacked matrices for `numpy.linalg.svd` and `pinv`).
Spans stay in memory and are written out when the run ends.  The package's
own source is never edited; a binding that a later version of the package no
longer has is skipped and listed, so the trace degrades instead of failing.

`repvar.solver.reflect` and `repvar.braid.reflect` are the same function
bound in two modules; each binding gets its own span name, which separates
the Jacobian sweep (solver) from the action itself (braid).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

# span name -> every (module, attribute) binding through which callers reach it
SOLVER_SPANS = {
    "solver.solve": [("repvar.solver", "solve")],
    "solver.cluster_indices": [("repvar.solver", "cluster_indices")],
    "solver.invariant_features": [("repvar.solver", "invariant_features")],
    "solver.residual_array": [("repvar.solver", "residual_array")],
    "braid.act_array": [("repvar.braid", "act_array"), ("repvar.solver", "act_array")],
    "solver.reflect": [("repvar.solver", "reflect")],
    "braid.reflect": [("repvar.braid", "reflect")],
    "numpy.linalg.svd": [("numpy.linalg", "svd")],
    "numpy.linalg.pinv": [("numpy.linalg", "pinv")],
}
VERIFY_SPANS = {
    f"symplectic.{fn}": [("repvar.symplectic", fn), ("repvar.cli", fn)]
    for fn in (
        "check_braid_invariance",
        "check_gamma_lagrangian",
        "nondegeneracy_rank",
        "random_k_points",
        "monotonicity_ratio",
    )
}
VERIFY_SPANS.update({
    "symplectic.omega_c_array": [("repvar.symplectic", "omega_c_array")],
    "braid.differential_arrays": [
        ("repvar.braid", "differential_arrays"),
        ("repvar.symplectic", "differential_arrays"),
    ],
    "hessian.pfaffian": [("repvar.hessian", "pfaffian")],
    "hessian.det_factorization": [("repvar.hessian", "det_factorization")],
    "hessian.signature": [("repvar.hessian", "signature")],
    "chern.winding_number": [("repvar.chern", "winding_number")],
    "chern.modulus_deviation": [("repvar.chern", "modulus_deviation")],
})
# spans whose size is the count of stacked matrices in the first argument
MATRIX_SPANS = {"numpy.linalg.svd", "numpy.linalg.pinv"}

# span name -> the per-layer metrics reported for it
SPAN_METRICS = {
    "solver.cluster_indices": ("s",),
    "solver.invariant_features": ("s",),
    "solver.residual_array": ("s", "calls"),
    "braid.act_array": ("s", "calls"),
    "solver.reflect": ("calls",),
    "braid.reflect": ("calls",),
    "numpy.linalg.svd": ("s", "matrices"),
    "numpy.linalg.pinv": ("s", "matrices"),
    **{name: ("s",) for name in VERIFY_SPANS},
}


def _stacked(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return math.prod(shape[:-2]) if len(shape) >= 2 else 1


class Tracer:
    """Records spans while installed; `op(...)` brackets one workload op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id, size]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple] = []

    def _open(self, name, size=1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id, size])
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        sized = name in MATRIX_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, _stacked(args) if sized else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self, table: dict) -> None:
        for name, bindings in table.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def op(self, op_id: int, root: str):
        self._op_id = op_id
        idx = self._open(root)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self) -> dict[str, float]:
        total = defaultdict(float)
        calls = defaultdict(int)
        sizes = defaultdict(int)
        own = defaultdict(float)
        for (name, start, end, _, _, size), self_s in zip(self.spans, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            sizes[name] += size
            own[name] += self_s
        out = {}
        for name, kinds in SPAN_METRICS.items():
            for kind in kinds:
                value = {"s": total[name], "calls": calls[name], "matrices": sizes[name]}[kind]
                out[f"{name}.{kind}"] = value
        out["solver.solve.self_s"] = own["solver.solve"]
        out["cli.self_s"] = own["cli"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op_id, size in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id, size]) + "\n")
