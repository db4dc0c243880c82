"""repvar benchmark: census goodput of the solver and the verify suites.

    python3 perfbench/run.py --workload knot_table --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory and never installed.  One process runs one workload as a
closed loop with a single client: the next op starts when the previous one
has finished.  Ops cycle through the workload's list; op i uses the seed
`seed + PASS_STRIDE * (i // len(ops))`, so the first pass runs at `--seed`
itself and later passes at fresh seeds.

`--trace 0` runs ops until `--seconds` have passed (the op running at the
deadline finishes and counts) and prints the end-to-end metrics.  `--trace 1`
ignores `--seconds`: it runs a fixed number of passes (`TRACE_PASSES`, one
by default) untraced and the same passes again traced, so counters repeat
exactly at a fixed seed, then the kernel microbenchmarks; it prints the
per-layer metrics and the tracing overhead.  Metric names and units come
from BENCHMARK.json at the checkout root.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; details of
every op and the spans go to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# verify_hessian and verify_contour hold the suites that take no seed
VERIFY_WORKLOADS = {
    "verify_hessian": ("hessian",),
    "verify_contour": ("chern", "monotone"),
    "verify_all": ("symplectic", "lagrangian", "hessian", "chern", "monotone"),
}
WORKLOADS = (*VERIFY_WORKLOADS, "knot_table", "torus_sweep", "torus_long")
SETUP_PROBES = 5
PASS_STRIDE = 7919
# passes per traced run, fixed so counters repeat; short passes get more so
# per-layer times are not single calls
TRACE_PASSES = {"verify_hessian": 200, "verify_contour": 50, "verify_all": 5}


@dataclass
class OpRecord:
    name: str
    seed: int
    seconds: float
    failure: str | None
    nonfinite_warnings: int
    info: dict = field(default_factory=dict)


# --- the program and its inputs ------------------------------------------------


def import_program() -> None:
    """Import repvar from this checkout's source, never from an install."""
    init = SRC / "repvar" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no program source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repvar

    if Path(repvar.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported repvar from {repvar.__file__}, not {init}")


def setup(workload: str, run_dir: Path):
    """Import, table load and input generation: everything before the first op."""
    import_program()
    import census

    if workload == "knot_table":
        return census.knot_table_ops(ROOT)
    if workload == "torus_sweep":
        return census.torus_ops(census.TORUS_SWEEP)
    if workload == "torus_long":
        return census.torus_ops(census.TORUS_LONG)
    return census.verify_ops(run_dir, VERIFY_WORKLOADS[workload])


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, so import work shows every time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


# --- the closed loop -------------------------------------------------------------


def run_one(op, op_seed: int, bracket=contextlib.nullcontext) -> OpRecord:
    """One op; an exception or a failed check marks it failed, never aborts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            with bracket():
                out = op.call(op_seed)
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            seconds = time.perf_counter() - t0
            failure, info = f"{type(exc).__name__}: {exc}", {}
        else:
            seconds = time.perf_counter() - t0
            try:
                failure, info = op.check(out), op.info(out)
            except Exception as exc:  # output too malformed to check
                failure, info = f"check raised {type(exc).__name__}: {exc}", {}
    nonfinite = sum(
        1 for w in caught
        if issubclass(w.category, RuntimeWarning) and "encountered" in str(w.message)
    )
    return OpRecord(op.name, op_seed, seconds, failure, nonfinite, info)


def run_ops(ops, seed, *, seconds=None, passes=None, tracer=None):
    """Ops in order, cycling, until `seconds` elapse or `passes` complete."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if passes is not None and i >= passes * len(ops):
            break
        if seconds is not None and i and time.perf_counter() - start >= seconds:
            break
        op = ops[i % len(ops)]
        bracket = contextlib.nullcontext
        if tracer is not None:
            bracket = lambda op_id=i, root=op.root: tracer.op(op_id, root)
        records.append(run_one(op, seed + PASS_STRIDE * (i // len(ops)), bracket))
        i += 1
    return records, time.perf_counter() - start


# --- metrics -----------------------------------------------------------------------


def end_to_end(records, wall, setup_s, peak_rss_mb, pass_len) -> dict[str, float]:
    passed = sum(r.failure is None for r in records)
    # The median is taken over whole passes, so every op of the workload
    # weighs the same in every run; a trailing partial pass would tilt it
    # towards the ops at the start of the list.  A failed op never meets any
    # latency target: it counts as +inf.
    whole = records[: len(records) // pass_len * pass_len] or records
    times = [r.seconds if r.failure is None else math.inf for r in whole]
    return {
        "goodput_ops_per_min": passed / wall * 60.0,
        "op_p50_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, records, kernel_metrics) -> dict[str, float]:
    out = tracer.metrics()
    out.update(kernel_metrics)
    solves = [r.info for r in records if "seeds_total" in r.info]
    total = sum(s["seeds_total"] for s in solves)
    out["solver.seeds_converged_frac"] = (
        sum(s["seeds_converged"] for s in solves) / total if total else 0.0)
    out["solver.components_found"] = sum(s["components"] for s in solves)
    out["solver.nonfinite_warnings"] = sum(r.nonfinite_warnings for r in records)
    return out


# --- environment ---------------------------------------------------------------


def _openblas() -> dict:
    """Build and thread count of the OpenBLAS bundled with numpy's wheel."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        config, threads = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return {"config": "unknown", "threads": None}
    config.restype = ctypes.c_char_p
    threads.restype = ctypes.c_int
    return {"config": config().decode(), "threads": threads()}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import repvar

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "repvar": repvar.__version__,
        "commit": _git_commit(),
    }


# --- entry point -------------------------------------------------------------------


def _declared(trace: int) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it (used by the set-up probes)")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="records-", dir=OUT))
    try:
        if args.setup_only:
            setup(args.workload, run_dir)
            print(time.perf_counter() - t0)
            return 0
        import_program()
        declared = _declared(args.trace)
        setup_times = [] if args.trace else probe_setup(args.workload, args.seed)
        ops = setup(args.workload, run_dir)
        import kernels
        import spans

        failures = []
        if args.trace:
            passes = TRACE_PASSES.get(args.workload, 1)
            plain, wall_plain = run_ops(ops, args.seed, passes=passes)
            tracer = spans.Tracer()
            tracer.install({**spans.SOLVER_SPANS, **spans.VERIFY_SPANS})
            try:
                records, wall = run_ops(ops, args.seed, passes=passes, tracer=tracer)
            finally:
                tracer.uninstall()
            if [(r.failure, r.info) for r in plain] != [(r.failure, r.info) for r in records]:
                failures.append("traced pass disagrees with the untraced pass")
            kernel_metrics, checked = kernels.run(args.seed)
            failures += [f"kernel {k}: {why}" for k, why in checked.items() if why]
            metrics = per_layer(tracer, records, kernel_metrics)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            if tracer.missing:
                print(f"# bindings not found, left untraced: {tracer.missing}")
            print(f"# tracing overhead = {wall - wall_plain!r} s over {passes} pass(es) "
                  f"(traced {wall!r} s, untraced {wall_plain!r} s)")
            records = plain + records
            attempted = len(records) + len(checked)
            failed = sum(r.failure is not None for r in records) + sum(map(bool, checked.values()))
        else:
            records, wall = run_ops(ops, args.seed, seconds=args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(records, wall, statistics.median(setup_times), peak_mb, len(ops))
            attempted = len(records)
            failed = sum(r.failure is not None for r in records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics declared but not measured: {missing}")
    env = environment(args.workload, args.seed)
    report = {
        "environment": env,
        "wall_s": wall,
        "setup_probe_s": setup_times,
        "metrics": metrics,
        "failures": failures,
        "ops": [asdict(r) for r in records],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    for r in records:
        if r.failure is not None:
            print(f"# FAILED {r.name} seed {r.seed} after {r.seconds:.3f} s: {r.failure}")
    for reason in failures:
        print(f"# FAILED {reason}")
    if args.trace:
        # every per-layer metric, listed in BENCHMARK.json or not: a layer
        # the gated workloads never call would read 0 there on every run
        for name, spec in json.loads((HERE / "layer_map.json").read_text()).items():
            listed = "" if name in declared else ", not listed in BENCHMARK.json"
            print(f"{name} = {metrics[name]!r} {spec['unit']}  (should move "
                  f"{spec['moves'][0]} on {spec['moves'][1]}{listed})")
    else:
        for name, spec in declared.items():
            print(f"{name} = {metrics[name]!r} {spec['unit']}")
    print(f"# ops_failed_frac = {failed / attempted!r} ({failed} of {attempted} attempted)")
    if not args.trace:
        print(f"# op_p50_s = {metrics['op_p50_s']!r} s (median over the whole passes "
              f"of {len(records)} ops; not gated)")
        print(f"# setup_s is the median of {len(setup_times)} probes: {setup_times!r}")
    print("# environment " + json.dumps(env, sort_keys=True))

    def value(v):
        return v if math.isfinite(v) else None  # JSON has no infinity

    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value(metrics[name]), "unit": spec["unit"]}
                    for name, spec in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
