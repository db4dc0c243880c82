#!/usr/bin/env python3
"""Census sweep over (2, n) torus links: solve the 2-strand word with n
positive crossings and compare with the closed-form component list.
Exits 1 when any census differs from it.

    python3 scripts/run_torus_sweep.py --max-n 9
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from repvar.braid import BraidWord
from repvar.solver import SolverConfig, solve, torus_components


def found_census(report):
    out = []
    for comp in report.components:
        pts = comp.representative.as_array()
        angle = math.acos(float(np.clip(np.dot(pts[0], pts[1]), -1.0, 1.0)))
        out.append((comp.topology_tag, comp.est_dimension, angle))
    return sorted(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=9)
    parser.add_argument("--seeds", type=int, default=SolverConfig().seeds)
    args = parser.parse_args()
    if args.max_n < 2:
        parser.error("--max-n must be at least 2")
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    config = SolverConfig(seeds=args.seeds)
    total = 0.0
    exact = True
    for n in range(2, args.max_n + 1):
        t0 = time.monotonic()
        report = solve(BraidWord(2, (1,) * n), config)
        elapsed = time.monotonic() - t0
        total += elapsed
        got = found_census(report)
        want = sorted(
            (c.topology_tag, c.est_dimension, c.angle) for c in torus_components(n)
        )
        angle_err = max(
            (abs(g[2] - w[2]) for g, w in zip(got, want)), default=0.0
        )
        ok = [g[:2] for g in got] == [w[:2] for w in want] and angle_err < 1e-6
        exact = exact and ok
        marker = "ok" if ok else "MISMATCH"
        print(f"n={n}: {len(got)} components "
              f"{[f'{t}@{a:.3f}' for t, _, a in got]} "
              f"(angle err {angle_err:.1e}) [{elapsed:.1f}s] {marker}")
    print(f"\ntotal {total:.1f}s; censuses {'all exact' if exact else 'DIFFER'}")
    if not exact:
        sys.exit(1)


if __name__ == "__main__":
    main()
