#!/usr/bin/env python3
"""Solve every knot in the shipped table and tabulate the component census
against the two-bridge count predictor and the Khovanov rank catalog.

    python3 scripts/run_census.py --seeds 1536
    python3 scripts/run_census.py --names 3_1 9_42 --seeds 512
"""
from __future__ import annotations

import argparse
import dataclasses
import time

from repvar.braid import knot_by_name, load_knot_table
from repvar.invariants import (
    compare_khovanov,
    determinant,
    load_khovanov_ranks,
    two_bridge_prediction,
)
from repvar.solver import SolverConfig, solve, variety_rank


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--names", nargs="*", default=None,
                        help="table knots to solve (default: all)")
    parser.add_argument("--seeds", type=int, default=SolverConfig().seeds)
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = args.names or sorted(load_knot_table())
    config = dataclasses.replace(
        SolverConfig(), seeds=args.seeds, rng_seed=args.seed
    )
    ranks = load_khovanov_ranks()

    for name in names:
        entry = knot_by_name(name)
        t0 = time.monotonic()
        report = solve(entry.word, config)
        elapsed = time.monotonic() - t0
        det = determinant(entry.word)
        print(f"{name}  ({entry.word})  det={det}  "
              f"[{elapsed:.1f}s, {report.seeds_converged}/{report.seeds_total} "
              f"seeds]")
        for comp in report.components:
            flags = []
            if comp.is_abelian:
                flags.append("abelian")
            if comp.is_binary_dihedral:
                flags.append("binary-dihedral")
            print(f"    [{comp.id}] dim={comp.est_dimension} "
                  f"tag={comp.topology_tag} samples={comp.sample_count} "
                  f"residual={comp.residual:.1e}"
                  + (f"  ({', '.join(flags)})" if flags else ""))
        found = len(report.components)
        pred = two_bridge_prediction(det)
        marker = "==" if pred.total_components == found else "!="
        print(f"    predictor: 1+(det-1)/2 = {pred.total_components} "
              f"{marker} {found} found; predicted rank {pred.cohomology_rank}")
        rank = variety_rank(c.topology_tag for c in report.components)
        if name in ranks and rank is not None:
            cmp_report = compare_khovanov(name, rank)
            marker = "matches" if cmp_report.matches else "MISMATCH"
            print(f"    khovanov: variety rank {cmp_report.variety_rank} vs "
                  f"catalog {cmp_report.khovanov_rank} -> {marker}")
        print()


if __name__ == "__main__":
    main()
