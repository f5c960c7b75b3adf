#!/usr/bin/env python3
"""Batch agreement run: closed-form solver vs brute-force search.

Draws random polygon/point configurations, runs the closed-form-free
search on each, and reports how well the found parameters agree with the
algebraic solution (they should match the swapped pair to ~1e-5 relative
without the swap ever being imposed).  Writes a JSON report when --out is
given and exits nonzero if any instance disagrees.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from polydual.dual import solve
from polydual.geometry import distances_from
from polydual.oracle import AGREE_TOL, OracleConfig, agreement, random_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=70_000)
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--refine", type=int, default=3,
                        help="caps each seed's descent at 20 * REFINE iterations")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    if args.instances < 0:
        parser.error(f"--instances must be >= 0, got {args.instances}")
    if not 3 <= args.n_min <= args.n_max:
        parser.error(f"need 3 <= --n-min <= --n-max, got {args.n_min} and {args.n_max}")
    n_range = (args.n_min, args.n_max)
    try:
        cfg = OracleConfig(grid_resolution=args.grid, refine_iterations=args.refine)
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    report = agreement(args.seed, args.instances, n_range, cfg)
    elapsed = time.perf_counter() - t0
    rows = report["results"]
    for row in rows:
        if "param_error" not in row:
            print(f"seed {row['seed']}: no candidate found", file=sys.stderr)
            continue
        poly, point = random_instance(row["seed"], n_range)
        row["solver_smaller_radius"] = solve(distances_from(point, poly)).smaller.circumradius
        if row["param_error"] > AGREE_TOL:
            print(f"seed {row['seed']}: parameter error {row['param_error']:.3e}",
                  file=sys.stderr)
    misses = args.instances - report["agreed"]
    worst = report["max_param_error"]

    summary = {
        "instances": args.instances,
        "misses": misses,
        "worst_param_error": worst,
        "seconds": elapsed,
        "results": rows,
    }
    print(
        f"{args.instances} instances in {elapsed:.1f}s: "
        f"worst parameter error {worst:.2e}, misses {misses}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"report written to {args.out}")
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
