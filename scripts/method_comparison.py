#!/usr/bin/env python3
"""Query-count comparison: walk purification vs phase polynomial vs voting.

For each (delta, eps) cell: the walk's measured Las Vegas cost (independent of
eps), the phase-polynomial degree, and twice the vote count needed to push the
concentration bound under eps.  Also fits the constant C in
degree <= C * (1/delta) * log(1/eps) across the produced degrees.  The rows
are those of ``transduce-lab compare`` at depth 64.
"""
import argparse
import math

import numpy as np

from transduce_lab.cli import cmd_compare


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    ap.add_argument("--epsilons", type=float, nargs="+", default=[0.3, 0.1, 0.03])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cells = [{"delta": delta, "eps": eps} for delta in args.deltas for eps in args.epsilons]
    rows = cmd_compare({"compare": {"cells": cells, "D": 64}}, np.random.default_rng(args.seed))
    print(f"{'delta':>6} {'eps':>6} {'walk L':>10} {'poly degree':>12} {'2*votes':>8}")
    for row in rows:
        print(f"{row['delta']:6.2f} {row['eps']:6.3g} {row['purifier_queries']:10.6f} "
              f"{int(row['qsp_queries']):12d} {int(row['majority_queries']):8d}")
    ratios = [row["qsp_queries"] * row["delta"] / math.log(1.0 / row["eps"]) for row in rows]
    print(f"\nfitted degree constant C (degree * delta / log(1/eps)): "
          f"median {np.median(ratios):.2f}, max {max(ratios):.2f}")


if __name__ == "__main__":
    main()
