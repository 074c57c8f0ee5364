#!/usr/bin/env python3
"""Query-count comparison: walk purification vs phase polynomial vs voting.

For each (delta, eps) cell: the walk's measured Las Vegas cost (independent of
eps), the phase-polynomial degree, and twice the vote count needed to push the
concentration bound under eps.  Also fits the constant C in
degree <= C * (1/delta) * log(1/eps) across the produced degrees.
"""
import argparse
import math

import numpy as np

from transduce_lab.majority import votes_needed
from transduce_lab.oracles import OracleSpec, general_reflecting_oracle
from transduce_lab.linalg import random_state
from transduce_lab.purifier import simple_complexities
from transduce_lab.qsp import qsp_error_reduction


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    ap.add_argument("--epsilons", type=float, nargs="+", default=[0.3, 0.1, 0.03])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'delta':>6} {'eps':>6} {'walk L':>10} {'poly degree':>12} {'2*votes':>8}")
    ratios = []
    for delta in args.deltas:
        p = 0.5 - delta
        walk_l = simple_complexities(p, 64).L
        for eps in args.epsilons:
            spec = OracleSpec(p, random_state(2, rng), random_state(2, rng))
            red = qsp_error_reduction(general_reflecting_oracle(spec), spec, delta, eps)
            ell = votes_needed(p, eps)
            print(f"{delta:6.2f} {eps:6.3g} {walk_l:10.6f} {red.degree:12d} {2 * ell:8d}")
            ratios.append(red.degree * delta / math.log(1.0 / eps))
    print(f"\nfitted degree constant C (degree * delta / log(1/eps)): "
          f"median {np.median(ratios):.2f}, max {max(ratios):.2f}")


if __name__ == "__main__":
    main()
