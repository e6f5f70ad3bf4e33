#!/usr/bin/env python3
"""Corrupt-then-decode sweep over the shipped parameter sets.

For every error count t up to the code dimension, runs seeded trials and
reports the exact-distance success rate, the mean list size, and how often
the transmitted codeword is recovered.  With 4t < 2*delta the list should
always be exactly the transmitted codeword.
"""

import argparse
from statistics import mean

from plueckerdec.channel import simulate_trials
from plueckerdec.listdec import STRATEGIES
from plueckerdec.params import SMALL_PARAMETER_SETS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--strategy", default="paper", choices=STRATEGIES)
    args = parser.parse_args()

    header = f"{'params':>16} {'t':>2} {'trials':>6} {'recovered':>9} {'mean|L|':>8} {'unique?':>7}"
    print(header)
    print("-" * len(header))
    for ps in SMALL_PARAMETER_SETS:
        code = ps.build()
        for t in range(ps.k + 1):
            rows = list(
                simulate_trials(code, t, args.trials, args.seed, strategy=args.strategy)
            )
            recovered = sum(r["success"] for r in rows)
            sizes = [r["list_size"] for r in rows]
            regime = "yes" if 4 * t < 2 * ps.delta else ""
            print(
                f"{ps.label():>16} {t:>2} {len(rows):>6} "
                f"{recovered:>9} {mean(sizes):>8.2f} {regime:>7}"
            )


if __name__ == "__main__":
    main()
