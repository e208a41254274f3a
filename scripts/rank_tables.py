#!/usr/bin/env python3
"""Regenerate the one-vertex rank 1..3 count tables and diff both routes.

The per-depth counts come out of the class-type recursions plus a
plethystic logarithm; the closed forms are evaluated independently.  Any
disagreement between the two, or with the stored regression table, is
printed as a diff.
"""

import argparse

from kacdepth.rank import rank_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-g", type=int, default=3)
    parser.add_argument("--max-alpha", type=int, default=5)
    args = parser.parse_args()

    failures = 0
    for g in range(1, args.max_g + 1):
        print(f"g = {g}:")
        for alpha, polys, routes in rank_table(g, args.max_alpha):
            for r, poly in enumerate(polys, start=1):
                print(f"  A_{{{g},{r},{alpha}}} = {poly}")
            for name, poly, agrees in routes:
                if not agrees:
                    failures += 1
                    print(f"    !! {name} differs: {poly}")
        print()
    print("all routes agree" if failures == 0 else f"{failures} disagreements")
    raise SystemExit(0 if failures == 0 else 1)


if __name__ == "__main__":
    main()
