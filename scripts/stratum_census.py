#!/usr/bin/env python3
"""Dump the valued-spanning-tree stratum census of a quiver.

Each stratum is a spanning tree with a valuation label per tree arrow and
contributes the monomial q^n to the count of rank-one indecomposables; the
census lists every stratum with its exponent, grouped so the polynomial can
be read off by hand.
"""

import argparse
import json
import sys
from collections import Counter

from kacdepth import GuardError, Quiver, toric_kac_chain, tree_stratum_census


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiver", required=True, help="path to quiver JSON")
    parser.add_argument("--alpha", type=int, default=2)
    args = parser.parse_args()
    try:
        report(args)
    except (GuardError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardError) else 2
    return 0


def report(args: argparse.Namespace) -> None:
    with open(args.quiver, "r", encoding="utf-8") as fh:
        quiver = Quiver.from_json(json.load(fh))

    census = tree_stratum_census(quiver, args.alpha)
    by_exponent = Counter(n for _, n in census)
    print(f"{len(census)} strata over {len(quiver.spanning_trees())} spanning trees")
    for tree, n in census:
        labels = ", ".join(f"{a}:{v}" for a, v in tree.items())
        print(f"  tree {{{labels}}}  ->  q^{n}")
    poly = toric_kac_chain(quiver, args.alpha)
    print(f"coefficient check: {dict(sorted(by_exponent.items()))}")
    print(f"count polynomial:  {poly}")


if __name__ == "__main__":
    sys.exit(main())
