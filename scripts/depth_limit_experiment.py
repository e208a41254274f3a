#!/usr/bin/env python3
"""Watch the depth-normalised counts approach their rational limits.

For a 2-connected quiver the sequence q^(-alpha b) A_alpha converges to a
rational function A_Q, and the normalised moment-map zero-fiber count
converges to B_mu.  This script tabulates both sequences at a chosen prime
so the convergence (and its rate) can be eyeballed.
"""

import argparse
import json
import sys
from fractions import Fraction

from kacdepth import (
    GuardError,
    Quiver,
    asymptotic_kac,
    asymptotic_moment,
    moment_fiber_count,
    toric_kac_chain,
)
from kacdepth.oring import _check_prime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiver", help="path to quiver JSON (default: 2-arrow Kronecker)")
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--max-alpha", type=int, default=6)
    parser.add_argument("--fiber-max-alpha", type=int, default=4)
    args = parser.parse_args()
    try:
        tabulate(args)
    except (GuardError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardError) else 2
    return 0


def tabulate(args: argparse.Namespace) -> None:
    # the fiber counts need a prime; refuse any other p before the first table
    _check_prime(args.p)
    if args.quiver:
        with open(args.quiver, "r", encoding="utf-8") as fh:
            quiver = Quiver.from_json(json.load(fh))
    else:
        quiver = Quiver(2, ((0, 1), (0, 1)))

    p = args.p
    b = quiver.betti()
    a_limit = asymptotic_kac(quiver)
    b_limit = asymptotic_moment(quiver)
    print(f"A_Q  = {a_limit}   (value at q={p}: {a_limit.evaluate(p)})")
    print(f"B_mu = {b_limit}   (value at q={p}: {b_limit.evaluate(p)})")
    print()
    print("alpha  q^(-alpha b) A_alpha      error")
    for alpha in range(1, args.max_alpha + 1):
        approx = Fraction(toric_kac_chain(quiver, alpha).evaluate(p), p ** (alpha * b))
        err = abs(approx - a_limit.evaluate(p))
        print(f"{alpha:5d}  {str(approx):22s} {err}")
    print()
    exponent_rate = 2 * quiver.narrows - quiver.nvertices + 1
    print("alpha  normalised zero-fiber count  error")
    rank = (1,) * quiver.nvertices
    for alpha in range(1, args.fiber_max_alpha + 1):
        fiber = moment_fiber_count(quiver, rank, p, alpha)
        approx = Fraction(fiber, p ** (alpha * exponent_rate))
        err = abs(approx - b_limit.evaluate(p))
        print(f"{alpha:5d}  {str(approx):28s} {err}")


if __name__ == "__main__":
    sys.exit(main())
