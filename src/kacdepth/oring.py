"""The truncated polynomial ring F_p[t]/(t^alpha): tables, guards, GL order.

``ORing`` holds the multiplication, inverse and unit tables that the
brute-force orbit oracle enumerates over; elements are integer codes whose
base-p digits are the coefficients, so code 0 is the zero element and a code
is a unit exactly when it is nonzero mod p.  ``GuardError`` and
``guarded_power`` let every exponential route refuse its work estimate
before it allocates anything; ``group_order_gl`` is the order of the
automorphism group as a polynomial in q.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Sequence

from .laurent import LaurentPoly

DEFAULT_GUARD = 2**24


class GuardError(RuntimeError):
    """An enumeration or subset DP would exceed the configured guard limit."""


def _check_prime(p: int) -> None:
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


def guarded_power(base: int, exp: int, label: str, guard: int) -> int:
    """base**exp for a work estimate; GuardError, before the power is formed,
    when |base|^exp >= 2^(exp * (bit_length(base) - 1)) has more bits than guard."""
    if exp * (base.bit_length() - 1) > guard.bit_length():
        raise GuardError(f"{label} estimate >= {base}^{exp} > limit {guard}; raise --guard")
    return base**exp


class ORing:
    """Integer-coded arithmetic tables for F_p[t]/(t^alpha), built on base-p digits."""

    def __init__(self, p: int, alpha: int) -> None:
        _check_prime(p)
        if alpha < 1:
            raise ValueError("depth must be >= 1")
        self.size = p**alpha
        weights = [p**k for k in range(alpha)]
        digits = [[c // w % p for w in weights] for c in range(self.size)]

        def code(coeffs) -> int:
            return sum(c % p * w for c, w in zip(coeffs, weights))

        def times(a, b) -> list[int]:
            return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(alpha)]

        self.mul = [[code(times(a, b)) for b in digits] for a in digits]
        self.units = tuple(c for c in range(self.size) if c % p)
        self.inv = [row.index(1) if c % p else None for c, row in enumerate(self.mul)]


@lru_cache(maxsize=None)
def cached_ring(p: int, alpha: int) -> ORing:
    return ORing(p, alpha)


def group_order_gl(r: Sequence[int], alpha: int) -> LaurentPoly:
    """Order of prod_i GL(r_i, O_alpha) as a polynomial in q.

    Each factor contributes q^(alpha r^2) * prod_{k=1..r} (1 - q^-k); the
    product is cleared to an ordinary polynomial.
    """
    total = LaurentPoly.one()
    for ri in r:
        if ri < 0:
            raise ValueError("ranks must be nonnegative")
        factor = LaurentPoly.q(alpha * ri * ri)
        for k in range(1, ri + 1):
            factor = factor * (LaurentPoly.one() - LaurentPoly.q(-k))
        total = total * factor
    return total
