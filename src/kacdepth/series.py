"""Truncated multivariate power series with rational-function coefficients.

A ``TSeries`` lives in Q(q)[[t_0, ..., t_{n-1}]], n = len(bound), truncated
componentwise: a retained exponent vector r has 0 <= r_i <= bound_i, and
products drop the terms beyond the bound (truncation is a ring congruence).

``exp`` (zero constant term) and ``log`` (constant term 1) both solve the
Euler-operator identity of H = exp(L): E scales t^r by |r| = sum_i r_i and
is a derivation, so E(H) = E(L) H, that is

    |r| h_r = sum_{s + u = r} |s| l_s h_u.

E keeps the terms beyond the bound beyond it, so the identity holds modulo
the truncation; at r it reads only exponents <= r.  Walking the box in
lexicographic order, which puts every u <= r before r, gives h_r from L and
the earlier h (exp), or l_r from h_r and the earlier l (log), one exponent
at a time: no factorial, no series power, no series difference.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterator, Mapping

from .laurent import RatFunc
from .poly import LaurentPoly

if TYPE_CHECKING:
    from .poly import Rational
    Scalar = RatFunc | LaurentPoly | Rational

Exponent = tuple[int, ...]


class TSeries:
    """Componentwise-truncated power series over RatFunc coefficients."""

    __slots__ = ("bound", "_terms")

    def __init__(self, bound: Exponent, terms: Mapping[Exponent, Scalar] | None = None) -> None:
        bound = tuple(int(b) for b in bound)
        if any(b < 0 for b in bound):
            raise ValueError("bounds must be nonnegative")
        self.bound = bound
        self._terms: dict[Exponent, RatFunc] = {}
        for r, c in (terms or {}).items():
            r = tuple(int(x) for x in r)
            if len(r) != len(bound) or any(x < 0 for x in r):
                raise ValueError(f"bad exponent vector {r}")
            c = RatFunc._coerce(c)
            if all(x <= b for x, b in zip(r, bound)) and not c.is_zero():
                self._terms[r] = c

    def coefficient(self, r: Exponent) -> RatFunc:
        return self._terms.get(tuple(r), RatFunc.zero())

    def constant_term(self) -> RatFunc:
        return self.coefficient((0,) * len(self.bound))

    def items(self) -> Iterator[tuple[Exponent, RatFunc]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.bound == other.bound and self._terms == other._terms

    def __add__(self, other: "TSeries") -> "TSeries":
        if self.bound != other.bound:
            raise ValueError("series have different bounds")
        out = dict(self._terms)
        for r, c in other._terms.items():
            out[r] = out[r] + c if r in out else c
        return TSeries(self.bound, out)

    def __mul__(self, other: "TSeries | Scalar") -> "TSeries":
        if not isinstance(other, TSeries):
            c = RatFunc._coerce(other)
            return TSeries(self.bound, {r: v * c for r, v in self._terms.items()})
        if self.bound != other.bound:
            raise ValueError("series have different bounds")
        out: dict[Exponent, RatFunc] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                r = tuple(a + b for a, b in zip(r1, r2))
                if all(x <= b for x, b in zip(r, self.bound)):
                    out[r] = out[r] + c1 * c2 if r in out else c1 * c2
        return TSeries(self.bound, out)

    def __pow__(self, n: int) -> "TSeries":
        if n < 0:
            raise ValueError("negative series power")
        result = TSeries(self.bound, {(0,) * len(self.bound): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exp(self) -> "TSeries":
        """exp(L) of L = self, which must have zero constant term."""
        if not self.constant_term().is_zero():
            raise ValueError("exp requires augmentation-ideal input")
        # L has no constant term, so the walk adds nothing at r = 0
        h = {(0,) * len(self.bound): RatFunc.one()}
        weighted = [(s, c * sum(s)) for s, c in self._terms.items()]
        for r in product(*(range(b + 1) for b in self.bound)):
            total = _euler_sum(r, weighted, h)
            if total is not None and not total.is_zero():
                h[r] = total / sum(r)
        return TSeries(self.bound, h)

    def log(self) -> "TSeries":
        """log(H) of H = self, which must have constant term 1."""
        if self.constant_term() != RatFunc.one():
            raise ValueError("log requires unit constant term")
        # h_0 = 1 is left out, so the walk adds nothing at r = 0
        h = {r: c for r, c in self._terms.items() if any(r)}
        logs, weighted = {}, []
        for r in product(*(range(b + 1) for b in self.bound)):
            # weighted holds -|s| l_s, so the sum is -(|r| h_r - |r| l_r)
            total = _euler_sum(r, weighted, h)
            c = h.get(r)
            if total is not None:
                c = total / sum(r) if c is None else c + total / sum(r)
            if c is not None and not c.is_zero():
                logs[r] = c
                weighted.append((r, c * -sum(r)))
        return TSeries(self.bound, logs)

    def __repr__(self) -> str:
        return f"TSeries(bound={self.bound}, terms={len(self._terms)})"


def _euler_sum(r: Exponent, weighted: list, h: dict) -> RatFunc | None:
    """sum of |s| l_s h_(r-s) over (s, |s| l_s) in weighted; None if empty.

    h holds only exponents >= 0, so s not <= r finds no h_(r-s).
    """
    total = None
    for s, ws in weighted:
        hu = h.get(tuple(a - b for a, b in zip(r, s)))
        if hu is not None:
            total = ws * hu if total is None else total + ws * hu
    return total
