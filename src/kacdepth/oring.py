"""Arithmetic and enumeration over the truncated polynomial ring F_p[t]/(t^alpha).

``OElem`` is the exact element type (coefficient tuple).  ``ORing`` packages
the same arithmetic as integer-coded lookup tables, which is what the
brute-force enumeration oracles use; codes are base-p digit strings, so code
0 is the zero element and codes below p are the constants.  ``OMatrix`` and
``enumerate_gl`` provide matrices over the ring and exhaustive enumeration of
the invertible ones, guarded against accidental combinatorial explosion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Iterator, Sequence

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


@dataclass(frozen=True)
class OElem:
    """Element of F_p[t]/(t^alpha): coeffs[k] is the coefficient of t^k."""

    p: int
    alpha: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.alpha < 1:
            raise ValueError("depth must be >= 1")
        if len(self.coeffs) != self.alpha:
            raise ValueError("coefficient tuple must have length alpha")
        object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, p: int, alpha: int) -> "OElem":
        return cls(p, alpha, (0,) * alpha)

    @classmethod
    def one(cls, p: int, alpha: int) -> "OElem":
        return cls(p, alpha, (1,) + (0,) * (alpha - 1))

    @classmethod
    def t_power(cls, p: int, alpha: int, k: int, scalar: int = 1) -> "OElem":
        """scalar * t^k (zero when k >= alpha)."""
        coeffs = [0] * alpha
        if 0 <= k < alpha:
            coeffs[k] = scalar % p
        return cls(p, alpha, tuple(coeffs))

    @classmethod
    def from_code(cls, p: int, alpha: int, code: int) -> "OElem":
        coeffs = []
        for _ in range(alpha):
            coeffs.append(code % p)
            code //= p
        return cls(p, alpha, tuple(coeffs))

    def code(self) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.p + c
        return out

    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        return self.coeffs[0] != 0

    def valuation(self) -> int:
        """Smallest k with nonzero t^k coefficient; alpha for the zero element."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.alpha

    def _check(self, other: "OElem") -> None:
        if self.p != other.p or self.alpha != other.alpha:
            raise ValueError("mixed ring parameters")

    def __add__(self, other: "OElem") -> "OElem":
        self._check(other)
        return OElem(
            self.p, self.alpha, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "OElem") -> "OElem":
        self._check(other)
        return OElem(
            self.p, self.alpha, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "OElem":
        return OElem(self.p, self.alpha, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "OElem") -> "OElem":
        self._check(other)
        out = [0] * self.alpha
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < self.alpha and b:
                    out[i + j] += a * b
        return OElem(self.p, self.alpha, tuple(out))

    def inverse(self) -> "OElem":
        """Multiplicative inverse; defined exactly for units."""
        if not self.is_unit():
            raise ValueError("non-unit")
        inv0 = pow(self.coeffs[0], -1, self.p)
        out = [inv0] + [0] * (self.alpha - 1)
        for k in range(1, self.alpha):
            acc = sum(self.coeffs[j] * out[k - j] for j in range(1, k + 1))
            out[k] = (-inv0 * acc) % self.p
        return OElem(self.p, self.alpha, tuple(out))

    def shift_down(self) -> "OElem":
        """Divide by t via t*O_alpha ~ O_{alpha-1}; requires valuation >= 1."""
        if self.alpha < 2:
            raise ValueError("depth 1 has no t to divide by")
        if self.coeffs[0] != 0:
            raise ValueError("element is a unit, not divisible by t")
        return OElem(self.p, self.alpha - 1, self.coeffs[1:])

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                tk = "t" if k == 1 else f"t^{k}"
                parts.append(tk if c == 1 else f"{c}{tk}")
        return "+".join(parts) if parts else "0"


class ORing:
    """Integer-coded arithmetic tables for F_p[t]/(t^alpha), built on base-p digits."""

    def __init__(self, p: int, alpha: int) -> None:
        _check_prime(p)
        if alpha < 1:
            raise ValueError("depth must be >= 1")
        self.p = p
        self.alpha = alpha
        self.size = p**alpha
        weights = [p**k for k in range(alpha)]
        digits = [[c // w % p for w in weights] for c in range(self.size)]

        def code(coeffs) -> int:
            return sum(c % p * w for c, w in zip(coeffs, weights))

        def times(a, b) -> list[int]:
            return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(alpha)]

        self.add = [[code(map(int.__add__, a, b)) for b in digits] for a in digits]
        self.sub = [[code(map(int.__sub__, a, b)) for b in digits] for a in digits]
        self.mul = [[code(times(a, b)) for b in digits] for a in digits]
        self.units = tuple(c for c in range(self.size) if c % p)
        self.inv = [row.index(1) if c % p else None for c, row in enumerate(self.mul)]

    def element(self, code: int) -> OElem:
        return OElem.from_code(self.p, self.alpha, code)


@lru_cache(maxsize=None)
def cached_ring(p: int, alpha: int) -> ORing:
    return ORing(p, alpha)


# ----------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class OMatrix:
    """Matrix over F_p[t]/(t^alpha) with uniform ring parameters."""

    entries: tuple[tuple[OElem, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ValueError("matrices must be nonempty")
        first = self.entries[0][0]
        for row in self.entries:
            if len(row) != len(self.entries[0]):
                raise ValueError("ragged matrix")
            for e in row:
                if e.p != first.p or e.alpha != first.alpha:
                    raise ValueError("mixed ring parameters")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def p(self) -> int:
        return self.entries[0][0].p

    @property
    def alpha(self) -> int:
        return self.entries[0][0].alpha

    @classmethod
    def identity(cls, n: int, p: int, alpha: int) -> "OMatrix":
        one, zero = OElem.one(p, alpha), OElem.zero(p, alpha)
        return cls(
            tuple(
                tuple(one if i == j else zero for j in range(n)) for i in range(n)
            )
        )

    def __add__(self, other: "OMatrix") -> "OMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return OMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "OMatrix") -> "OMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return OMatrix(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __mul__(self, other: "OMatrix") -> "OMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        zero = OElem.zero(self.p, self.alpha)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(tuple(row))
        return OMatrix(tuple(out))

    def commutator(self, other: "OMatrix") -> "OMatrix":
        return self * other - other * self

    def reduction(self) -> tuple[tuple[int, ...], ...]:
        """The matrix of constant coefficients, i.e. reduction modulo t."""
        return tuple(tuple(e.coeffs[0] for e in row) for row in self.entries)

    def is_invertible(self) -> bool:
        """Invertible over the ring iff the reduction mod t is invertible."""
        if self.rows != self.cols:
            return False
        return _det_mod_p(self.reduction(), self.p) != 0


def _det_mod_p(matrix: tuple[tuple[int, ...], ...], p: int) -> int:
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = (det * m[col][col]) % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            factor = (m[r][col] * inv) % p
            if factor:
                for c in range(col, n):
                    m[r][c] = (m[r][c] - factor * m[col][c]) % p
    return det % p


def enumerate_gl(
    r: int, p: int, alpha: int, guard: int = DEFAULT_GUARD
) -> Iterator[OMatrix]:
    """All invertible r x r matrices over F_p[t]/(t^alpha)."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if p ** (alpha * r * r) > guard:
        raise GuardError("enumeration too large")
    elems = [OElem.from_code(p, alpha, c) for c in range(p**alpha)]
    for flat in product(elems, repeat=r * r):
        mat = OMatrix(tuple(flat[i * r : (i + 1) * r] for i in range(r)))
        if mat.is_invertible():
            yield mat


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
