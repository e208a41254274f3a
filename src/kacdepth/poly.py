"""Exact univariate Laurent polynomials in q (layer L0).

Coefficients are exact rationals stored integer-first: an integral
coefficient is an ``int``, and only a non-integral one is a
``fractions.Fraction`` (a ``Fraction`` with denominator 1 is stored as its
``int``).  A Laurent polynomial is stored sparsely as a mapping from integer
exponent to nonzero coefficient; the zero polynomial is the empty mapping.

This module holds the ring operations only.  Division, gcds and rational
functions live in ``laurent``, which a process loads only when it forms a
rational function: the toric count and the orbit and fiber oracles never do.
Nor do the toric counts meet a ``Fraction``, so ``fractions`` (which imports
``decimal``: about 4 ms of every process start) is imported only once a
coefficient or operand that is not an ``int`` needs it.

No floating point is used anywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

    Rational = int | Fraction


def _exact(c: Rational) -> Rational:
    """c as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _scalar(x: object) -> bool:
    """Whether x is an ``int`` or a ``Fraction``: a constant polynomial."""
    if type(x) is int:
        return True
    if isinstance(x, LaurentPoly):
        return False
    from fractions import Fraction

    return isinstance(x, (int, Fraction))


def _fmt_coeff(c: Rational) -> str:
    return str(c.numerator) if c.denominator == 1 else f"({c})"


class LaurentPoly:
    """Sparse Laurent polynomial in the single variable q."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None) -> None:
        data: dict[int, Rational] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _exact(c)
                if c != 0:
                    data[int(e)] = c
        self._coeffs = data

    @classmethod
    def _settled(cls, data: dict[int, Rational]) -> "LaurentPoly":
        """Wrap nonzero coefficients, turning integral ``Fraction`` values into ``int``."""
        for e, c in data.items():
            if type(c) is not int and c.denominator == 1:
                data[e] = c.numerator
        result = cls.__new__(cls)
        result._coeffs = data
        return result

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q(cls, exponent: int = 1) -> "LaurentPoly":
        """The monomial q**exponent (exponent may be negative)."""
        return cls({exponent: 1})

    @classmethod
    def term(cls, coeff: Rational, exponent: int = 0) -> "LaurentPoly":
        return cls({exponent: coeff})

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> Iterator[tuple[int, Rational]]:
        return iter(sorted(self._coeffs.items()))

    def coeff(self, exponent: int) -> Rational:
        return self._coeffs.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(type(c) is int for c in self._coeffs.values())

    def is_nonnegative(self) -> bool:
        """True when every coefficient is >= 0."""
        return all(c >= 0 for c in self._coeffs.values())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    # ------------------------------------------------------------------
    # arithmetic

    def __eq__(self, other: object) -> bool:
        if _scalar(other):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._settled({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: "LaurentPoly | Rational") -> "LaurentPoly":
        if _scalar(other):
            other = LaurentPoly.term(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._settled(out)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | Rational") -> "LaurentPoly":
        if _scalar(other):
            other = LaurentPoly.term(other)
        return self + (-other)

    def __rsub__(self, other: Rational) -> "LaurentPoly":
        return LaurentPoly.term(other) - self

    def __mul__(self, other: "LaurentPoly | Rational") -> "LaurentPoly":
        if _scalar(other):
            other = _exact(other)
            if not other:
                return LaurentPoly()
            return LaurentPoly._settled({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, Rational] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly._settled(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q**k."""
        return LaurentPoly._settled({e + k: c for e, c in self._coeffs.items()})

    def evaluate(self, x: Rational) -> Rational:
        """The value at q = x; an ``int`` for an ``int`` x, ``int`` coefficients and no q^-k."""
        if type(x) is not int or any(e < 0 or type(c) is not int for e, c in self._coeffs.items()):
            from fractions import Fraction

            x = Fraction(x)
        return sum([c * x**e for e, c in self._coeffs.items()], x - x)

    # ------------------------------------------------------------------
    # presentation

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            mag = abs(c)
            if e == 0:
                body = _fmt_coeff(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{_fmt_coeff(mag)}{var}"
            parts.append(("-" if c < 0 else "+" if parts else "") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"

    def to_triples(self) -> list[list]:
        """JSON form: [exponent, numerator string, denominator string] triples."""
        return [[e, str(c.numerator), str(c.denominator)] for e, c in sorted(self._coeffs.items())]
