"""Exact univariate Laurent polynomials and rational functions in q.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``).  A
Laurent polynomial is stored sparsely as a mapping from integer exponent to
nonzero coefficient; the zero polynomial is the empty mapping.  Rational
functions are reduced to a canonical form (coprime after clearing q-powers,
denominator with constant term and monic leading coefficient) so that
equality of values is equality of representations.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

Rational = int | Fraction


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"({c})"


class LaurentPoly:
    """Sparse Laurent polynomial in the single variable q."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None) -> None:
        data: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    data[int(e)] = c
        self._coeffs = data

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

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._coeffs.items()))

    def coeff(self, exponent: int) -> Fraction:
        return self._coeffs.get(exponent, Fraction(0))

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
        return all(c.denominator == 1 for c in self._coeffs.values())

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
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: "LaurentPoly | Rational") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.term(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        result = LaurentPoly()
        result._coeffs = out
        return result

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | Rational") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.term(other)
        return self + (-other)

    def __rsub__(self, other: Rational) -> "LaurentPoly":
        return LaurentPoly.term(other) - self

    def __mul__(self, other: "LaurentPoly | Rational") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        result = LaurentPoly()
        result._coeffs = out
        return result

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
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def scale_exponents(self, m: int) -> "LaurentPoly":
        """Substitute q -> q**m (m >= 1), i.e. multiply all exponents by m."""
        if m < 1:
            raise ValueError("invalid Adams index")
        return LaurentPoly({e * m: c for e, c in self._coeffs.items()})

    def evaluate(self, x: Rational) -> Fraction:
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * x**e
        return total

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
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"

    def to_triples(self) -> list[list]:
        """JSON form: [exponent, numerator string, denominator string] triples."""
        return [
            [e, str(c.numerator), str(c.denominator)]
            for e, c in sorted(self._coeffs.items())
        ]


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Quotient and remainder of ordinary polynomials (min_exp >= 0)."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    quo = LaurentPoly.zero()
    rem = a
    db = b.max_exp()
    lead = b.coeff(db)
    while not rem.is_zero() and rem.max_exp() >= db:
        e = rem.max_exp() - db
        c = rem.coeff(rem.max_exp()) / lead
        t = LaurentPoly.term(c, e)
        quo = quo + t
        rem = rem - t * b
    return quo, rem


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of ordinary polynomials over the rationals."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * (1 / a.coeff(a.max_exp()))


class RatFunc:
    """Rational function in q, kept in canonical reduced form.

    Canonical form: numerator and denominator are coprime once a common
    q-power is cleared, the denominator is an ordinary polynomial with
    nonzero constant term and leading coefficient 1, and all q-power content
    lives in the numerator (possibly as negative exponents).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly | Rational, den: LaurentPoly | Rational = 1) -> None:
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.term(num)
        if isinstance(den, (int, Fraction)):
            den = LaurentPoly.term(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        a, b = num.min_exp(), den.min_exp()
        nu, de = num.shift(-a), den.shift(-b)
        g = poly_gcd(nu, de)
        if g != LaurentPoly.one():
            nu, _ = poly_divmod(nu, g)
            de, _ = poly_divmod(de, g)
        lead = de.coeff(de.max_exp())
        self.num = nu.shift(a - b) * (1 / lead)
        self.den = de * (1 / lead)

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    @classmethod
    def q(cls, exponent: int = 1) -> "RatFunc":
        return cls(LaurentPoly.q(exponent))

    @staticmethod
    def _coerce(value: "RatFunc | LaurentPoly | Rational") -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        return RatFunc(value)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == LaurentPoly.one()

    def as_polynomial(self) -> LaurentPoly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    # ------------------------------------------------------------------
    # arithmetic

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __add__(self, other: "RatFunc | LaurentPoly | Rational") -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: "RatFunc | LaurentPoly | Rational") -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "RatFunc | LaurentPoly | Rational") -> "RatFunc":
        return self._coerce(other) - self

    def __mul__(self, other: "RatFunc | LaurentPoly | Rational") -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc | LaurentPoly | Rational") -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: "RatFunc | LaurentPoly | Rational") -> "RatFunc":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def inverse(self) -> "RatFunc":
        return RatFunc(self.den, self.num)

    def substitute_power(self, m: int) -> "RatFunc":
        """Adams substitution q -> q**m (m >= 1), a ring homomorphism."""
        if m < 1:
            raise ValueError("invalid Adams index")
        return RatFunc(self.num.scale_exponents(m), self.den.scale_exponents(m))

    def evaluate(self, x: Rational) -> Fraction:
        x = Fraction(x)
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) / d

    def series_at_infinity(self, min_exp: int) -> dict[int, Fraction]:
        """Laurent expansion in q**-1 around q = infinity.

        Returns coefficients for every exponent >= ``min_exp``.
        """
        if self.num.is_zero():
            return {}
        d = self.den.max_exp()
        den_lower = [(i - d, c) for i, c in self.den.items() if i != d]
        # 1/den = q^-d * (1 + u)^-1, expanded far enough to cover min_exp
        inv: dict[int, Fraction] = {-d: Fraction(1)}
        floor = min_exp - self.num.max_exp()
        for e in range(-d - 1, floor - 1, -1):
            s = Fraction(0)
            for off, c in den_lower:
                t = inv.get(e - off)
                if t is not None:
                    s -= c * t
            if s:
                inv[e] = s
        out: dict[int, Fraction] = {}
        for e1, c1 in self.num.items():
            for e2, c2 in inv.items():
                e = e1 + e2
                if e < min_exp:
                    continue
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return out

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_triples(), "den": self.den.to_triples()}


# 1 - q^-1 = |G_m(F_q)| / q: the classifying-space factor of one torus
ONE_MINUS_QINV = RatFunc(LaurentPoly({0: 1, -1: -1}))
