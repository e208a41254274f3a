"""Rational functions in q: division, gcds and the canonical form (layer L0).

``LaurentPoly`` lives in ``poly``; this module adds what only a rational
function needs, so a process that never forms one never loads it.
Rational functions are reduced to a canonical form (coprime after clearing
q-powers, denominator with constant term and monic leading coefficient) so
that equality of values is equality of representations.

The expansion at q = infinity is one long division by the denominator.

Sums of terms over products of (q^c - 1) whose denominators vary from term
to term (the depth limit, the Hilbert series and the certificate) run on
``_CycloSum``, which adds numerators over a common denominator and forms
one ``RatFunc`` at the end.

Gcds are taken fraction-free: denominators are cleared into dense integer
coefficient lists and a primitive pseudo-remainder sequence runs on them
(W. S. Brown, J. ACM 18, 1971).

No floating point is used anywhere.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .poly import LaurentPoly, _scalar

if TYPE_CHECKING:
    from .poly import Rational

# ----------------------------------------------------------------------
# dense division and gcd of ordinary polynomials (min_exp >= 0)


def _dense(p: LaurentPoly) -> list[Rational]:
    """Coefficients of a nonzero ordinary polynomial, leading one first."""
    coeffs = p._coeffs
    if min(coeffs) < 0:
        raise ValueError(f"not an ordinary polynomial: {p}")
    top = max(coeffs)
    out: list[Rational] = [0] * (top + 1)
    for e, c in coeffs.items():
        out[top - e] = c
    return out


def _sparse(dense: list[Rational], scale: Rational = 1) -> LaurentPoly:
    """The polynomial with coefficients ``dense`` (leading first), times ``scale``."""
    top = len(dense) - 1
    return LaurentPoly._settled({top - i: c * scale for i, c in enumerate(dense) if c})


def _primitive(a: list[Rational]) -> list[int]:
    """The primitive integer multiple of ``a`` with a positive leading coefficient."""
    d = lcm(*(c.denominator for c in a))
    a = [c.numerator * (d // c.denominator) for c in a]
    g = gcd(*a)
    if a[0] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a nonzero integer, leading zeros stripped.

    Each step cancels the leading term with the smallest integer multipliers,
    so no denominator is ever formed; [] when b divides a.  Needs
    len(a) >= len(b) >= 2.
    """
    r = list(a)
    n, m = len(a), len(b)
    lb = b[0]
    for i in range(n - m + 1):
        c = r[i]
        if not c:
            continue
        g = gcd(c, lb)
        f, c = lb // g, c // g
        if f != 1:
            for j in range(i + 1, n):
                r[j] *= f
        for j in range(1, m):
            r[i + j] -= c * b[j]
    k = n - m + 1
    while k < n and not r[k]:
        k += 1
    return r[k:]


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Quotient and remainder over Q of ordinary polynomials (min_exp >= 0).

    Long division on dense coefficient lists, over the nonzero terms of b
    only; a quotient coefficient stays an ``int`` whenever the leading
    coefficient of b divides it exactly, and ``fractions`` is imported only
    for a leading coefficient other than 1 or -1.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    if a.is_zero():
        return LaurentPoly(), LaurentPoly()
    r, d = _dense(a), _dense(b)
    lead, m = d[0], len(d)
    tail = [(j, c) for j, c in enumerate(d) if c and j]
    inverse = _inverse(lead)
    quo: list[Rational] = []
    for i in range(len(r) - m + 1):
        c = r[i]
        if type(c) is int and type(lead) is int and c % lead == 0:
            c //= lead
        else:
            c *= inverse
        quo.append(c)
        if c:
            for j, dj in tail:
                r[i + j] -= c * dj
    return _sparse(quo), _sparse(r[len(quo):])


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd over the rationals of ordinary polynomials (min_exp >= 0).

    Runs a primitive pseudo-remainder sequence on the primitive integer
    multiples of a and b; the gcd of two zeros is zero.
    """
    if a.is_zero():
        a, b = b, a
    if a.is_zero():
        return LaurentPoly()
    g = _primitive(_dense(a))
    h = [] if b.is_zero() else _primitive(_dense(b))
    if len(g) < len(h):
        g, h = h, g
    while len(h) > 1:
        r = _prem(g, h)
        g, h = h, (_primitive(r) if r else [])
    if h:  # a nonzero constant, [1] once primitive
        g = h
    return _sparse(g, _inverse(g[0]))


def _inverse(c: Rational) -> Rational:
    """1 / c, an ``int`` for c = +-1: ``fractions`` is imported only for another c."""
    if c in (1, -1):
        return int(c)
    from fractions import Fraction

    return 1 / Fraction(c)


class RatFunc:
    """Rational function in q, kept in canonical reduced form.

    Canonical form: numerator and denominator are coprime once a common
    q-power is cleared, the denominator is an ordinary polynomial with
    nonzero constant term and leading coefficient 1, and all q-power content
    lives in the numerator (possibly as negative exponents).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly | Rational, den: LaurentPoly | Rational = 1) -> None:
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.term(num)
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly.term(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        a, b = num.min_exp(), den.min_exp()
        nu, de = num.shift(-a), den.shift(-b)
        if len(de) > 1:  # a monomial denominator needs no gcd
            g = poly_gcd(nu, de)
            if g.max_exp() > 0:
                nu, _ = poly_divmod(nu, g)
                de, _ = poly_divmod(de, g)
        nu = nu.shift(a - b)
        inverse = _inverse(de.coeff(de.max_exp()))
        if inverse != 1:
            nu, de = nu * inverse, de * inverse
        self.num, self.den = nu, de

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
        if not isinstance(other, RatFunc):
            if not (isinstance(other, LaurentPoly) or _scalar(other)):
                return NotImplemented
            other = RatFunc(other)
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

    def substitute_power(self, m: int) -> "RatFunc":
        """Adams substitution q -> q**m (m >= 1), a ring homomorphism."""
        if m < 1:
            raise ValueError("invalid Adams index")
        num, den = (LaurentPoly({e * m: c for e, c in p.items()}) for p in (self.num, self.den))
        return RatFunc(num, den)

    def evaluate(self, x: Rational) -> Rational:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) * _inverse(d)

    def series_at_infinity(self, min_exp: int) -> dict[int, Rational]:
        """Laurent expansion in q**-1 around q = infinity.

        Returns coefficients for every exponent >= ``min_exp``.  One long
        division: with a the lowest exponent of the numerator and
        k = max(a - min_exp, 0), the quotient of q^(k-a) num by den, times
        q^(a-k), is the expansion down to q^(a-k) <= q^min_exp; the
        remainder over den only reaches exponents below a - k.
        """
        if self.num.is_zero():
            return {}
        a = self.num.min_exp()
        k = max(a - min_exp, 0)
        quo, _ = poly_divmod(self.num.shift(k - a), self.den)
        return {e: c for e, c in quo.shift(a - k).items() if e >= min_exp}

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


# ----------------------------------------------------------------------
# sums over products of (q^c - 1)


def _lift(coeffs: list[Rational], have: tuple[int, ...], want: tuple[int, ...]) -> list[Rational]:
    """Dense coefficients (lowest first) times prod_c (q^c - 1)^(want_c - have_c)."""
    for c, (w, h) in enumerate(zip_longest(want, have, fillvalue=0), start=1):
        for _ in range(w - h):
            coeffs = [a - b for a, b in zip([0] * c + coeffs, coeffs + [0] * c)]
    return coeffs


def _add_dense(parts: list[tuple[int, list[Rational]]]) -> tuple[int, list[Rational]]:
    """The sum of (low, coefficients from q^low upward) numerators, in that form."""
    if len(parts) == 1:
        return parts[0]
    low = min((lo for lo, _ in parts), default=0)
    top = max((lo + len(c) for lo, c in parts), default=0)
    cols = [[0] * (lo - low) + c + [0] * (top - lo - len(c)) for lo, c in parts]
    return low, [sum(col) for col in zip(*cols)]


class _CycloSum(NamedTuple):
    """The exact value num / prod_c (q^c - 1)^(e_c), summed without gcds.

    ``coeffs`` holds the coefficients of num from q^low upward (``int`` or
    ``Fraction``; low may be negative), and ``exps[c - 1]`` is e_c, with no
    trailing zeros.
    """

    low: int
    coeffs: list[Rational]
    exps: tuple[int, ...] = ()

    @classmethod
    def over(cls, num: LaurentPoly, cyclo: Sequence[int] = ()) -> "_CycloSum":
        """num / prod of (q^c - 1) over the c >= 1 in cyclo, repeats allowed."""
        exps = [0] * max(cyclo, default=0)
        for c in cyclo:
            exps[c - 1] += 1
        low, top = (num.min_exp(), num.max_exp()) if num else (0, -1)
        return cls(low, [num.coeff(e) for e in range(low, top + 1)], tuple(exps))

    def divided(self, c: int) -> "_CycloSum":
        """This value over q^c - 1, for c >= 1."""
        exps = [*self.exps, *[0] * (c - len(self.exps))]
        exps[c - 1] += 1
        return self._replace(exps=tuple(exps))

    def times(self, poly: LaurentPoly) -> "_CycloSum":
        """This value times a Laurent polynomial."""
        return _cyclo_sum(
            _CycloSum(self.low + e, [c * x for x in self.coeffs], self.exps) for e, c in poly.items()
        )

    def ratfunc(self) -> RatFunc:
        """The value in the normal form of ``RatFunc``: the one gcd of the sum."""
        num = LaurentPoly(dict(enumerate(self.coeffs, self.low)))
        return RatFunc(num, LaurentPoly(dict(enumerate(_lift([1], (), self.exps)))))


def _cyclo_sum(terms: Iterable[_CycloSum]) -> _CycloSum:
    """The sum of terms, lifted to the componentwise maximum of their exponents.

    Terms with equal exponents are added first, so that each exponent vector
    is lifted once.
    """
    groups: dict[tuple[int, ...], list[tuple[int, list[Rational]]]] = {}
    for low, coeffs, exps in terms:
        groups.setdefault(exps, []).append((low, coeffs))
    want = tuple(map(max, zip_longest(*groups, fillvalue=0)))
    parts = []
    for have, group in groups.items():
        low, coeffs = _add_dense(group)
        parts.append((low, _lift(coeffs, have, want)))
    return _CycloSum(*_add_dense(parts), want)
