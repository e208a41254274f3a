"""Higher-rank counts for the one-vertex g-loop quiver.

Isomorphism classes of rank-2 and rank-3 locally free representations over
F_q[t]/(t^alpha) are counted by Burnside sums over conjugacy classes of the
automorphism group, split by class type.  The per-type sums satisfy linear
recursions in the depth (4 types in rank 2, 10 types in rank 3, with
lower-triangular transition matrices); iterating them from the depth-1
values gives the total count M.  Every per-type sum at every depth is a
numerator over the one denominator (q-1)(q^2-1)(q^3-1), with coefficient
denominators dividing 6, so the recursion runs on 6 times the numerators,
in integers; M_2, M_3 and the closed forms are each one exact division, and
an inexact one raises ``ValueError``.  The plethystic logarithm of the
generating series 1 + M_1 t + M_2 t^2 + M_3 t^3 extracts the absolutely
indecomposable counts A, which must come out as integer polynomials.

Closed-form expressions for the rank-2 and rank-3 A are provided as an
independent route, together with a regression table of known rank-3 values
for small g and alpha.  ``rank_table`` walks the depths 1..alpha in one
guarded pass and checks each depth against both.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Iterator

from .laurent import RatFunc, poly_divmod
from .oring import DEFAULT_GUARD, check_work
from .poly import LaurentPoly
from .plethysm import pleth_log
from .series import TSeries


_qp = LaurentPoly.q
_Q = _qp(1)


def rank2_initial(g: int) -> tuple[RatFunc, ...]:
    """Depth-1 per-type Burnside sums for rank 2."""
    if g < 1:
        raise ValueError("need at least one loop")
    return (
        RatFunc(_qp(4 * g), _Q * (_Q - 1) * (_Q + 1)),
        RatFunc(_qp(2 * g) * (_Q - 2), 2 * (_Q - 1)),
        RatFunc(_qp(2 * g - 1)),
        RatFunc(_qp(2 * g + 1), 2 * (_Q + 1)),
    )


def rank2_transition(g: int) -> tuple[tuple[RatFunc, ...], ...]:
    zero = RatFunc.zero()
    d = RatFunc(_qp(2 * g))
    return (
        (RatFunc(_qp(4 * g - 3)), zero, zero, zero),
        (RatFunc(_qp(2 * g - 2) * (_Q - 1) * (_Q + 1), 2), d, zero, zero),
        (RatFunc(_qp(2 * g - 3) * (_Q - 1) * (_Q + 1)), zero, d, zero),
        (RatFunc(_qp(2 * g - 2) * (_Q - 1) * (_Q - 1), 2), zero, zero, d),
    )


def rank3_initial(g: int) -> tuple[RatFunc, ...]:
    """Depth-1 per-type Burnside sums for rank 3 (two types vanish at depth 1)."""
    if g < 1:
        raise ValueError("need at least one loop")
    return (
        RatFunc(_qp(9 * g - 3), (_Q**2 - 1) * (_Q**3 - 1)),
        RatFunc(_qp(5 * g - 1) * (_Q - 2), (_Q - 1) * (_Q**2 - 1)),
        RatFunc(_qp(5 * g - 3), _Q - 1),
        RatFunc(_qp(3 * g) * (_Q - 2) * (_Q - 3), 6 * (_Q - 1) ** 2),
        RatFunc(_qp(3 * g + 1), 2 * (_Q + 1)),
        RatFunc(_qp(3 * g + 1) * (_Q**2 - 1), 3 * (_Q**3 - 1)),
        RatFunc(_qp(3 * g - 1) * (_Q - 2), _Q - 1),
        RatFunc(_qp(3 * g - 2)),
        RatFunc.zero(),
        RatFunc.zero(),
    )


def rank3_transition(g: int) -> tuple[tuple[RatFunc, ...], ...]:
    z = RatFunc.zero()
    d = RatFunc(_qp(3 * g))
    q2m1 = _Q**2 - 1
    q3m1 = _Q**3 - 1
    rows = [
        [RatFunc(_qp(9 * g - 8)), z, z, z, z, z, z, z, z, z],
        [RatFunc(_qp(5 * g - 6) * q3m1), RatFunc(_qp(5 * g - 3)), z, z, z, z, z, z, z, z],
        [RatFunc(_qp(5 * g - 8) * q2m1 * q3m1, _Q - 1), z, RatFunc(_qp(5 * g - 3)), z, z, z, z, z, z, z],
        [RatFunc(_qp(3 * g - 5) * (_Q - 2) * q2m1 * q3m1, 6 * (_Q - 1)), RatFunc(_qp(3 * g - 2) * q2m1, 2), z, d, z, z, z, z, z, z],
        [RatFunc(_qp(3 * g - 4) * (_Q - 1) * q3m1, 2), RatFunc(_qp(3 * g - 2) * (_Q - 1) ** 2, 2), z, z, d, z, z, z, z, z],
        [RatFunc(_qp(3 * g - 5) * (_Q - 1) * q2m1 * q2m1, 3), z, z, z, z, d, z, z, z, z],
        [RatFunc(_qp(3 * g - 6) * q2m1 * q3m1), RatFunc(_qp(3 * g - 3) * q2m1), RatFunc(_qp(3 * g - 1) * (_Q - 1)), z, z, z, d, z, z, z],
        [RatFunc(_qp(3 * g - 7) * q2m1 * q3m1), z, RatFunc(_qp(3 * g - 3) * (_Q - 1) ** 2), z, z, z, z, d, z, z],
        [z, z, RatFunc(_qp(3 * g - 3) * (_Q - 1)), z, z, z, z, z, d, z],
        # the last type also branches off J; without this feeder it would
        # stay identically zero, contradicting the depth>=2 values
        [z, z, RatFunc(_qp(3 * g - 3) * (_Q - 1)), z, z, z, z, z, z, d],
    ]
    return tuple(tuple(row) for row in rows)


# every per-type denominator divides this one (see the module docstring)
_CYCLO_DEN = (_Q - 1) * (_Q**2 - 1) * (_Q**3 - 1)


def _exact_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """num / den, which must be a Laurent polynomial: one long division once
    the q-powers are shifted out (at g = 1 the closed forms hold q^-1 - 1),
    ``ValueError`` if it leaves a remainder."""
    if not num or den == 1:
        return num
    a, b = num.min_exp(), den.min_exp()
    quo, rem = poly_divmod(num.shift(-a), den.shift(-b))
    if rem:
        raise ValueError("polynomiality violated")
    return quo.shift(a - b)


def _step(vec: tuple[LaurentPoly, ...], rows) -> tuple[LaurentPoly, ...]:
    """One depth step: each row sums its nonzero entries times ``vec``."""
    return tuple(sum((m * vec[j] for j, m in row), LaurentPoly()) for row in rows)


def _depths(
    initial: tuple[RatFunc, ...],
    matrix: tuple[tuple[RatFunc, ...], ...],
    alpha: int,
) -> Iterator[tuple[LaurentPoly, ...]]:
    """6 times the numerators over ``_CYCLO_DEN`` of the per-type sums at
    depths 1..alpha, with integer coefficients, one step per depth: row i
    is scaled by the lcm s_i of its coefficient denominators (2 for the
    halved entries, 3 and 6 in rank 3), and a step divides its sum by s_i."""
    rows = [[(j, m.as_polynomial()) for j, m in enumerate(row) if not m.is_zero()] for row in matrix]
    scales = [LaurentPoly.term(lcm(*(c.denominator for _, m in row for _, c in m.items()))) for row in rows]
    rows = [[(j, m * s) for j, m in row] for row, s in zip(rows, scales)]
    top = 6 * _CYCLO_DEN
    vec = tuple(value.num * _exact_quotient(top, value.den) for value in initial)
    yield vec
    for _ in range(alpha - 1):
        vec = tuple(map(_exact_quotient, _step(vec, rows), scales))
        yield vec


def _class_sums(initial, transition, g: int, alpha: int) -> tuple[RatFunc, ...]:
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    *_, sums = _depths(initial(g), transition(g), alpha)
    return tuple(RatFunc(s, 6 * _CYCLO_DEN) for s in sums)


def rank2_class_sums(g: int, alpha: int) -> tuple[RatFunc, ...]:
    """Per-type Burnside sums at the given depth (types I, II1, II2, II3)."""
    return _class_sums(rank2_initial, rank2_transition, g, alpha)


def rank3_class_sums(g: int, alpha: int) -> tuple[RatFunc, ...]:
    """Per-type Burnside sums at the given depth (ten types)."""
    return _class_sums(rank3_initial, rank3_transition, g, alpha)


def moment_total(g: int, alpha: int, rank: int) -> RatFunc:
    """Count M of all isomorphism classes in the given rank."""
    if rank == 1:
        return RatFunc(_qp(alpha * g))
    if rank == 2:
        return sum(rank2_class_sums(g, alpha), RatFunc.zero())
    if rank == 3:
        return sum(rank3_class_sums(g, alpha), RatFunc.zero())
    raise ValueError("rank out of implemented range")


def _kac_from_totals(totals: list[RatFunc | LaurentPoly]) -> list[LaurentPoly]:
    """A_1..A_r from M_1..M_r by plethystic logarithm.

    The generating series identity sum_r M_r t^r = Exp(sum_r A_r t^r) is
    inverted; each extracted A must be a polynomial in q with integer
    coefficients, anything else signals a regression.
    """
    terms = {(r,): m for r, m in enumerate([1, *totals])}
    a_series = pleth_log(TSeries((len(totals),), terms))
    out = []
    for r in range(1, len(totals) + 1):
        coeff = a_series.coefficient((r,))
        poly = coeff.num
        if not coeff.is_polynomial() or not poly.is_integral() or (poly and poly.min_exp() < 0):
            raise ValueError("polynomiality violated")
        out.append(poly)
    return out


# ----------------------------------------------------------------------
# closed forms: one exact division of a numerator product by a denominator


def closed_form_rank2(g: int, alpha: int) -> RatFunc:
    """Closed expression for the rank-2 count; a polynomial (``ValueError`` otherwise)."""
    num = _qp(2 * alpha * g - 1) * (_qp(2 * g) - 1) * (_qp(alpha * (2 * g - 3)) - 1)
    den = (_Q**2 - 1) * (_qp(2 * g - 3) - 1)
    return RatFunc(_exact_quotient(num, den))


def closed_form_rank3(g: int, alpha: int) -> RatFunc:
    """Closed expression for the rank-3 count; a polynomial (``ValueError`` otherwise)."""
    front = _qp(3 * alpha * g - 2) * (_qp(2 * g) - 1) * (_qp(2 * g - 1) - 1)
    den = prod(_qp(e) - 1 for e in (2, 3, 2 * g - 3, 6 * g - 8, 4 * g - 5))
    bracket = (
        _qp(alpha * (6 * g - 8) - 1) * (_qp(6 * g - 7) - 1) * (_qp(2 * g) + 1)
        - _qp(alpha * (6 * g - 8) + 2 * g - 4) * (_Q**2 - 1) * (_qp(4 * g - 3) + 1)
        - _qp(alpha * (2 * g - 3) - 1)
        * (_Q**2 + _Q + 1)
        * (_qp(2 * g - 1) + 1)
        * (_qp(6 * g - 8) - 1)
        + (_Q + 1) * (_qp(8 * g - 10) - 1)
        + _qp(2 * g - 4) * (_Q**4 + 1) * (_qp(4 * g - 5) - 1)
    )
    return RatFunc(_exact_quotient(front * bracket, den))


# ----------------------------------------------------------------------
# regression table: rank-3 values for g <= 3, alpha <= 5, each given as
# (g, alpha): (top exponent, coefficients of q^top, q^(top-1), ... downward)


REFERENCE_RANK3: dict[tuple[int, int], LaurentPoly] = {
    key: LaurentPoly({top - i: c for i, c in enumerate(coeffs)})
    for key, (top, coeffs) in {
        (1, 1): (1, [1]),
        (1, 2): (4, [1, 1, 2]),
        (1, 3): (7, [1, 1, 3, 2, 2]),
        (1, 4): (10, [1, 1, 3, 3, 4, 2, 2]),
        (1, 5): (13, [1, 1, 3, 3, 5, 4, 4, 2, 2]),
        (2, 1): (10, [1, 0, 1, 1, 1, 1, 1]),
        (2, 2): (20, [1, 0, 1, 2, 3, 3, 4, 3, 3, 2, 2]),
        (2, 3): (30, [1, 0, 1, 2, 3, 3, 5, 5, 7, 6, 7, 5, 4, 3, 2]),
        (2, 4): (40, [1, 0, 1, 2, 3, 3, 5, 5, 7, 7, 9, 9, 10, 9, 9, 6, 5, 3, 2]),
        (2, 5): (50, [1, 0, 1, 2, 3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 12, 13, 11, 10, 7, 5, 3, 2]),
        (3, 1): (19, [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 1, 1, 1]),
        (3, 2): (38, [1, 0, 1, 1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 4, 4, 4, 5, 3, 4, 3, 2, 1, 1]),
        (3, 3): (57, [
            1, 0, 1, 1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 4, 5, 5, 7, 6, 8, 8, 8, 7, 8, 7,
            6, 6, 6, 4, 4, 3, 2, 1, 1]),
        (3, 4): (76, [
            1, 0, 1, 1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 4, 5, 5, 7, 6, 8, 8, 8, 8, 9, 9,
            9, 10, 11, 10, 11, 11, 11, 9, 10, 8, 7, 6, 6, 4, 4, 3, 2, 1, 1]),
        (3, 5): (95, [
            1, 0, 1, 1, 1, 1, 2, 2, 3, 4, 4, 4, 5, 4, 5, 5, 7, 6, 8, 8, 8, 8, 9, 9,
            9, 10, 11, 10, 12, 12, 13, 12, 14, 13, 13, 13, 14, 13, 13, 13, 12, 10,
            10, 8, 7, 6, 6, 4, 4, 3, 2, 1, 1]),
    }.items()
}


# ----------------------------------------------------------------------
# the table: every depth up to alpha in one pass


def rank_table(g: int, alpha: int, guard: int = DEFAULT_GUARD) -> Iterator[tuple]:
    """Yield ``(a, [A_1, A_2, A_3], routes)`` for each depth a = 1..alpha.

    The rank-2 and rank-3 recursions take one step per depth.  ``routes``
    holds ``(name, polynomial, agrees)`` for the closed rank-2 and rank-3
    forms and, where it has the entry, the stored rank-3 table.

    The work estimate alpha * (9 g (alpha + 2))^2 is checked before any
    polynomial is built: alpha depths on polynomials of degree up to about
    9 g (alpha + 2) (9 g alpha for the rank-3 sums, plus the degree-(12 g - 11)
    denominator of the closed rank-3 form), quadratic in the degree.  Tables
    just under the default guard 2^24, from g = 150 at alpha = 1 to g = 2 at
    alpha = 35, took 0.01-0.06 s in process.
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if g < 1:
        raise ValueError("need at least one loop")
    check_work("rank-table", alpha * (9 * g * (alpha + 2)) ** 2, guard)
    sums2 = _depths(rank2_initial(g), rank2_transition(g), alpha)
    sums3 = _depths(rank3_initial(g), rank3_transition(g), alpha)
    top = 6 * _CYCLO_DEN
    for a, (s2, s3) in enumerate(zip(sums2, sums3), start=1):
        totals = [moment_total(g, a, 1)] + [_exact_quotient(sum(s, LaurentPoly()), top) for s in (s2, s3)]
        polys = _kac_from_totals(totals)
        routes = [
            ("closed rank-2 route", closed_form_rank2(g, a).as_polynomial(), 1),
            ("closed rank-3 route", closed_form_rank3(g, a).as_polynomial(), 2),
        ]
        if (g, a) in REFERENCE_RANK3:
            routes.append(("stored table", REFERENCE_RANK3[(g, a)], 2))
        yield a, polys, [(name, poly, poly == polys[r]) for name, poly, r in routes]
