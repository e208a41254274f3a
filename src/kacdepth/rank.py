"""Higher-rank counts for the one-vertex g-loop quiver.

Isomorphism classes of rank-2 and rank-3 locally free representations over
F_q[t]/(t^alpha) are counted by Burnside sums over conjugacy classes of the
automorphism group, split by class type.  The per-type sums satisfy linear
recursions in the depth (4 types in rank 2, 10 types in rank 3, with
lower-triangular transition matrices); iterating them from the depth-1
values gives the total count M, and the plethystic logarithm of the
generating series 1 + M_1 t + M_2 t^2 + M_3 t^3 extracts the absolutely
indecomposable counts A, which must come out as integer polynomials.

Closed-form expressions for the rank-2 and rank-3 A are provided as an
independent route, together with a regression table of known rank-3 values
for small g and alpha.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly, RatFunc
from .plethysm import pleth_log
from .series import TSeries

RANK2_TYPES = ("I", "II1", "II2", "II3")
RANK3_TYPES = ("G", "L", "J", "T1", "T2", "T3", "M", "N", "K0", "Kinf")


def _qp(e: int) -> LaurentPoly:
    return LaurentPoly.q(e)


def _half(poly: LaurentPoly) -> LaurentPoly:
    return poly * Fraction(1, 2)


_Q = LaurentPoly.q()
_ONE = LaurentPoly.one()


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
        (RatFunc(_half(_qp(2 * g - 2) * (_Q - 1) * (_Q + 1))), d, zero, zero),
        (RatFunc(_qp(2 * g - 3) * (_Q - 1) * (_Q + 1)), zero, d, zero),
        (RatFunc(_half(_qp(2 * g - 2) * (_Q - 1) * (_Q - 1))), zero, zero, d),
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
        [RatFunc(_qp(3 * g - 5) * (_Q - 2) * q2m1 * q3m1, 6 * (_Q - 1)), RatFunc(_half(_qp(3 * g - 2) * q2m1)), z, d, z, z, z, z, z, z],
        [RatFunc(_half(_qp(3 * g - 4) * (_Q - 1) * q3m1)), RatFunc(_half(_qp(3 * g - 2) * (_Q - 1) ** 2)), z, z, d, z, z, z, z, z],
        [RatFunc(_qp(3 * g - 5) * (_Q - 1) * q2m1 * q2m1, 3), z, z, z, z, d, z, z, z, z],
        [RatFunc(_qp(3 * g - 6) * q2m1 * q3m1), RatFunc(_qp(3 * g - 3) * q2m1), RatFunc(_qp(3 * g - 1) * (_Q - 1)), z, z, z, d, z, z, z],
        [RatFunc(_qp(3 * g - 7) * q2m1 * q3m1), z, RatFunc(_qp(3 * g - 3) * (_Q - 1) ** 2), z, z, z, z, d, z, z],
        [z, z, RatFunc(_qp(3 * g - 3) * (_Q - 1)), z, z, z, z, z, d, z],
        # the last type also branches off J; without this feeder it would
        # stay identically zero, contradicting the depth>=2 values
        [z, z, RatFunc(_qp(3 * g - 3) * (_Q - 1)), z, z, z, z, z, z, d],
    ]
    return tuple(tuple(row) for row in rows)


def _iterate(
    initial: tuple[RatFunc, ...],
    matrix: tuple[tuple[RatFunc, ...], ...],
    alpha: int,
) -> tuple[RatFunc, ...]:
    vec = initial
    for _ in range(alpha - 1):
        vec = tuple(
            sum((m * v for m, v in zip(row, vec)), RatFunc.zero()) for row in matrix
        )
    return vec


def rank2_class_sums(g: int, alpha: int) -> tuple[RatFunc, ...]:
    """Per-type Burnside sums at the given depth (types I, II1, II2, II3)."""
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    return _iterate(rank2_initial(g), rank2_transition(g), alpha)


def rank3_class_sums(g: int, alpha: int) -> tuple[RatFunc, ...]:
    """Per-type Burnside sums at the given depth (ten types)."""
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    return _iterate(rank3_initial(g), rank3_transition(g), alpha)


def moment_total(g: int, alpha: int, rank: int) -> RatFunc:
    """Count M of all isomorphism classes in the given rank."""
    if rank == 1:
        return RatFunc(_qp(alpha * g))
    if rank == 2:
        return sum(rank2_class_sums(g, alpha), RatFunc.zero())
    if rank == 3:
        return sum(rank3_class_sums(g, alpha), RatFunc.zero())
    raise ValueError("rank out of implemented range")


def kac_from_moments(g: int, alpha: int, rmax: int) -> list[LaurentPoly]:
    """Extract A_1..A_rmax from the M-series by plethystic logarithm.

    The generating series identity sum_r M_r t^r = Exp(sum_r A_r t^r) is
    inverted; each extracted A must be a polynomial in q with integer
    coefficients, anything else signals a regression.
    """
    if rmax not in (2, 3):
        raise ValueError("rank out of implemented range")
    bound = (rmax,)
    terms = {(0,): RatFunc.one()}
    for r in range(1, rmax + 1):
        terms[(r,)] = moment_total(g, alpha, r)
    series = TSeries(1, bound, terms)
    a_series = pleth_log(series)
    out = []
    for r in range(1, rmax + 1):
        coeff = a_series.coefficient((r,))
        if not coeff.is_polynomial():
            raise ValueError("polynomiality violated")
        poly = coeff.as_polynomial()
        if not poly.is_integral() or (not poly.is_zero() and poly.min_exp() < 0):
            raise ValueError("polynomiality violated")
        out.append(poly)
    return out


# ----------------------------------------------------------------------
# closed forms


def closed_form_rank2(g: int, alpha: int) -> RatFunc:
    """Closed expression for the rank-2 count; reduces to a polynomial."""
    num = _qp(2 * alpha * g - 1) * (_qp(2 * g) - 1) * (_qp(alpha * (2 * g - 3)) - 1)
    den = (_Q**2 - 1) * (_qp(2 * g - 3) - 1)
    return RatFunc(num, den)


def closed_form_rank3(g: int, alpha: int) -> RatFunc:
    """Closed expression for the rank-3 count; reduces to a polynomial."""
    front = RatFunc(
        _qp(3 * alpha * g - 2) * (_qp(2 * g) - 1) * (_qp(2 * g - 1) - 1),
        (_Q**2 - 1)
        * (_Q**3 - 1)
        * (_qp(2 * g - 3) - 1)
        * (_qp(6 * g - 8) - 1)
        * (_qp(4 * g - 5) - 1),
    )
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
    return front * bracket


# ----------------------------------------------------------------------
# regression table: rank-3 values for g <= 3, alpha <= 5


def _poly(coeffs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly(coeffs)


REFERENCE_RANK3: dict[tuple[int, int], LaurentPoly] = {
    (1, 1): _poly({1: 1}),
    (1, 2): _poly({4: 1, 3: 1, 2: 2}),
    (1, 3): _poly({7: 1, 6: 1, 5: 3, 4: 2, 3: 2}),
    (1, 4): _poly({10: 1, 9: 1, 8: 3, 7: 3, 6: 4, 5: 2, 4: 2}),
    (1, 5): _poly({13: 1, 12: 1, 11: 3, 10: 3, 9: 5, 8: 4, 7: 4, 6: 2, 5: 2}),
    (2, 1): _poly({10: 1, 8: 1, 7: 1, 6: 1, 5: 1, 4: 1}),
    (2, 2): _poly(
        {20: 1, 18: 1, 17: 2, 16: 3, 15: 3, 14: 4, 13: 3, 12: 3, 11: 2, 10: 2}
    ),
    (2, 3): _poly(
        {
            30: 1, 28: 1, 27: 2, 26: 3, 25: 3, 24: 5, 23: 5, 22: 7, 21: 6,
            20: 7, 19: 5, 18: 4, 17: 3, 16: 2,
        }
    ),
    (2, 4): _poly(
        {
            40: 1, 38: 1, 37: 2, 36: 3, 35: 3, 34: 5, 33: 5, 32: 7, 31: 7,
            30: 9, 29: 9, 28: 10, 27: 9, 26: 9, 25: 6, 24: 5, 23: 3, 22: 2,
        }
    ),
    (2, 5): _poly(
        {
            50: 1, 48: 1, 47: 2, 46: 3, 45: 3, 44: 5, 43: 5, 42: 7, 41: 7,
            40: 9, 39: 9, 38: 11, 37: 11, 36: 13, 35: 12, 34: 13, 33: 11,
            32: 10, 31: 7, 30: 5, 29: 3, 28: 2,
        }
    ),
    (3, 1): _poly(
        {19: 1, 17: 1, 16: 1, 15: 1, 14: 1, 13: 2, 12: 1, 11: 2, 10: 2, 9: 1, 8: 1, 7: 1}
    ),
    (3, 2): _poly(
        {
            38: 1, 36: 1, 35: 1, 34: 1, 33: 1, 32: 2, 31: 2, 30: 3, 29: 4,
            28: 4, 27: 4, 26: 5, 25: 4, 24: 4, 23: 4, 22: 5, 21: 3, 20: 4,
            19: 3, 18: 2, 17: 1, 16: 1,
        }
    ),
    (3, 3): _poly(
        {
            57: 1, 55: 1, 54: 1, 53: 1, 52: 1, 51: 2, 50: 2, 49: 3, 48: 4,
            47: 4, 46: 4, 45: 5, 44: 4, 43: 5, 42: 5, 41: 7, 40: 6, 39: 8,
            38: 8, 37: 8, 36: 7, 35: 8, 34: 7, 33: 6, 32: 6, 31: 6, 30: 4,
            29: 4, 28: 3, 27: 2, 26: 1, 25: 1,
        }
    ),
    (3, 4): _poly(
        {
            76: 1, 74: 1, 73: 1, 72: 1, 71: 1, 70: 2, 69: 2, 68: 3, 67: 4,
            66: 4, 65: 4, 64: 5, 63: 4, 62: 5, 61: 5, 60: 7, 59: 6, 58: 8,
            57: 8, 56: 8, 55: 8, 54: 9, 53: 9, 52: 9, 51: 10, 50: 11, 49: 10,
            48: 11, 47: 11, 46: 11, 45: 9, 44: 10, 43: 8, 42: 7, 41: 6,
            40: 6, 39: 4, 38: 4, 37: 3, 36: 2, 35: 1, 34: 1,
        }
    ),
    (3, 5): _poly(
        {
            95: 1, 93: 1, 92: 1, 91: 1, 90: 1, 89: 2, 88: 2, 87: 3, 86: 4,
            85: 4, 84: 4, 83: 5, 82: 4, 81: 5, 80: 5, 79: 7, 78: 6, 77: 8,
            76: 8, 75: 8, 74: 8, 73: 9, 72: 9, 71: 9, 70: 10, 69: 11, 68: 10,
            67: 12, 66: 12, 65: 13, 64: 12, 63: 14, 62: 13, 61: 13, 60: 13,
            59: 14, 58: 13, 57: 13, 56: 13, 55: 12, 54: 10, 53: 10, 52: 8,
            51: 7, 50: 6, 49: 6, 48: 4, 47: 4, 46: 3, 45: 2, 44: 1, 43: 1,
        }
    ),
}

