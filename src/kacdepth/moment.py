"""Exact moment-map fiber counts over O = F_p[t]/(t^alpha) and the
counting identities they verify.

The moment map on the doubled quiver sends (x_a, y_a) to the vertexwise
commutator sums (sum_{t(a)=i} x_a y_a - sum_{s(a)=i} y_a x_a).  For fixed x
it is F_p-linear in y, so a fiber count enumerates the p^(alpha h) choices
of x (h = sum of r_s r_t over the arrows) and solves one linear system mod p
per x, instead of enumerating every pair (x, y).  The work estimate is
p^(alpha max(h, 1)) * R * (C+1) * max(1, min(R, C)) + isqrt(p), with
R = alpha * sum r_i^2 equations, C = alpha h unknowns and isqrt(p) for the
primality test; h counts as at least 1 because target codes run up to
p^alpha, which bounds the cost of building and decoding them.  The fiber
counts feed three symbolic checks:

* ``verify_exp_identity``   -- the normalised zero-fiber generating series
  equals the plethystic exponential of the indecomposable-count series;
* ``verify_generic_fiber``  -- the fiber over t^(alpha-1) times a generic
  parameter recovers the indecomposable count directly;
* ``e_series_check``        -- graded-dimension bookkeeping: the quotient of
  counting polynomials, expanded at infinity, matches the product formula
  with its shift and classifying-space factors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import isqrt
from typing import Iterator, Sequence

from .laurent import ONE_MINUS_QINV, LaurentPoly, RatFunc
from .oring import DEFAULT_GUARD, _check_prime, check_work, group_order_gl, guarded_power
from .plethysm import pleth_exp
from .quiver import Quiver
from .rank import closed_form_rank2
from .series import TSeries
from .toric import toric_kac_chain

Matrix = tuple[tuple[int, ...], ...]


def is_generic(lam: Sequence[int], rank: Sequence[int]) -> bool:
    """lam . rank = 0 and lam . r' != 0 for every 0 < r' < rank."""
    if len(lam) != len(rank):
        raise ValueError("length mismatch")
    if sum(a * b for a, b in zip(lam, rank)) != 0:
        return False
    for sub in product(*(range(r + 1) for r in rank)):
        if not any(sub) or tuple(sub) == tuple(rank):
            continue
        if sum(a * b for a, b in zip(lam, sub)) == 0:
            return False
    return True


def generic_target(
    quiver: Quiver,
    rank: Sequence[int],
    lam: Sequence[int],
    p: int,
    alpha: int,
    guard: int = DEFAULT_GUARD,
) -> tuple[Matrix, ...]:
    """Per-vertex matrix t^(alpha-1) * lam_i * Id over integer-coded entries.

    Codes are base-p digit strings, so lam_i t^(alpha-1) has code
    (lam_i mod p) * p^(alpha-1).  The fiber count's work estimate is checked
    first, so no target is built for a count the guard would refuse.
    """
    for name, vec in (("lam", lam), ("rank", rank)):
        if len(vec) != quiver.nvertices:
            raise ValueError(
                f"{name} has {len(vec)} entries; expected {quiver.nvertices}, one per vertex"
            )
    rank = _check_fiber_work(quiver, rank, p, alpha, guard)
    out = []
    for i in range(quiver.nvertices):
        scalar = (lam[i] % p) * p ** (alpha - 1)
        n = rank[i]
        out.append(
            tuple(
                tuple(scalar if r == c else 0 for c in range(n)) for r in range(n)
            )
        )
    return tuple(out)


# ----------------------------------------------------------------------
# fiber counting


def _check_fiber_work(
    quiver: Quiver, rank: Sequence[int], p: int, alpha: int, guard: int
) -> tuple[int, ...]:
    """Validate a fiber count's inputs and check its work estimate (see the
    module docstring) before p is tested for primality; return the rank tuple."""
    rank = tuple(int(r) for r in rank)
    if len(rank) != quiver.nvertices or any(r < 0 for r in rank):
        raise ValueError("bad rank vector")
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    rows = alpha * sum(r * r for r in rank)
    cols = alpha * sum(rank[s] * rank[t] for s, t in quiver.arrows)
    power = guarded_power(p, max(cols, alpha), "fiber enumeration", guard)
    work = power * rows * (cols + 1) * max(1, min(rows, cols)) + isqrt(p)
    check_work("fiber enumeration", work, guard)
    return rank


def _reduce(vec: list[int], basis: dict[int, list[int]], p: int) -> int | None:
    """Reduce vec mod p by the echelon basis {i: row with 1 at i, 0 before}; unless
    it reduces to 0 (None), scale it in place to a leading 1 and return its lead."""
    for i in range(len(vec)):
        c = vec[i] % p
        if c and i not in basis:
            inv = pow(c, -1, p)
            vec[i:] = [v * inv % p for v in vec[i:]]
            return i
        if c:
            vec[i:] = [(v - c * b) % p for v, b in zip(vec[i:], basis[i][i:])]
    return None


def moment_fiber_count(
    quiver: Quiver,
    rank: Sequence[int],
    p: int,
    alpha: int,
    target: tuple[Matrix, ...] | None = None,
    guard: int = DEFAULT_GUARD,
) -> int:
    """Exact number of points (x, y) on the doubled quiver with mu(x, y) = target.

    For each x the y-count is 0 or p^(C - rank) of one linear system mod p,
    whose column for y_a[k][l] = t^d is mu(x, t^d e_kl): it adds t^d x_a[u][k]
    to entry (u, l) at t(a) and subtracts t^d x_a[l][v] from entry (k, v) at
    s(a), truncated at t^alpha.  Arrows with a zero-rank endpoint carry no
    coordinates; vertices of rank zero impose no condition; a target code
    outside range(p^alpha) matches no point; no target means the zero fiber.
    The work estimate p^(alpha max(h, 1)) * R * (C+1) * max(1, min(R, C))
    + isqrt(p) must not exceed guard (see the module docstring).
    """
    rank = _check_fiber_work(quiver, rank, p, alpha, guard)
    _check_prime(p)
    verts = [i for i in range(quiver.nvertices) if rank[i] > 0]
    if target is not None and any(
        len(target[i]) != rank[i] or any(len(row) != rank[i] for row in target[i])
        for i in verts
    ):
        raise ValueError("target shape mismatch")
    # one block of alpha rows (the base-p digits) per target entry (i, u, v)
    block: dict[tuple[int, int, int], int] = {}
    rhs: list[int] = []
    for i in verts:
        for u, v in product(range(rank[i]), repeat=2):
            block[i, u, v] = len(block)
            code = 0 if target is None else target[i][u][v]
            for _ in range(alpha):
                code, digit = divmod(code, p)
                rhs.append(digit)
            if code:  # outside range(p^alpha): no ring element
                return 0
    # digit e of x_a[u][k] is x[(nx + u r_s + k) alpha + e], nx counting earlier arrows
    columns: list[list[tuple[int, int, int]]] = []
    nx = 0
    for a, (s, t) in enumerate(quiver.arrows):
        rs, rt = rank[s], rank[t]
        for k, l in product(range(rs), range(rt)):
            terms = [(block[t, u, l], nx + u * rs + k, 1) for u in range(rt)]
            terms += [(block[s, k, v], nx + l * rs + v, -1) for v in range(rs)]
            columns += [
                [
                    (rb * alpha + e, xi * alpha + e - d, sign)
                    for rb, xi, sign in terms
                    for e in range(d, alpha)
                ]
                for d in range(alpha)
            ]
        nx += rs * rt
    count = 0
    for x in product(range(p), repeat=alpha * nx):
        basis: dict[int, list[int]] = {}
        for entries in columns:
            col = [0] * len(rhs)
            for r, f, sign in entries:
                col[r] += sign * x[f]
            lead = _reduce(col, basis, p)
            if lead is not None:
                basis[lead] = col
        if _reduce(rhs[:], basis, p) is None:
            count += p ** (len(columns) - len(basis))
    return count


# ----------------------------------------------------------------------
# symbolic counting series


def kac_polynomial(
    quiver: Quiver, rank: Sequence[int], alpha: int, guard: int = DEFAULT_GUARD
) -> LaurentPoly:
    """Indecomposable count A for ranks <= 1 everywhere, or rank 2 at one vertex;
    the chain sum of the toric case checks its work estimate against guard."""
    rank = tuple(rank)
    if all(r <= 1 for r in rank):
        support = [i for i, r in enumerate(rank) if r == 1]
        if not support:
            raise ValueError("rank must be nonzero")
        return toric_kac_chain(quiver.restrict_vertices(support), alpha, guard)
    if quiver.nvertices == 1 and rank == (2,):
        return closed_form_rank2(len(quiver.loops()), alpha).as_polynomial()
    raise ValueError("rank out of implemented range")


def _rank_vectors(bound: Sequence[int]) -> Iterator[tuple[int, ...]]:
    for r in product(*(range(b + 1) for b in bound)):
        if any(r):
            yield tuple(r)


def verify_exp_identity(
    quiver: Quiver,
    p: int,
    alpha: int,
    bound: Sequence[int],
    guard: int = DEFAULT_GUARD,
) -> dict:
    """Compare normalised zero-fiber counts with Exp of the A-series at q = p.

    The left side divides brute-force fiber counts by the group order and
    rescales by q^(alpha <r, r>); the right side is the plethystic
    exponential of sum_r A_r / (1 - q^-1) t^r evaluated at q = p.  Both are
    exact rationals, compared coefficientwise for every r <= bound.  The
    count prod(b_i + 1) - 1 of rank vectors, then every fiber count's work
    estimate, is checked before any A-polynomial is built.
    """
    bound = tuple(int(b) for b in bound)
    if len(bound) != quiver.nvertices:
        raise ValueError("bound length must match the vertex count")
    if any(b > 1 for b in bound) and not (quiver.nvertices == 1 and bound[0] <= 2):
        raise ValueError("rank out of implemented range")
    # multiplied out only while the partial count is within the guard
    count = 0 if any(b < 0 for b in bound) else 1
    for b in bound:
        if count - 1 > guard:
            break
        count *= b + 1
    check_work("rank vectors", count - 1, guard)
    for r in _rank_vectors(bound):
        _check_fiber_work(quiver, r, p, alpha, guard)
    series = TSeries.zero(quiver.nvertices, bound)
    for r in _rank_vectors(bound):
        a_poly = kac_polynomial(quiver, r, alpha, guard)
        series = series + TSeries.monomial(
            quiver.nvertices, bound, r, RatFunc(a_poly) / ONE_MINUS_QINV
        )
    rhs_series = pleth_exp(series)
    qp = Fraction(p)
    rows = []
    all_equal = True
    for r in _rank_vectors(bound):
        fiber = moment_fiber_count(quiver, r, p, alpha, guard=guard)
        gl = group_order_gl(r, alpha).evaluate(qp)
        lhs = Fraction(fiber) * qp ** (alpha * quiver.euler_form(r, r)) / gl
        rhs = rhs_series.coefficient(r).evaluate(qp)
        equal = lhs == rhs
        all_equal = all_equal and equal
        rows.append(
            {
                "rank": list(r),
                "fiber": fiber,
                "lhs": str(lhs),
                "rhs": str(rhs),
                "equal": equal,
            }
        )
    return {"prime": p, "alpha": alpha, "bound": list(bound), "rows": rows, "equal": all_equal}


def verify_generic_fiber(
    quiver: Quiver,
    lam: Sequence[int],
    p: int,
    alpha: int,
    guard: int = DEFAULT_GUARD,
) -> dict:
    """Check the generic-fiber count identity for the all-ones rank vector.

    Requires lam generic for the rank vector and p larger than
    sum |lam_i| r_i (the characteristic bound, enforced rather than assumed).
    """
    rank = (1,) * quiver.nvertices
    if not is_generic(lam, rank):
        raise ValueError("lambda not generic")
    if p <= sum(abs(x) * r for x, r in zip(lam, rank)):
        raise ValueError("characteristic bound violated")
    target = generic_target(quiver, rank, lam, p, alpha, guard)
    fiber = moment_fiber_count(quiver, rank, p, alpha, target=target, guard=guard)
    qp = Fraction(p)
    gl = group_order_gl(rank, alpha).evaluate(qp)
    lhs = Fraction(fiber) / gl
    a_poly = kac_polynomial(quiver, rank, alpha, guard)
    rhs = (
        qp ** (-alpha * quiver.euler_form(rank, rank))
        * a_poly.evaluate(qp)
        / ONE_MINUS_QINV.evaluate(qp)
    )
    return {
        "prime": p,
        "alpha": alpha,
        "lambda": list(lam),
        "fiber": fiber,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "equal": lhs == rhs,
    }


# ----------------------------------------------------------------------
# E-series bookkeeping


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _bell(n: int) -> int:
    """Number of set partitions of n items (Bell triangle)."""
    row = [1]
    for _ in range(n):
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


def e_series_check(
    quiver: Quiver, alpha: int, mode: str, order: int, guard: int = DEFAULT_GUARD
) -> dict:
    """Termwise comparison of graded-dimension generating series.

    One side expands P_X / P_G at infinity, with P_X the counting polynomial
    of the fiber assembled from the verified identities; the other side is
    built directly from shifted A-polynomials and classifying-space factors
    (one geometric series sum_{k>=1} z^-k per torus factor).  Equality is
    asserted for every exponent >= -order.  The zero-fiber sum runs over the
    Bell(n) set partitions of the n vertices, at most n chain sums each; the
    estimate Bell(n) * max(n, 1) must not exceed guard.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if mode not in ("zero-fiber", "generic-fiber"):
        raise ValueError(f"unknown mode {mode!r}")
    rank = (1,) * quiver.nvertices
    euler = quiver.euler_form(rank, rank)
    p_g = group_order_gl(rank, alpha)
    shift = -alpha * euler

    # one list of A-polynomials per summand: the blocks of a set partition
    if mode == "zero-fiber":
        n = quiver.nvertices
        guarded_power(2, max(n - 1, 0), "set partitions", guard)  # Bell(n) >= 2^(n-1)
        check_work("set partitions", _bell(n) * max(n, 1), guard)
        polys = [
            [toric_kac_chain(quiver.restrict_vertices(b), alpha, guard=guard) for b in part]
            for part in _set_partitions(list(range(n)))
        ]
    else:
        polys = [[toric_kac_chain(quiver, alpha, guard=guard)]]

    # counting polynomial of the fiber, from the summed identity
    total = RatFunc.zero()
    for blocks in polys:
        term = RatFunc.one()
        for a_poly in blocks:
            term = term * (RatFunc(a_poly) / ONE_MINUS_QINV)
        total = total + term
    p_x = (RatFunc(p_g) * RatFunc.q(shift) * total).as_polynomial()
    lhs = RatFunc(p_x, p_g).series_at_infinity(-order)

    # direct series build: each block contributes A(z) * z * sum_{k>=1} z^-k,
    # with every product truncated below the floor
    max_deg = max(
        (sum(b.max_exp() for b in blocks if not b.is_zero()) for blocks in polys),
        default=0,
    )
    floor = -order - max_deg - abs(shift) - quiver.nvertices - 2
    geom = LaurentPoly({e: 1 for e in range(0, floor, -1)})  # z * sum z^-k
    rhs = LaurentPoly.zero()
    for blocks in polys:
        term = LaurentPoly.one()
        for a_poly in blocks:
            term = LaurentPoly(
                {e: c for e, c in (term * a_poly * geom).items() if e >= floor}
            )
        rhs = rhs + term.shift(shift)

    exponents = sorted(set(lhs) | {e for e, _ in rhs.items()}, reverse=True)
    rows = []
    equal = True
    for e in exponents:
        if e < -order:
            continue
        le, re = lhs.get(e, Fraction(0)), rhs.coeff(e)
        if le != re:
            equal = False
        rows.append({"exponent": e, "lhs": str(le), "rhs": str(re), "equal": le == re})
    return {
        "mode": mode,
        "alpha": alpha,
        "order": order,
        "rows": rows,
        "equal": equal,
    }
