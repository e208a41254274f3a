"""Exact moment-map fiber counts over O = F_p[t]/(t^alpha) and the
counting identities they verify.

The moment map on the doubled quiver sends (x_a, y_a) to the vertexwise
commutator sums (sum_{t(a)=i} x_a y_a - sum_{s(a)=i} y_a x_a).  For fixed x
it is F_p-linear in y, so a fiber count solves one linear system mod p per
x instead of enumerating every pair (x, y); and the y-count of x is constant
on the orbits of two symmetries of mu, so x runs over one representative per
orbit, weighted by its size.  On an arrow with r_s = r_t = 1, y_a -> u y_a
(u a unit) takes x_a = u t^v to t^v; on a loop, [x_a + c Id, y_a] =
[x_a, y_a] for every c in O.  The work estimate still bounds all p^(alpha h)
points (h = sum of r_s r_t over the arrows):
p^(alpha max(h, 1)) * R * (C+1) * max(1, min(R, C)) + isqrt(p), with
R = alpha * sum r_i^2 equations, C = alpha h unknowns and isqrt(p) for the
primality test; h counts as at least 1 because the identity checks form
numbers of size p^alpha and beyond at q = p (group orders, powers of q),
whose cost the estimate must cover even without arrows.  The fiber counts
feed three symbolic checks:

* ``verify_exp_identity``   -- the normalised zero-fiber generating series
  equals the plethystic exponential of the indecomposable-count series;
* ``verify_generic_fiber``  -- the fiber over t^(alpha-1) times a generic
  parameter recovers the indecomposable count directly;
* ``e_series_check``        -- graded-dimension bookkeeping: the quotient of
  counting polynomials, expanded at infinity, matches the product formula
  with its shift and classifying-space factors; the sum over set partitions
  of the vertices runs as a subset DP (the exponential formula).
"""

from __future__ import annotations

from itertools import product
from math import isqrt, prod
from typing import Iterable, Iterator, Sequence

from . import laurent, plethysm, series, toric
from . import rank as ranks  # ``rank`` is a parameter name here
from .oring import DEFAULT_GUARD, _check_prime, check_work, group_order_gl, guarded_power
from .poly import LaurentPoly
from .quiver import Quiver


def _rank_vectors(bound: Sequence[int]) -> Iterator[tuple[int, ...]]:
    for r in product(*(range(b + 1) for b in bound)):
        if any(r):
            yield tuple(r)


def is_generic(lam: Sequence[int], rank: Sequence[int]) -> bool:
    """lam . rank = 0 and lam . r' != 0 for every 0 < r' < rank."""
    if len(lam) != len(rank):
        raise ValueError("length mismatch")
    rank = tuple(rank)
    if sum(a * b for a, b in zip(lam, rank)) != 0:
        return False
    return all(
        sum(a * b for a, b in zip(lam, sub)) != 0 for sub in _rank_vectors(rank) if sub != rank
    )


# ----------------------------------------------------------------------
# fiber counting


def _check_fiber_work(
    quiver: Quiver, rank: Sequence[int], p: int, alpha: int, guard: int, lam: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Validate a fiber count's inputs and check its work estimate (see the
    module docstring) before p is tested for primality; return the rank tuple."""
    for name, vec in (("lam", lam), ("rank", rank)):
        if vec is not None and len(vec) != quiver.nvertices:
            raise ValueError(
                f"{name} has {len(vec)} entries; expected {quiver.nvertices}, one per vertex"
            )
    rank = tuple(int(r) for r in rank)
    if any(r < 0 for r in rank):
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
    quiver: Quiver, rank: Sequence[int], p: int, alpha: int, lam: Sequence[int] | None = None,
    guard: int = DEFAULT_GUARD,
) -> int:
    """Exact number of points (x, y) on the doubled quiver with
    mu(x, y) = t^(alpha-1) lam_i Id at every vertex i; no lam means the zero
    fiber.

    For each x the y-count is 0 or p^(C - rank) of one linear system mod p,
    whose column for y_a[k][l] = t^d is mu(x, t^d e_kl): it adds t^d x_a[u][k]
    to entry (u, l) at t(a) and subtracts t^d x_a[l][v] from entry (k, v) at
    s(a), truncated at t^alpha.  x_a runs over one representative per orbit
    (see the module docstring): on a loop its last diagonal entry is 0, for
    p^alpha shifts; on a rank-one arrow it is t^v, for the
    p^(alpha-v-1) (p-1) elements of valuation v < alpha, or 0; elsewhere all
    of O.  Arrows with a zero-rank endpoint carry no coordinates; vertices of
    rank zero impose no condition.  The work estimate (see the module
    docstring) must not exceed guard.
    """
    rank = _check_fiber_work(quiver, rank, p, alpha, guard, lam)
    _check_prime(p)
    # one block of alpha rows (the coefficients of 1, t, ..., t^(alpha-1)) per
    # target entry (i, u, v); only a diagonal entry has a nonzero t^(alpha-1) term
    block: dict[tuple[int, int, int], int] = {}
    rhs: list[int] = []
    for i in range(quiver.nvertices):
        for u, v in product(range(rank[i]), repeat=2):
            block[i, u, v] = len(block)
            rhs += [0] * (alpha - 1)
            rhs.append(lam[i] % p if lam is not None and u == v else 0)
    # digit e of x_a[u][k] is x[(nx + u r_s + k) alpha + e], nx counting earlier
    # arrows; x_a runs over its (digits, orbit size) choices
    columns: list[list[tuple[int, int, int]]] = []
    choices: list[list[tuple[tuple[int, ...], int]]] = []
    nx = 0
    for s, t in quiver.arrows:
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
        zero, loop = (0,) * alpha, s == t and rs > 0
        if rs == rt == 1 and not loop:
            units = [(zero[:v] + (1,) + zero[v + 1 :], p ** (alpha - v - 1) * (p - 1)) for v in range(alpha)]
            choices.append([*units, (zero, 1)])
        else:  # a loop's last diagonal entry is 0; the other digits run free
            free = product(range(p), repeat=alpha * (rs * rt - loop))
            choices.append([(x + zero * loop, p ** (alpha * loop)) for x in free])
    count = 0
    for choice in product(*choices):
        x = [digit for digits, _ in choice for digit in digits]
        basis: dict[int, list[int]] = {}
        for entries in columns:
            col = [0] * len(rhs)
            for r, f, sign in entries:
                col[r] += sign * x[f]
            lead = _reduce(col, basis, p)
            if lead is not None:
                basis[lead] = col
        if _reduce(rhs[:], basis, p) is None:
            count += prod([size for _, size in choice]) * p ** (len(columns) - len(basis))
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
        return toric.toric_kac_chain(quiver.restrict_vertices(support), alpha, guard)
    if quiver.nvertices == 1 and rank == (2,):
        return ranks.closed_form_rank2(len(quiver.loops()), alpha).as_polynomial()
    raise ValueError("rank out of implemented range")


def verify_exp_identity(
    quiver: Quiver, primes: Sequence[int], alpha: int, bound: Sequence[int], guard: int = DEFAULT_GUARD
) -> list[dict]:
    """Compare normalised zero-fiber counts with Exp of the A-series at q = p
    for each p in primes; one report per prime, in order.

    The left side divides brute-force fiber counts by the group order and
    rescales by q^(alpha <r, r>); the right side is the plethystic
    exponential of sum_r A_r / (1 - q^-1) t^r evaluated at q = p.  Both are
    exact rationals, compared coefficientwise for every r <= bound.  A bound
    that selects no rank vector (all zero, or a negative entry) raises
    ``ValueError``.  The count box - 1 of rank vectors (box = prod(b_i + 1)),
    the Exp walk over box (box - 1) pairs of exponents, then every prime's
    fiber estimates are checked before the A-series and its Exp are built,
    once; every prime's primality before the first fiber count.
    """
    from fractions import Fraction

    bound = tuple(int(b) for b in bound)
    if len(bound) != quiver.nvertices:
        raise ValueError("bound length must match the vertex count")
    if any(b > 1 for b in bound) and not (quiver.nvertices == 1 and bound[0] <= 2):
        raise ValueError("rank out of implemented range")
    # multiplied out only while the partial count is within the guard
    box = 0 if any(b < 0 for b in bound) else 1
    for b in bound:
        if box - 1 > guard:
            break
        box *= b + 1
    if box <= 1:
        raise ValueError("bound selects no rank vector")
    check_work("rank vectors", box - 1, guard)
    check_work("Exp walk", box * (box - 1), guard)
    for p, r in product(primes, _rank_vectors(bound)):
        _check_fiber_work(quiver, r, p, alpha, guard)
    a_series = series.TSeries(bound, {
        r: laurent.RatFunc(kac_polynomial(quiver, r, alpha, guard)) / laurent.ONE_MINUS_QINV
        for r in _rank_vectors(bound)
    })
    rhs_series = plethysm.pleth_exp(a_series)
    for p in primes:
        _check_prime(p)
    reports = []
    for p in primes:
        qp = Fraction(p)
        rows = []
        for r in _rank_vectors(bound):
            fiber = moment_fiber_count(quiver, r, p, alpha, guard=guard)
            gl = group_order_gl(r, alpha).evaluate(qp)
            lhs = Fraction(fiber) * qp ** (alpha * quiver.euler_form(r, r)) / gl
            rhs = rhs_series.coefficient(r).evaluate(qp)
            rows.append({"rank": list(r), "fiber": fiber, "lhs": str(lhs), "rhs": str(rhs), "equal": lhs == rhs})
        equal = all(row["equal"] for row in rows)
        reports.append({"prime": p, "alpha": alpha, "bound": list(bound), "rows": rows, "equal": equal})
    return reports


def verify_generic_fiber(
    quiver: Quiver, lam: Sequence[int], primes: Sequence[int], alpha: int, guard: int = DEFAULT_GUARD
) -> list[dict]:
    """Check the generic-fiber count identity for the all-ones rank vector
    for each p in primes; one report per prime, in order.

    Requires lam generic for the rank vector and every p larger than
    sum |lam_i| r_i (the characteristic bound, enforced rather than assumed).
    The genericity test walks the prod(r_i + 1) = 2^n sub-vectors of the
    rank vector; that estimate is checked first, then each prime's bound,
    fiber estimate and primality.  A is built once, after the first count.
    """
    from fractions import Fraction

    rank = (1,) * quiver.nvertices
    check_work("generic test", guarded_power(2, len(rank), "generic test", guard), guard)
    if not is_generic(lam, rank):
        raise ValueError("lambda not generic")
    for p in primes:
        if p <= sum(abs(x) * r for x, r in zip(lam, rank)):
            raise ValueError("characteristic bound violated")
        _check_fiber_work(quiver, rank, p, alpha, guard, lam)
        _check_prime(p)
    reports = []
    for p in primes:
        fiber = moment_fiber_count(quiver, rank, p, alpha, lam=lam, guard=guard)
        if not reports:  # after the first count, as for a single prime
            a_poly = kac_polynomial(quiver, rank, alpha, guard)
        qp = Fraction(p)
        lhs = Fraction(fiber) / group_order_gl(rank, alpha).evaluate(qp)
        rhs = qp ** (-alpha * quiver.euler_form(rank, rank)) * a_poly.evaluate(qp) / (1 - 1 / qp)
        reports.append({"prime": p, "alpha": alpha, "lambda": list(lam), "fiber": fiber,
                        "lhs": str(lhs), "rhs": str(rhs), "equal": lhs == rhs})
    return reports


# ----------------------------------------------------------------------
# E-series bookkeeping


def _connected_blocks(quiver: Quiver, masks: Iterable[int]) -> dict[int, Quiver]:
    """The vertex masks B whose full subquiver Q|_B is connected, mapped to Q|_B.

    Connectivity is reachability from the lowest vertex of B over per-vertex
    adjacency bitmasks; a quiver is built only for the connected masks.  The
    empty mask is not connected.
    """
    adjacent = [0] * quiver.nvertices
    for s, t in quiver.arrows:
        adjacent[s] |= 1 << t
        adjacent[t] |= 1 << s
    blocks = {}
    for b in masks:
        reach = frontier = b & -b
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = adjacent[bit.bit_length() - 1] & b & ~reach
            reach |= new
            frontier |= new
        if b and reach == b:
            blocks[b] = quiver.restrict_vertices(v for v in range(quiver.nvertices) if b >> v & 1)
    return blocks


def e_series_check(
    quiver: Quiver, alpha: int, mode: str, order: int, guard: int = DEFAULT_GUARD
) -> dict:
    """Termwise comparison of graded-dimension generating series.

    One side expands P_X / P_G at infinity, with P_X the counting polynomial
    of the fiber assembled from the verified identities; the other side is
    built directly from shifted A-polynomials and classifying-space factors
    (one geometric series sum_{k>=1} z^-k per torus factor).  Equality is
    asserted for every exponent >= -order.

    The fiber sums prod_B A_B / (1 - q^-1) over the set partitions of the n
    vertices (zero fiber) or over the one block of all vertices (generic
    fiber), A_B the toric count of the full subquiver on B.  By the
    exponential formula that sum is (q-1)^-n F(V), where F(S) sums
    q A_B (q-1)^(|B|-1) F(S - B) over the blocks B in S holding min S, and
    F(empty) = 1.  The direct side runs the same recursion in the same walk
    over the pairs (S, B).  The truncation floor is known from the quiver:
    A_B != 0 exactly when Q|_B is connected, and then A_B has degree
    alpha b(Q|_B) with a positive leading coefficient; the Betti numbers of
    the blocks of a set partition sum to at most b(Q), with equality for the
    components of Q, so the largest degree is alpha b(Q) once any pair is
    walked (a disconnected generic fiber walks none).  Three estimates, each
    before the work it covers: the (3^n - 1)/2 pairs (S, B) of the subset
    walk, before its 2^n - 1 connectivity tests; the summed chain-sum
    estimates of the connected blocks; the walked pairs (those with
    A_B != 0) times L^2, L = |floor| the length of a truncated product,
    before any chain sum.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if mode not in ("zero-fiber", "generic-fiber"):
        raise ValueError(f"unknown mode {mode!r}")
    n = quiver.nvertices
    rank = (1,) * n
    shift = -alpha * quiver.euler_form(rank, rank)
    full = (1 << n) - 1
    if mode == "zero-fiber":
        check_work("subset walk", (guarded_power(3, n, "subset walk", guard) - 1) // 2, guard)
    targets = range(1, full + 1) if mode == "zero-fiber" else [full]
    blocks = _connected_blocks(quiver, targets)  # A_B = 0 exactly when Q|_B is disconnected
    check_work("chain sum", sum(toric._chain_sum_work(q, alpha) for q in blocks.values()), guard)
    # the pairs (S, B) of the walk below, S = B plus any vertices above min B:
    # 2^(#{v > min B} - |B| + 1) per block, 1 for the generic fiber's full block
    pairs = sum(1 << n - (b & -b).bit_length() + 1 - b.bit_count() for b in blocks)
    floor = -order - (alpha * quiver.betti() if pairs else 0) - abs(shift) - n - 2
    check_work("partition sum", pairs * floor * floor, guard)
    chains = {b: toric.toric_kac_chain(q, alpha, guard) for b, q in blocks.items()}

    # P_G = q^((alpha-1) n) (q-1)^n cancels the (q-1)^-n of the formula; on
    # the direct side z * sum_{k>=1} z^-k is common to the blocks holding min S
    qm1 = LaurentPoly({1: 1, 0: -1})
    lift = {b: a_poly.shift(1) * qm1 ** (bin(b).count("1") - 1) for b, a_poly in chains.items()}
    geom = LaurentPoly({e: 1 for e in range(0, floor, -1)})
    fsum, direct = {0: LaurentPoly.one()}, {0: LaurentPoly.one()}
    for s in targets:
        # the blocks B in S holding min S, A_B != 0; all of S for the generic fiber
        low = s & -s if mode == "zero-fiber" else s
        rest = sub = s ^ low
        fsum[s] = inner = LaurentPoly.zero()
        while True:
            if (b := sub | low) in chains:
                fsum[s] += lift[b] * fsum[s ^ b]
                inner += chains[b] * direct[s ^ b]
            if not sub:
                break
            sub = (sub - 1) & rest
        direct[s] = LaurentPoly({e: c for e, c in (geom * inner).items() if e >= floor})
    p_x = fsum[full].shift((alpha - 1) * n + shift)
    lhs = laurent.RatFunc(p_x, group_order_gl(rank, alpha)).series_at_infinity(-order)
    rhs = direct[full].shift(shift)
    rows = []
    for e in sorted(set(lhs) | {e for e, _ in rhs.items()}, reverse=True):
        if e >= -order:
            le, re = lhs.get(e, 0), rhs.coeff(e)
            rows.append({"exponent": e, "lhs": str(le), "rhs": str(re), "equal": le == re})
    equal = all(row["equal"] for row in rows)
    return {"mode": mode, "alpha": alpha, "order": order, "rows": rows, "equal": equal}
