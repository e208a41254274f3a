"""Brute-force moment-map fiber counts over F_p[t]/(t^alpha) and the
counting identities they verify.

The moment map on the doubled quiver sends (x_a, y_a) to the vertexwise
commutator sums (sum_{t(a)=i} x_a y_a - sum_{s(a)=i} y_a x_a).  Exhaustive
fiber counts feed three symbolic checks:

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
from itertools import product
from typing import Iterator, Sequence

from .laurent import ONE_MINUS_QINV, LaurentPoly, RatFunc
from .oring import DEFAULT_GUARD, GuardError, cached_ring, group_order_gl
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
    quiver: Quiver, rank: Sequence[int], lam: Sequence[int], p: int, alpha: int
) -> tuple[Matrix, ...]:
    """Per-vertex matrix t^(alpha-1) * lam_i * Id over integer-coded entries.

    Codes are base-p digit strings, so lam_i t^(alpha-1) has code
    (lam_i mod p) * p^(alpha-1).
    """
    for name, vec in (("lam", lam), ("rank", rank)):
        if len(vec) != quiver.nvertices:
            raise ValueError(
                f"{name} has {len(vec)} entries; expected {quiver.nvertices}, one per vertex"
            )
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


def zero_target(quiver: Quiver, rank: Sequence[int]) -> tuple[Matrix, ...]:
    return tuple(
        tuple(tuple(0 for _ in range(rank[i])) for _ in range(rank[i]))
        for i in range(quiver.nvertices)
    )


# ----------------------------------------------------------------------
# fiber counting


def _all_matrices(ring, rows: int, cols: int) -> list[Matrix]:
    codes = range(ring.size)
    return [
        tuple(tuple(flat[r * cols + c] for c in range(cols)) for r in range(rows))
        for flat in product(codes, repeat=rows * cols)
    ]


def _mat_mul(ring, a: Matrix, b: Matrix) -> Matrix:
    add, mul = ring.add, ring.mul
    return tuple(
        tuple(
            _sum_codes(add, [mul[a[r][k]][b[k][c]] for k in range(len(b))])
            for c in range(len(b[0]))
        )
        for r in range(len(a))
    )


def _sum_codes(add, codes: list[int]) -> int:
    acc = 0
    for c in codes:
        acc = add[acc][c]
    return acc


def _mat_sub(ring, a: Matrix, b: Matrix) -> Matrix:
    sub = ring.sub
    return tuple(
        tuple(sub[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def _mat_add(ring, a: Matrix, b: Matrix) -> Matrix:
    add = ring.add
    return tuple(
        tuple(add[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def moment_fiber_count(
    quiver: Quiver,
    rank: Sequence[int],
    p: int,
    alpha: int,
    target: tuple[Matrix, ...] | None = None,
    guard: int = DEFAULT_GUARD,
) -> int:
    """Exact number of points (x, y) on the doubled quiver with mu(x, y) = target.

    Arrows with a zero-rank endpoint carry no coordinates; vertices of rank
    zero impose no condition.  The work estimate p^(alpha * coords) points
    plus the ring's p^(2 alpha)-entry tables must not exceed guard.
    """
    rank = tuple(int(r) for r in rank)
    if len(rank) != quiver.nvertices or any(r < 0 for r in rank):
        raise ValueError("bad rank vector")
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    active = [
        a
        for a, (s, t) in enumerate(quiver.arrows)
        if rank[s] > 0 and rank[t] > 0
    ]
    coords = sum(2 * rank[quiver.arrows[a][0]] * rank[quiver.arrows[a][1]] for a in active)
    work = p ** (alpha * coords) + p ** (2 * alpha)
    if work > guard:
        raise GuardError(
            f"fiber enumeration estimate {work} > limit {guard}; raise --guard"
        )
    ring = cached_ring(p, alpha)
    if target is None:
        target = zero_target(quiver, rank)
    verts = [i for i in range(quiver.nvertices) if rank[i] > 0]
    for i in range(quiver.nvertices):
        if rank[i] == 0:
            continue
        if len(target[i]) != rank[i] or any(len(row) != rank[i] for row in target[i]):
            raise ValueError("target shape mismatch")
    if all(rank[i] <= 1 for i in range(quiver.nvertices)):
        return _scalar_fiber_count(quiver, rank, ring, target, active, verts)
    return _matrix_fiber_count(quiver, rank, ring, target, active, verts)


def _scalar_fiber_count(quiver, rank, ring, target, active, verts) -> int:
    add, sub, mul = ring.add, ring.sub, ring.mul
    tgt = tuple(target[i][0][0] for i in verts)
    slot = {i: k for k, i in enumerate(verts)}
    nonloop = [a for a in active if not quiver.is_loop(a)]
    # loops contribute nothing to the commutator in rank one
    free = len(active) - len(nonloop)
    ends = [(slot[quiver.arrows[a][0]], slot[quiver.arrows[a][1]]) for a in nonloop]
    count = 0
    codes = range(ring.size)
    m = len(nonloop)
    for xy in product(codes, repeat=2 * m):
        acc = [0] * len(verts)
        for k, (s, t) in enumerate(ends):
            prod_code = mul[xy[2 * k]][xy[2 * k + 1]]
            acc[t] = add[acc[t]][prod_code]
            acc[s] = sub[acc[s]][prod_code]
        if tuple(acc) == tgt:
            count += 1
    return count * ring.size ** (2 * free)


def _matrix_fiber_count(quiver, rank, ring, target, active, verts) -> int:
    x_spaces = [
        _all_matrices(ring, rank[quiver.arrows[a][1]], rank[quiver.arrows[a][0]])
        for a in active
    ]
    y_spaces = [
        _all_matrices(ring, rank[quiver.arrows[a][0]], rank[quiver.arrows[a][1]])
        for a in active
    ]
    count = 0
    for xs in product(*x_spaces):
        for ys in product(*y_spaces):
            ok = True
            for i in verts:
                n = rank[i]
                acc = tuple(tuple(0 for _ in range(n)) for _ in range(n))
                for k, a in enumerate(active):
                    s, t = quiver.arrows[a]
                    if t == i:
                        acc = _mat_add(ring, acc, _mat_mul(ring, xs[k], ys[k]))
                    if s == i:
                        acc = _mat_sub(ring, acc, _mat_mul(ring, ys[k], xs[k]))
                if acc != target[i]:
                    ok = False
                    break
            if ok:
                count += 1
    return count


# ----------------------------------------------------------------------
# symbolic counting series


def kac_polynomial(quiver: Quiver, rank: Sequence[int], alpha: int) -> LaurentPoly:
    """Indecomposable count A for ranks <= 1 everywhere, or rank 2 at one vertex."""
    rank = tuple(rank)
    if all(r <= 1 for r in rank):
        support = [i for i, r in enumerate(rank) if r == 1]
        if not support:
            raise ValueError("rank must be nonzero")
        return toric_kac_chain(quiver.restrict_vertices(support), alpha)
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
    exact rationals, compared coefficientwise for every r <= bound.
    """
    bound = tuple(int(b) for b in bound)
    if len(bound) != quiver.nvertices:
        raise ValueError("bound length must match the vertex count")
    if any(b > 1 for b in bound) and not (quiver.nvertices == 1 and bound[0] <= 2):
        raise ValueError("rank out of implemented range")
    series = TSeries.zero(quiver.nvertices, bound)
    for r in _rank_vectors(bound):
        a_poly = kac_polynomial(quiver, r, alpha)
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
    target = generic_target(quiver, rank, lam, p, alpha)
    fiber = moment_fiber_count(quiver, rank, p, alpha, target=target, guard=guard)
    qp = Fraction(p)
    gl = group_order_gl(rank, alpha).evaluate(qp)
    lhs = Fraction(fiber) / gl
    a_poly = kac_polynomial(quiver, rank, alpha)
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


def e_series_check(quiver: Quiver, alpha: int, mode: str, order: int) -> dict:
    """Termwise comparison of graded-dimension generating series.

    One side expands P_X / P_G at infinity, with P_X the counting polynomial
    of the fiber assembled from the verified identities; the other side is
    built directly from shifted A-polynomials and classifying-space factors
    (one geometric series sum_{k>=1} z^-k per torus factor).  Equality is
    asserted for every exponent >= -order.
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
        polys = [
            [toric_kac_chain(quiver.restrict_vertices(block), alpha) for block in part]
            for part in _set_partitions(list(range(quiver.nvertices)))
        ]
    else:
        polys = [[toric_kac_chain(quiver, alpha)]]

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
