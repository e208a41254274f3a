"""Rank-one (toric) Kac polynomial counts in higher depth.

Three independent routes compute the number of absolutely indecomposable
locally free rank-one representations over F_q[t]/(t^alpha):

* ``toric_kac_chain``   -- the chain sum over nested arrow subsets
  E_1 <= ... <= E_alpha with connected top, weighted by
  (q-1)^b(E_alpha) * q^(sum_{k<alpha} b(E_k)), as subset zeta transforms on
  integers that pack one W-bit field per power of q, W = bit length of
  (alpha+1)^m for m arrows (a bound on every coefficient);
* ``toric_kac_trees``   -- the stratification by valued spanning trees,
  where the stratum of a valued tree T contributes the monomial q^(n_T);
* ``toric_orbit_count`` -- a brute-force orbit count over a small prime
  field, the ground-truth oracle.

The module also computes the depth->infinity limits of the toric count and
of the normalised moment-map fiber count, which are rational functions once
the quiver is 2-connected.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress, product
from math import comb
from typing import Sequence

from .laurent import ONE_MINUS_QINV, LaurentPoly, RatFunc
from .oring import DEFAULT_GUARD, GuardError, cached_ring, guarded_power
from .quiver import Quiver, ValuedTree, tree_path, vertex_roots


def _mask_betti_tables(quiver: Quiver) -> tuple[list[int], list[bool]]:
    """Betti number and spanning-connectivity for every arrow subset mask."""
    n, arrows = quiver.nvertices, quiver.arrows
    betti: list[int] = []
    connected: list[bool] = []
    for mask in range(1 << len(arrows)):
        chosen = [arrows[a] for a in range(len(arrows)) if mask >> a & 1]
        ncomp = len(set(vertex_roots(n, chosen)))
        betti.append(ncomp - n + len(chosen))
        connected.append(ncomp == 1)
    return betti, connected


def toric_kac_chain(
    quiver: Quiver, alpha: int, guard: int = DEFAULT_GUARD
) -> LaurentPoly:
    """Chain-sum formula for the depth-alpha toric count.

    The sum runs over nested subsets E_1 <= ... <= E_alpha of the arrow set
    whose top makes the quiver connected on all vertices.  Nested sums over
    subsets are evaluated as iterated subset (zeta) transforms; for a
    disconnected quiver no chain survives and the result is 0.

    Integers pack each layer: layer[E] holds the coefficient of q^e in bits
    [e*W, (e+1)*W).  Coefficients count chains below some E, at most
    sum_E alpha^|E| = (alpha+1)^m < 2^W in all, so no field carries into the
    next.  The work estimate 2^m * max(m, 1) * max(alpha-1, 1) must not
    exceed guard.
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    m = quiver.narrows
    work = (1 << m) * max(m, 1) * max(alpha - 1, 1)
    if work > guard:
        raise GuardError(f"chain sum estimate {work} > limit {guard}; raise --guard")
    betti, connected = _mask_betti_tables(quiver)
    nmasks = 1 << m
    width = ((alpha + 1) ** m).bit_length()
    # layer[E] = sum over chains E_1 <= ... <= E_{k-1} <= E of q^(sum b(E_j))
    layer = [1] * nmasks
    for _ in range(alpha - 1):
        layer = [c << b * width for c, b in zip(layer, betti)]
        for bit in range(m):
            step = 1 << bit
            for mask in range(nmasks):
                if mask & step:
                    layer[mask] += layer[mask ^ step]
    # group the connected tops by Betti number: one (q-1)^b product each
    groups: dict[int, int] = {}
    for mask in compress(range(nmasks), connected):
        groups[betti[mask]] = groups.get(betti[mask], 0) + layer[mask]
    field = (1 << width) - 1
    coeffs: dict[int, int] = {}
    for b, packed in groups.items():
        qm1 = [(-1) ** (b - j) * comb(b, j) for j in range(b + 1)]
        for e in range(packed.bit_length() // width + 1):
            c = packed >> (e * width) & field
            for j, binom in enumerate(qm1):
                coeffs[e + j] = coeffs.get(e + j, 0) + c * binom
    return LaurentPoly(coeffs)


def tree_stratum_census(
    quiver: Quiver, alpha: int
) -> list[tuple[ValuedTree, int]]:
    """Valued spanning trees with their stratum exponents n_T.

    Each valuation label ranges over [0, alpha-1].  A loop contributes alpha
    to n_T (its coordinate ranges over the whole ring inside a stratum); a
    non-loop arrow outside the tree contributes
    alpha - v_max(path) - [a > critical edge].
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if not quiver.is_connected():
        raise ValueError("toric indecomposables require connected quiver")
    nloops = len(quiver.loops())
    census: list[tuple[ValuedTree, int]] = []
    for tree in quiver.spanning_trees():
        pos = {a: i for i, a in enumerate(tree)}
        outside = [
            a
            for a in range(quiver.narrows)
            if a not in pos and not quiver.is_loop(a)
        ]
        paths = {a: tree_path(quiver, tree, a) for a in outside}
        for values in product(range(alpha), repeat=len(tree)):
            n = alpha * nloops
            for a, path in paths.items():
                vmax = max(values[pos[e]] for e in path)
                critical = min(e for e in path if values[pos[e]] == vmax)
                term = alpha - vmax - (1 if a > critical else 0)
                if term < 0:
                    raise AssertionError("negative stratum exponent")
                n += term
            census.append((ValuedTree(tree, values), n))
    return census


def census_polynomial(census: Sequence[tuple[ValuedTree, int]]) -> LaurentPoly:
    """Sum of q^(n_T) over the strata of a tree census."""
    return LaurentPoly(Counter(n for _, n in census))


def toric_kac_trees(quiver: Quiver, alpha: int) -> LaurentPoly:
    """Valued-spanning-tree formula: sum of q^(n_T) over all strata."""
    return census_polynomial(tree_stratum_census(quiver, alpha))


# ----------------------------------------------------------------------
# brute-force orbit oracle


def toric_orbit_count(
    quiver: Quiver, p: int, alpha: int, guard: int = DEFAULT_GUARD
) -> int:
    """Count vertex-torus orbits of indecomposable rank-one representations.

    Enumerates every arrow assignment over F_p[t]/(t^alpha), keeps those
    whose support connects all vertices, and counts orbits of the action
    x_a -> u_target * x_a * u_source^-1 by counting assignments that are the
    lexicographically minimal element of their own orbit.  The diagonal
    scalars act trivially (the ring is commutative), so u runs over the
    torus with u_0 = 1.  The work estimate p^(alpha m) points times
    ((p-1) p^(alpha-1))^(n-1) torus elements, plus the ring's p^(2 alpha)
    table entries, must not exceed guard.
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    m, n = quiver.narrows, quiver.nvertices
    k = max(n - 1, 0)
    # refuse before forming the powers when the largest one alone is past the guard
    guarded_power(p, max(alpha * m + (alpha - 1) * k, 2 * alpha), "orbit enumeration", guard)
    work = p ** (alpha * m) * ((p - 1) * p ** (alpha - 1)) ** k + p ** (2 * alpha)
    if work > guard:
        raise GuardError(f"orbit enumeration estimate {work} > limit {guard}; raise --guard")
    ring = cached_ring(p, alpha)
    mul, inv = ring.mul, ring.inv
    torus = [(1,) + u for u in product(ring.units, repeat=k)]
    arrow_ends = list(quiver.arrows)
    count = 0
    for x in product(range(ring.size), repeat=m):
        # the support (arrows with a nonzero code) must connect all vertices
        if len(set(vertex_roots(n, compress(arrow_ends, x)))) != 1:
            continue
        minimal = True
        for u in torus:
            y = tuple(
                mul[mul[u[t]][xa]][inv[u[s]]] for xa, (s, t) in zip(x, arrow_ends)
            )
            if y < x:
                minimal = False
                break
        if minimal:
            count += 1
    return count


# ----------------------------------------------------------------------
# depth -> infinity limits


def asymptotic_kac(quiver: Quiver, guard: int = DEFAULT_GUARD) -> RatFunc:
    """Limit of q^(-alpha b(Q)) times the depth-alpha toric count.

    Exists exactly when the quiver is 2-connected, and equals
    (1-q^-1)^b(Q) times the sum over strictly increasing chains of arrow
    subsets ending at the full arrow set of prod 1/(q^(b(Q)-b(E_j)) - 1).
    The work estimate 3^m (subset, superset) steps must not exceed guard;
    the limit is cached per quiver, whatever the guard.
    """
    if not quiver.is_two_connected():
        raise ValueError("limit does not converge")
    work = 3**quiver.narrows
    if work > guard:
        raise GuardError(f"asymptotic sum estimate {work} > limit {guard}; raise --guard")
    return _asymptotic_chain_sum(quiver)


@lru_cache(maxsize=None)
def _asymptotic_chain_sum(quiver: Quiver) -> RatFunc:
    m = quiver.narrows
    betti, _ = _mask_betti_tables(quiver)
    b = quiver.betti()
    full = (1 << m) - 1
    one = RatFunc.one()
    # weight[E] = sum over chains E < E' < ... < full of the product of
    # 1/(q^(b - b(E_j)) - 1) over the proper chain entries E_j
    weight: dict[int, RatFunc] = {full: one}
    total = one
    for mask in range(full - 1, -1, -1):
        upper = RatFunc.zero()
        # strict supersets of mask inside full
        rest = full & ~mask
        sub = rest
        while sub:
            upper = upper + weight[mask | sub]
            sub = (sub - 1) & rest
        factor = RatFunc(1, LaurentPoly({b - betti[mask]: 1, 0: -1}))
        weight[mask] = upper * factor
        total = total + weight[mask]
    return ONE_MINUS_QINV**b * total


def asymptotic_moment(quiver: Quiver, guard: int = DEFAULT_GUARD) -> RatFunc:
    """Limit of the normalised moment-map zero-fiber count.

    Related to the toric limit by a factor (1-q^-1)^(#vertices - 1).
    """
    return ONE_MINUS_QINV ** (quiver.nvertices - 1) * asymptotic_kac(quiver, guard)
