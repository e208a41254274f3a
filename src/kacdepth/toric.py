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
* ``toric_orbit_count`` -- the orbit count over F_p[t]/(t^alpha) itself,
  by Burnside's lemma over the vertex torus: fixed points need only the
  shared base-p digits of torus coordinates, never a product in the ring.

The module also computes the depth->infinity limits of the toric count and
of the normalised moment-map fiber count, which are rational functions once
the quiver is 2-connected.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress, count, product
from math import comb, isqrt
from operator import itemgetter
from typing import Sequence

from .laurent import ONE_MINUS_QINV, LaurentPoly, RatFunc, _CycloSum, _cyclo_sum
from .oring import DEFAULT_GUARD, _check_prime, check_work, guarded_power
from .quiver import Quiver, ValuedTree, tree_paths


def _mask_betti_tables(quiver: Quiver) -> tuple[list[int], list[bool]]:
    """Betti number and spanning-connectivity for every arrow subset mask.

    Masks run in increasing order, so rest = mask ^ lowbit comes first: the
    vertex partition of mask is that of rest with the ends of the lowest
    arrow merged.  The Betti number rises by one exactly when that arrow
    leaves the number of blocks unchanged.  Partitions are interned by their
    canonical labelling (each vertex labelled by the smallest vertex of its
    block), and the merge (partition, arrow) -> partition is memoised, so a
    mask costs one dict lookup; a memo miss relabels the block with the
    larger label of the arrow's two ends by the smaller one.
    """
    n, arrows = quiver.nvertices, quiver.arrows
    m = len(arrows)
    labellings: list[tuple[int, ...]] = [tuple(range(n))]
    ids = {labellings[0]: 0}
    ncomp = [n]
    merged: dict[int, int] = {}
    part = [0] * (1 << m)
    betti = [0] * (1 << m)
    connected = [n == 1] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        rest = mask ^ low
        a = low.bit_length() - 1
        key = part[rest] * m + a
        pid = merged.get(key)
        if pid is None:
            labelling = labellings[part[rest]]
            lo, hi = sorted(labelling[v] for v in arrows[a])
            labelling = tuple(lo if x == hi else x for x in labelling)
            if labelling not in ids:  # a new labelling: the ends were in two blocks
                ids[labelling] = len(labellings)
                labellings.append(labelling)
                ncomp.append(ncomp[part[rest]] - 1)
            pid = merged[key] = ids[labelling]
        part[mask] = pid
        betti[mask] = betti[rest] + (ncomp[pid] == ncomp[part[rest]])
        connected[mask] = ncomp[pid] == 1
    return betti, connected


def _chain_sum_work(quiver: Quiver, alpha: int) -> int:
    """The work estimate of ``toric_kac_chain`` (see there)."""
    m = quiver.narrows
    width = ((alpha + 1) ** m).bit_length()
    words = -(-width * (quiver.betti() * (alpha - 1) + 1) // 64)
    return (1 << m) * max(m, 1) * max(alpha - 1, 1) * words


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
    next.  Each step adds up to W * b(Q) bits, so the top layer holds
    ceil(W * (b(Q) * (alpha-1) + 1) / 64) machine words per entry.  The
    work estimate 2^m * max(m, 1) * max(alpha-1, 1) times those words must
    not exceed guard.
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    check_work("chain sum", _chain_sum_work(quiver, alpha), guard)
    m = quiver.narrows
    width = ((alpha + 1) ** m).bit_length()
    betti, connected = _mask_betti_tables(quiver)
    nmasks = 1 << m
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
    quiver: Quiver, alpha: int, guard: int = DEFAULT_GUARD
) -> list[tuple[ValuedTree, int]]:
    """Valued spanning trees with their stratum exponents n_T.

    Each valuation label ranges over [0, alpha-1].  A loop contributes alpha
    to n_T (its coordinate ranges over the whole ring inside a stratum); a
    non-loop arrow outside the tree contributes
    alpha - v_max(path) - [a > critical edge].  The work estimate
    C(k, n-1) * alpha^(n-1) * max(m, 1), for k non-loop arrows (a bound on
    the spanning trees) and n vertices, must not exceed guard.
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if not quiver.is_connected():
        raise ValueError("toric indecomposables require connected quiver")
    nloops = len(quiver.loops())
    n, m = quiver.nvertices, quiver.narrows
    strata = guarded_power(alpha, n - 1, "tree census", guard)
    check_work("tree census", comb(m - nloops, n - 1) * strata * max(m, 1), guard)
    census: list[tuple[ValuedTree, int]] = []
    for tree in quiver.spanning_trees():
        pos = {a: i for i, a in enumerate(tree)}
        # per outside non-loop arrow a: the valuations along its tree path in
        # arrow order, and [a > e] for each path arrow e; the first maximum
        # in arrow order is the critical edge
        outside = []
        for a, path in tree_paths(quiver, tree).items():
            index = [pos[e] for e in path]
            if len(index) > 1:
                get = itemgetter(*index)
            else:  # a one-arrow path still needs a tuple
                get = itemgetter(slice(index[0], index[0] + 1))
            outside.append((get, [int(a > e) for e in path]))
        for values in product(range(alpha), repeat=len(tree)):
            exponent = alpha * nloops
            for get, flags in outside:
                vals = get(values)
                vmax = max(vals)
                term = alpha - vmax - flags[vals.index(vmax)]
                if term < 0:
                    raise AssertionError("negative stratum exponent")
                exponent += term
            census.append((ValuedTree(tree, values), exponent))
    return census


def census_polynomial(census: Sequence[tuple[ValuedTree, int]]) -> LaurentPoly:
    """Sum of q^(n_T) over the strata of a tree census."""
    return LaurentPoly(Counter(n for _, n in census))


def toric_kac_trees(quiver: Quiver, alpha: int) -> LaurentPoly:
    """Valued-spanning-tree formula: sum of q^(n_T) over all strata."""
    return census_polynomial(tree_stratum_census(quiver, alpha))


# ----------------------------------------------------------------------
# orbit count by Burnside


def toric_orbit_count(
    quiver: Quiver, p: int, alpha: int, guard: int = DEFAULT_GUARD
) -> int:
    """Count vertex-torus orbits of indecomposable rank-one representations.

    The torus acts on arrow assignments over R = F_p[t]/(t^alpha) by
    x_a -> u_target * x_a * u_source^-1; the diagonal acts trivially, so u
    runs over T = (R^x)^(n-1) with u_0 = 1.  By Cauchy-Frobenius the orbits
    number |T|^-1 sum_u |Fix(u)|.  An assignment is fixed iff
    (u_t - u_s) x_a = 0 for every arrow, and that annihilator has p^v
    elements, v the number of leading base-p digits the codes of u_t and u_s
    share (alpha for a loop).  So with connected spanning support
    |Fix(u)| = sum over connected spanning arrow sets S of
    prod_{a in S} (p^(v_a) - 1), one product per arrow subset, memoised on
    the vector (v_a).  The work estimate |T| * 2^m products times the squared
    machine words of p^(alpha m), the largest count, plus isqrt(p) for the
    primality test, must not exceed guard.
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    m, n, arrows = quiver.narrows, quiver.nvertices, quiver.arrows
    k = max(n - 1, 0)
    torus = guarded_power(p - 1, k, "orbit count", guard)
    torus *= guarded_power(p, (alpha - 1) * k, "orbit count", guard)
    words = -(-alpha * m * p.bit_length() // 64) or 1
    check_work("orbit count", (torus << m) * words * words + isqrt(p), guard)
    _check_prime(p)
    spanning = list(compress(range(1 << m), _mask_betti_tables(quiver)[1]))

    def shared_digits(a: int, b: int) -> int:
        # codes lie in range(p^alpha): unequal ones share fewer than alpha digits
        return alpha if a == b else next(v for v in count() if (a - b) % p ** (v + 1))

    units = [c for c in range(p**alpha) if c % p] if k else []  # p^alpha <= 2 |T| for k >= 1
    fixed: dict[tuple[int, ...], int] = {}
    total = 0
    for u in product(units, repeat=k):
        u = (1, *u)
        vs = tuple(shared_digits(u[t], u[s]) for s, t in arrows)
        if vs not in fixed:
            # weight[mask] = prod of p^(v_a) - 1 over the arrows a in mask
            weight = [1] * (1 << m)
            for mask in range(1, 1 << m):
                a = (mask & -mask).bit_length() - 1
                weight[mask] = weight[mask & (mask - 1)] * (p ** vs[a] - 1)
            fixed[vs] = sum(weight[mask] for mask in spanning)
        total += fixed[vs]
    return total // torus


# ----------------------------------------------------------------------
# depth -> infinity limits


def asymptotic_kac(quiver: Quiver, guard: int = DEFAULT_GUARD) -> RatFunc:
    """Limit of q^(-alpha b(Q)) times the depth-alpha toric count.

    Exists exactly when the quiver is 2-connected, and equals
    (1-q^-1)^b(Q) times the sum over strictly increasing chains of arrow
    subsets ending at the full arrow set of prod 1/(q^(b(Q)-b(E_j)) - 1),
    summed over one common denominator.  The work estimate 3^m counts the
    (subset, superset) steps of that sum, each one numerator addition of
    2-4 us (Python 3.11, 2-core x86-64: Kronecker 12, 3^12 steps, takes
    about 1 s), and must not exceed guard; the limit is cached per quiver,
    whatever the guard.  The estimate is checked before the 2-connectivity
    test, which deletes each arrow in turn (O(m^2)).
    """
    check_work("asymptotic sum", 3**quiver.narrows, guard)
    if not quiver.is_two_connected():
        raise ValueError("limit does not converge")
    return _asymptotic_chain_sum(quiver)


@lru_cache(maxsize=None)
def _asymptotic_chain_sum(quiver: Quiver) -> RatFunc:
    m = quiver.narrows
    betti, _ = _mask_betti_tables(quiver)
    b = quiver.betti()
    full = (1 << m) - 1
    # weight[E] = sum over chains E < E' < ... < full of the product of
    # 1/(q^(b - b(E_j)) - 1) over the proper chain entries E_j
    weight = {full: _CycloSum(0, [1])}
    for mask in range(full - 1, -1, -1):
        # strict supersets of mask inside full
        rest = full & ~mask
        supersets = []
        sub = rest
        while sub:
            supersets.append(weight[mask | sub])
            sub = (sub - 1) & rest
        weight[mask] = _cyclo_sum(supersets).divided(b - betti[mask])
    return _cyclo_sum(weight.values()).times(ONE_MINUS_QINV.num**b).ratfunc()


def asymptotic_moment(quiver: Quiver, guard: int = DEFAULT_GUARD) -> RatFunc:
    """Limit of the normalised moment-map zero-fiber count.

    Related to the toric limit by a factor (1-q^-1)^(#vertices - 1).
    """
    return ONE_MINUS_QINV ** (quiver.nvertices - 1) * asymptotic_kac(quiver, guard)
