"""Rank-one (toric) Kac polynomial counts in higher depth.

Three independent routes compute the number of absolutely indecomposable
locally free rank-one representations over F_q[t]/(t^alpha):

* ``toric_kac_chain``   -- the chain sum over nested arrow subsets
  E_1 <= ... <= E_alpha with connected top, weighted by
  (q-1)^b(E_alpha) * q^(sum_{k<alpha} b(E_k)), as binomial transforms over
  parallel-arrow classes on integers that pack one W-bit field per power of
  q, W = bit length of (alpha+1)^m for m arrows (a bound on every
  coefficient);
* ``toric_kac_trees``   -- the stratification by valued spanning trees,
  where the stratum of a valued tree T contributes the monomial q^(n_T),
  summed per tree path from a table over the valuations of that path;
* ``toric_orbit_count`` -- the orbit count over F_p[t]/(t^alpha) itself,
  by Burnside's lemma over the vertex torus: fixed points need only the
  shared base-p digits of torus coordinates, never a product in the ring.

The subset sums of the chain sum, the depth limit and the orbit count run
on one class table (``quiver._class_table``).  Arrows with the same two
ends (in either direction) form a class, and so do the loops at one
vertex.  The Betti number of an arrow set E is |E| - r(supp E) and its
connectivity depends on supp E alone, so E matters only through its count
vector N, 0 <= N_i <= c_i: prod (c_i + 1) states in place of 2^m masks.
There are prod C(c_i, N_i) sets with counts N, and prod C(N'_i, N_i) sets
with counts N below a fixed set with counts N'.

The module also computes the depth->infinity limits of the toric count and
of the normalised moment-map fiber count, which are rational functions once
the quiver is 2-connected: a downward walk over the class states, on
integers over one fixed denominator (``laurent.CycloPacking``).  Only those
limits load ``laurent``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, compress, count, product, repeat, zip_longest
from math import comb, isqrt, prod
from operator import add, mul
from typing import Iterable, Sequence

from . import laurent
from .oring import DEFAULT_GUARD, _check_prime, check_work, guarded_power
from .poly import LaurentPoly
from .quiver import Quiver, _arrow_classes, _chain_walk_work, _class_table, tree_paths


def _binomial_transform(values: list[int], sizes: Iterable[int]) -> None:
    """In place, values[N] becomes the sum of prod C(N_i, N'_i) values[N'] over N' <= N.

    Class by class, with stride t the state distance of one count of the
    class: passes k = c-1, ..., 0 each add, in increasing order of the
    count n > k, the entries at count n - 1 (already passed) to those at
    count n.  Pass k turns the entries at counts >= k into their prefix sums
    from k on, and the c passes compose to Pascal's matrix: C(n, j) paths.
    For c = 1 that is the one subset-zeta step of a mask.  The entries at
    one count form a slice of step (c+1) t per offset below t, or of length t
    per block of (c+1) t states; whichever needs fewer slices is taken.
    """
    total, stride = len(values), 1
    for c in sizes:
        block = stride * (c + 1)
        for k in range(c - 1, -1, -1):
            for n in range(k + 1, c + 1):
                low = n * stride
                if stride <= total // block:
                    for lo in range(low, low + stride):
                        values[lo::block] = map(add, values[lo::block], values[lo - stride::block])
                else:
                    for lo in range(low, total, block):
                        hi = lo + stride
                        values[lo:hi] = map(add, values[lo:hi], values[lo - stride:hi - stride])
        stride = block


def _chain_sum_work(quiver: Quiver, alpha: int) -> int:
    """The work estimate of ``toric_kac_chain`` (see there)."""
    m = quiver.narrows
    states = prod(c + 1 for c in _arrow_classes(quiver).values())
    width = ((alpha + 1) ** m).bit_length()
    words = -(-width * (quiver.betti() * (alpha - 1) + 1) // 64)
    return states * max(m, 1) * max(alpha - 1, 1) * words


def toric_kac_chain(quiver: Quiver, alpha: int, guard: int = DEFAULT_GUARD) -> LaurentPoly:
    """Chain-sum formula for the depth-alpha toric count.

    The sum runs over nested subsets E_1 <= ... <= E_alpha of the arrow set
    whose top makes the quiver connected on all vertices.  Each nested sum
    over subsets is a binomial transform over the class states (see the
    module docstring).  The top sums the connected states, times their
    prod C(c_i, N_i) arrow sets, by Betti number b, then takes sum_b (q-1)^b
    top_b by Horner in (q-1); a disconnected quiver gives 0.

    Integers pack each layer: layer[N] holds the coefficient of q^e in bits
    [e*W, (e+1)*W).  Coefficients count chains below some arrow set E, at
    most sum_E alpha^|E| = (alpha+1)^m < 2^W in all, so no field carries
    into the next.  Each step adds up to W * b(Q) bits, so the top layer
    holds ceil(W * (b(Q) * (alpha-1) + 1) / 64) machine words per entry.
    The work estimate prod (c_i + 1) states times max(m, 1) passes (c_i per
    class, m in all) times max(alpha-1, 1) layers times those words must not
    exceed guard; for a quiver without parallel arrows it reads 2^m * ...
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    check_work("chain sum", _chain_sum_work(quiver, alpha), guard)
    width = ((alpha + 1) ** quiver.narrows).bit_length()
    table = _class_table(quiver)
    # layer[N] = sum over chains E_1 <= ... <= E_{k-1} <= E of q^(sum b(E_j)),
    # for any E with counts N
    layer = [1] * len(table.betti)
    for _ in range(alpha - 1):
        layer = [c << b * width for c, b in zip(layer, table.betti)]
        _binomial_transform(layer, table.classes.values())
    tops = [0] * (quiver.betti() + 1)
    for b, sets, packed in compress(zip(table.betti, table.sets, layer), table.connected):
        tops[b] += sets * packed
    field = (1 << width) - 1
    coeffs: list[int] = []
    for packed in reversed(tops):
        top = [packed >> shift & field for shift in range(0, packed.bit_length(), width)]
        coeffs = [t + qc - c for t, qc, c in zip_longest(top, [0, *coeffs], coeffs, fillvalue=0)]
    return LaurentPoly(dict(enumerate(coeffs)))


def tree_stratum_census(
    quiver: Quiver, alpha: int, guard: int = DEFAULT_GUARD
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Valued spanning trees with their stratum exponents n_T: rows (tree
    arrows, sorted; the valuation of each; n_T).

    Each valuation label ranges over [0, alpha-1], in ``product`` order per
    tree.  A loop adds alpha to n_T (its coordinate ranges over the whole
    ring inside a stratum); a non-loop arrow a outside the tree adds
    alpha - v_max(P) - [a > critical edge], P its tree path and the critical
    edge the first maximum on P in arrow order.  So the arrows A sharing P
    add a table over the alpha^|P| valuations of P that depends only on |A|
    and on the count of A above each arrow of P; each table is built once,
    spread over a tree's alpha^(n-1) valuations and added.  The work
    estimate C(k, n-1) * alpha^(n-1) * max(m, 1), for k non-loop arrows (a
    bound on the spanning trees) and n vertices, must not exceed guard.
    """
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if not quiver.is_connected():
        raise ValueError("toric indecomposables require connected quiver")
    nloops = len(quiver.loops())
    n, m = quiver.nvertices, quiver.narrows
    strata = guarded_power(alpha, n - 1, "tree census", guard)
    check_work("tree census", comb(m - nloops, n - 1) * strata * max(m, 1), guard)
    valuations = list(product(range(alpha), repeat=n - 1))
    tables: dict[tuple, list[int]] = {}  # (|A|, count of A above each arrow of P) -> table
    spreads: dict[tuple, list[int]] = {}  # positions of P in the tree -> table index per valuation
    trees, n_t = quiver.spanning_trees(), []  # n_t: the exponent of every stratum
    for tree in trees:
        groups: dict[tuple[int, ...], list[int]] = {}
        for a, path in tree_paths(quiver, tree).items():
            groups.setdefault(path, []).append(a)
        exponents = [alpha * nloops] * strata
        for path, group in groups.items():
            k, above = len(group), tuple([sum(a > e for a in group) for e in path])
            key = (k, above)
            if key not in tables:
                vals = product(range(alpha), repeat=len(path))
                table = tables[key] = [k * (alpha - max(v)) - above[v.index(max(v))] for v in vals]
                if min(table) < 0:
                    raise AssertionError("negative stratum exponent")
            positions = tuple([tree.index(e) for e in path])
            if positions not in spreads:
                # the table index reads the valuations at P as base-alpha digits
                weights = [(i, alpha**j) for j, i in enumerate(reversed(positions))]
                spreads[positions] = [sum([v[i] * w for i, w in weights]) for v in valuations]
            exponents = list(map(add, exponents, map(tables[key].__getitem__, spreads[positions])))
        n_t += exponents
    # a tree's strata are consecutive, in product order of their valuations;
    # the rows of one tree share its arrows, those of one valuation its tuple
    arrows = chain.from_iterable(map(repeat, trees, repeat(strata)))
    return list(zip(arrows, valuations * len(trees), n_t))


def census_polynomial(census: Sequence[tuple[tuple[int, ...], tuple[int, ...], int]]) -> LaurentPoly:
    """Sum of q^(n_T) over the strata of a tree census."""
    return LaurentPoly(Counter(n for _, _, n in census))


def toric_kac_trees(quiver: Quiver, alpha: int) -> LaurentPoly:
    """Valued-spanning-tree formula: sum of q^(n_T) over all strata."""
    return census_polynomial(tree_stratum_census(quiver, alpha))


# ----------------------------------------------------------------------
# orbit count by Burnside


def _check_orbit_work(quiver: Quiver, p: int, alpha: int, guard: int) -> int:
    """Validate an orbit count's inputs and check its work estimate (see
    ``toric_orbit_count``) before p is tested for primality; return |T|."""
    if alpha < 1:
        raise ValueError("depth must be >= 1")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    k = max(quiver.nvertices - 1, 0)
    torus = guarded_power(p - 1, k, "orbit count", guard)
    torus *= guarded_power(p, (alpha - 1) * k, "orbit count", guard)
    words = -(-alpha * quiver.narrows * p.bit_length() // 64) or 1
    states = prod(c + 1 for c in _arrow_classes(quiver).values())
    check_work("orbit count", torus * states * words * words + isqrt(p), guard)
    return torus


def toric_orbit_count(quiver: Quiver, p: int, alpha: int, guard: int = DEFAULT_GUARD) -> int:
    """Count vertex-torus orbits of indecomposable rank-one representations.

    The torus acts on arrow assignments over R = F_p[t]/(t^alpha) by
    x_a -> u_target * x_a * u_source^-1; the diagonal acts trivially, so u
    runs over T = (R^x)^(n-1) with u_0 = 1.  By Cauchy-Frobenius the orbits
    number |T|^-1 sum_u |Fix(u)|.  An assignment is fixed iff
    (u_t - u_s) x_a = 0 for every arrow, and that annihilator has p^v
    elements, v the number of leading base-p digits the codes of u_t and u_s
    share (alpha for a loop).  So with connected spanning support
    |Fix(u)| = sum over connected spanning arrow sets S of
    prod_{a in S} (p^(v_a) - 1), memoised on the vector (v_a).  v_a is the
    same on a class of parallel arrows, so the sum runs over the class
    states N: prod C(c_i, N_i) (p^(v_i) - 1)^(N_i) each.  The work estimate
    |T| * prod (c_i + 1) state products (2^m without parallel arrows) times
    the squared machine words of p^(alpha m), the largest count, plus
    isqrt(p) for the primality test, must not exceed guard.
    """
    torus = _check_orbit_work(quiver, p, alpha, guard)
    _check_prime(p)
    k = max(quiver.nvertices - 1, 0)
    table = _class_table(quiver)
    spanning = list(compress(zip(count(), table.sets), table.connected))

    def shared_digits(a: int, b: int) -> int:
        # codes lie in range(p^alpha): unequal ones share fewer than alpha digits
        return alpha if a == b else next(v for v in count() if (a - b) % p ** (v + 1))

    units = [c for c in range(p**alpha) if c % p] if k else []  # p^alpha <= 2 |T| for k >= 1
    fixed: dict[tuple[int, ...], int] = {}
    total = 0
    for u in product(units, repeat=k):
        u = (1, *u)
        vs = tuple(shared_digits(u[t], u[s]) for s, t in table.classes)
        if vs not in fixed:
            # weight[N] = prod of (p^(v_i) - 1)^(N_i) over the classes i
            weight = [1]
            for v, c in zip(vs, table.classes.values()):
                weight = [w * (p**v - 1) ** j for j in range(c + 1) for w in weight]
            fixed[vs] = sum(sets * weight[state] for state, sets in spanning)
        total += fixed[vs]
    return total // torus


# ----------------------------------------------------------------------
# depth -> infinity limits


def asymptotic_kac(quiver: Quiver, guard: int = DEFAULT_GUARD) -> laurent.RatFunc:
    """Limit of q^(-alpha b(Q)) times the depth-alpha toric count.

    Exists exactly when the quiver is 2-connected, and equals
    (1-q^-1)^b(Q) times the sum over strictly increasing chains of arrow
    subsets ending at the full arrow set of prod 1/(q^(b(Q)-b(E_j)) - 1).
    The work estimate ``quiver._chain_walk_work`` must not exceed guard, and
    comes before the O(m^2) 2-connectivity test.  The limit is cached per
    quiver, whatever the guard.
    """
    check_work("asymptotic sum", _chain_walk_work(quiver), guard)
    if not quiver.is_two_connected():
        raise ValueError("limit does not converge")
    return _asymptotic_chain_sum(quiver)


@lru_cache(maxsize=None)
def _asymptotic_chain_sum(quiver: Quiver) -> laurent.RatFunc:
    table = _class_table(quiver)
    m, b = quiver.narrows, quiver.betti()
    full = len(table.betti) - 1
    exponents = [b - x for x in table.betti]
    # the chains from any arrow set up to all arrows: fewer than (m + 1)^m
    pack = laurent.CycloPacking(zip(exponents[:full], table.size), (m + 1) ** m)
    # weight[N] = D times the sum over chains E < E' < ... < all arrows of the product
    # of 1/(q^c(E_j) - 1) over the proper entries E_j, for any E with counts N;
    # the E' > E with counts N' number prod C(c_i - N_i, N'_i - N_i)
    weight = [0] * full + [pack.den]
    for state in range(full - 1, -1, -1):
        ups, rest, stride = [(state, 1)], state, 1
        for c in table.classes.values():
            rest, n = divmod(rest, c + 1)
            ups = [(up + d * stride, k * comb(c - n, d)) for d in range(c - n + 1) for up, k in ups]
            stride *= c + 1
        weight[state] = pack.divide(sum([k * weight[up] for up, k in ups[1:]]), exponents[state])
    return pack.ratfunc(sum(map(mul, table.sets, weight)), laurent.ONE_MINUS_QINV.num**b)


def asymptotic_moment(quiver: Quiver, guard: int = DEFAULT_GUARD) -> laurent.RatFunc:
    """Limit of the normalised moment-map zero-fiber count.

    Related to the toric limit by a factor (1-q^-1)^(#vertices - 1).
    """
    return laurent.ONE_MINUS_QINV ** (quiver.nvertices - 1) * asymptotic_kac(quiver, guard)
