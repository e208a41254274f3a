"""Shared independent oracles and random generators for the test suite.

Everything here recomputes expected values by a route different from the
library code it checks: determinants instead of subset enumeration, naive
chain iteration instead of subset transforms, literal quantifier loops
instead of reformulated conditions, Burnside sums instead of recursions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

from kacdepth import LaurentPoly, Quiver, RatFunc, TSeries
from kacdepth.oring import ORing

from oracles import OElem, restrict_arrows, tree_path_data


# ----------------------------------------------------------------------
# quivers shared by the suites


THETA = Quiver(4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))
DOUBLED_K4 = Quiver(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)) * 2)


def kronecker(k: int, loops: int = 0) -> Quiver:
    return Quiver(2, ((0, 1),) * k + ((0, 0), (1, 1))[:loops])


# parallel arrows in either direction, loops, and classes interleaved in
# arrow order: the class states of the chain sum, the depth limit and the
# Hilbert series
MULTIGRAPHS = [
    kronecker(4, loops=2),
    Quiver(3, ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))),  # doubled triangle
    THETA,
    Quiver(1, ((0, 0),) * 3),
    Quiver(2, ((0, 1), (0, 0), (1, 0), (0, 0), (1, 1), (0, 1))),
    Quiver(3, ((0, 1), (1, 1), (1, 2), (0, 1), (1, 1), (2, 0), (1, 0))),
    Quiver(3, ((0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (2, 2))),
    Quiver(4, ((0, 1), (2, 3), (1, 0), (3, 2), (1, 2), (0, 3), (2, 1))),
    *(kronecker(k) for k in range(1, 13)),
    Quiver(4, tuple(DOUBLED_K4.arrows[i] for i in (3, 7, 0, 11, 5, 9, 1, 6, 10, 2, 8, 4))),
]


# ----------------------------------------------------------------------
# moment-map fiber oracles


def brute_fiber_count(quiver: Quiver, rank, p: int, alpha: int, target=None) -> int:
    """#mu^-1(target) by enumerating every pair (x, y) over the ring tables."""
    rank = tuple(rank)
    ring = ring_tables(p, alpha)
    if target is None:
        target = zero_target(rank)
    active = [
        a for a, (s, t) in enumerate(quiver.arrows) if rank[s] > 0 and rank[t] > 0
    ]
    verts = [i for i in range(quiver.nvertices) if rank[i] > 0]
    if all(r <= 1 for r in rank):
        return scalar_fiber_count(quiver, rank, ring, target, active, verts)
    return matrix_fiber_count(quiver, rank, ring, target, active, verts)


@lru_cache(maxsize=None)
def cached_ring(p: int, alpha: int) -> ORing:
    """The ring tables of F_p[t]/(t^alpha), built once per (p, alpha)."""
    return ORing(p, alpha)


@lru_cache(maxsize=None)
def ring_tables(p: int, alpha: int) -> SimpleNamespace:
    """The library's mul table with add and sub tables from OElem arithmetic."""
    elems = [OElem.from_code(p, alpha, c) for c in range(p**alpha)]
    return SimpleNamespace(
        size=len(elems),
        mul=cached_ring(p, alpha).mul,
        add=[[(a + b).code() for b in elems] for a in elems],
        sub=[[(a - b).code() for b in elems] for a in elems],
    )


def zero_target(rank):
    """The zero matrix of size r_i at every vertex, as integer codes."""
    return tuple(tuple((0,) * r for _ in range(r)) for r in rank)


def lam_target(rank, lam, p: int, alpha: int):
    """t^(alpha-1) lam_i Id of size r_i at every vertex i, as integer codes."""
    top = [(x % p) * p ** (alpha - 1) for x in lam]
    return tuple(
        tuple(tuple(top[i] if u == v else 0 for v in range(r)) for u in range(r))
        for i, r in enumerate(rank)
    )


def scalar_fiber_count(quiver, rank, ring, target, active, verts) -> int:
    """Rank <= 1 everywhere: the commutator of 1 x 1 matrices is a product."""
    add, sub, mul = ring.add, ring.sub, ring.mul
    tgt = tuple(target[i][0][0] for i in verts)
    slot = {i: k for k, i in enumerate(verts)}
    nonloop = [a for a in active if not quiver.is_loop(a)]
    # loops contribute nothing to the commutator in rank one
    free = len(active) - len(nonloop)
    ends = [(slot[quiver.arrows[a][0]], slot[quiver.arrows[a][1]]) for a in nonloop]
    count = 0
    for xy in product(range(ring.size), repeat=2 * len(nonloop)):
        acc = [0] * len(verts)
        for k, (s, t) in enumerate(ends):
            prod_code = mul[xy[2 * k]][xy[2 * k + 1]]
            acc[t] = add[acc[t]][prod_code]
            acc[s] = sub[acc[s]][prod_code]
        if tuple(acc) == tgt:
            count += 1
    return count * ring.size ** (2 * free)


def matrix_fiber_count(quiver, rank, ring, target, active, verts) -> int:
    """Any rank: matrix products of every pair (x, y) over the ring tables."""
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
                        acc = _mat_combine(ring.add, acc, _mat_mul(ring, xs[k], ys[k]))
                    if s == i:
                        acc = _mat_combine(ring.sub, acc, _mat_mul(ring, ys[k], xs[k]))
                if acc != target[i]:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def _all_matrices(ring, rows: int, cols: int):
    return [
        tuple(tuple(flat[r * cols + c] for c in range(cols)) for r in range(rows))
        for flat in product(range(ring.size), repeat=rows * cols)
    ]


def _mat_mul(ring, a, b):
    add, mul = ring.add, ring.mul
    out = []
    for r in range(len(a)):
        row = []
        for c in range(len(b[0])):
            acc = 0
            for k in range(len(b)):
                acc = add[acc][mul[a[r][k]][b[k][c]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_combine(table, a, b):
    return tuple(tuple(table[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


# ----------------------------------------------------------------------
# graph oracles


def matrix_tree_count(quiver: Quiver) -> int:
    """Spanning-tree count via the reduced-Laplacian determinant."""
    n = quiver.nvertices
    if n == 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for s, t in quiver.arrows:
        if s == t:
            continue
        lap[s][s] += 1
        lap[t][t] += 1
        lap[s][t] -= 1
        lap[t][s] -= 1
    minor = [row[1:] for row in lap[1:]]
    return int(_det_fraction(minor))


def dfs_components(nvertices: int, arrows) -> tuple[tuple[int, ...], ...]:
    """Connected components by depth-first search over adjacency lists."""
    adj: list[list[int]] = [[] for _ in range(nvertices)]
    for s, t in arrows:
        adj[s].append(t)
        adj[t].append(s)
    seen: set[int] = set()
    comps = []
    for start in range(nvertices):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def chain_sum_naive(quiver: Quiver, alpha: int) -> LaurentPoly:
    """Direct iteration over all nested arrow-subset chains of length alpha."""
    m = quiver.narrows
    total = LaurentPoly.zero()
    qm1 = LaurentPoly({1: 1, 0: -1})
    for entry in product(range(1, alpha + 2), repeat=m):
        # entry[a] = first index k with a in E_k (alpha+1 = never)
        masks = []
        for k in range(1, alpha + 1):
            masks.append([a for a in range(m) if entry[a] <= k])
        top = restrict_arrows(quiver, masks[-1])
        if not top.is_connected():
            continue
        weight = qm1 ** top.betti()
        exponent = sum(restrict_arrows(quiver, mk).betti() for mk in masks[:-1])
        total = total + weight * LaurentPoly.q(exponent)
    return total


def chain_sum_dict(quiver: Quiver, alpha: int) -> LaurentPoly:
    """Chain sum by subset zeta transforms on dicts, one (q-1)^b product per mask.

    Betti numbers and connectivity come from ``restrict_arrows`` per mask
    rather than the library's tables; exponent dicts replace packed integers.
    """
    m = quiver.narrows
    nmasks = 1 << m
    tops = [
        restrict_arrows(quiver, [a for a in range(m) if mask >> a & 1])
        for mask in range(nmasks)
    ]
    betti = [top.betti() for top in tops]
    # layer[E] = sum over chains E_1 <= ... <= E_{k-1} <= E of q^(sum b(E_j))
    layer: list[dict[int, int]] = [{0: 1} for _ in range(nmasks)]
    for _ in range(alpha - 1):
        weighted = [
            {e + betti[mask]: c for e, c in layer[mask].items()}
            for mask in range(nmasks)
        ]
        for bit in range(m):
            step = 1 << bit
            for mask in range(nmasks):
                if mask & step:
                    acc = weighted[mask]
                    for e, c in weighted[mask ^ step].items():
                        acc[e] = acc.get(e, 0) + c
        layer = weighted
    total = LaurentPoly.zero()
    qm1 = LaurentPoly({1: 1, 0: -1})
    for mask in range(nmasks):
        if tops[mask].is_connected():
            total = total + qm1 ** betti[mask] * LaurentPoly(layer[mask])
    return total


def fubini(n: int) -> int:
    """Ordered Bell number: ordered set partitions of an n-set."""
    if n == 0:
        return 1
    return sum(math.comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def chain_face_count(n: int) -> int:
    """Faces of the order complex of proper nonempty subsets of an n-set."""
    return 1 + sum(math.comb(n, m) * fubini(m) for m in range(1, n))


def literal_shelling_check(facets: list[frozenset]) -> bool:
    """The shelling condition with its quantifiers spelled out."""
    if not facets:
        return True
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        return False
    d = len(facets[0]) - 1
    if d == 0:
        return True
    for i in range(1, len(facets)):
        fi = facets[i]
        if not any(fi & facets[j] for j in range(i)):
            return False
        for j in range(i):
            if not any(
                len(fi & facets[k]) == d and fi & facets[j] <= fi & facets[k]
                for k in range(i)
            ):
                return False
    return True


# ----------------------------------------------------------------------
# Burnside oracles over prime fields


def _gl_matrices(r: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    out = []
    for flat in product(range(p), repeat=r * r):
        mat = tuple(flat[i * r : (i + 1) * r] for i in range(r))
        if _det_mod(mat, p) != 0:
            out.append(mat)
    return out


def _det_mod(mat, p: int) -> int:
    n = len(mat)
    m = [list(row) for row in mat]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = (det * m[col][col]) % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            f = (m[r][col] * inv) % p
            if f:
                for c in range(col, n):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p


def _mat_mul_mod(a, b, p: int):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def burnside_matrix_orbits(g: int, r: int, p: int) -> Fraction:
    """Orbits of simultaneous conjugation on g-tuples of r x r matrices.

    Burnside: average over the group of |commutant|^g, with the commutant
    size found by exhaustive scan.
    """
    group = _gl_matrices(r, p)
    all_mats = [
        tuple(flat[i * r : (i + 1) * r] for i in range(r))
        for flat in product(range(p), repeat=r * r)
    ]
    total = 0
    for gamma in group:
        commutant = sum(
            1
            for x in all_mats
            if _mat_mul_mod(gamma, x, p) == _mat_mul_mod(x, gamma, p)
        )
        total += commutant**g
    return Fraction(total, len(group))


def fit_polynomial(points: list[tuple[int, Fraction]]) -> LaurentPoly:
    """Lagrange interpolation through exact sample points."""
    result = LaurentPoly.zero()
    for i, (xi, yi) in enumerate(points):
        term = LaurentPoly.term(Fraction(yi))
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * LaurentPoly({1: Fraction(1, xi - xj), 0: Fraction(-xj, xi - xj)})
        result = result + term
    return result


# ----------------------------------------------------------------------
# rational-function oracles: sparse Euclid over Q on Fraction dicts


def _fraction_dict(poly: LaurentPoly) -> dict[int, Fraction]:
    return {e: Fraction(c) for e, c in poly.items()}


def _euclid_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    if not b:
        raise ZeroDivisionError("division by zero")
    quo, rem = {}, dict(a)
    db = max(b)
    while rem and max(rem) >= db:
        top = max(rem)
        c, e = rem[top] / b[db], top - db
        quo[e] = c
        for eb, cb in b.items():
            v = rem.get(e + eb, Fraction(0)) - c * cb
            if v:
                rem[e + eb] = v
            else:
                rem.pop(e + eb, None)
    return quo, rem


def _euclid_gcd(a: dict, b: dict) -> dict:
    while b:
        a, b = b, _euclid_divmod(a, b)[1]
    if not a:
        return {}
    lead = a[max(a)]
    return {e: c / lead for e, c in a.items()}


def euclid_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Quotient and remainder over Q by sparse Euclidean division."""
    quo, rem = _euclid_divmod(_fraction_dict(a), _fraction_dict(b))
    return LaurentPoly(quo), LaurentPoly(rem)


def euclid_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd over Q by the Euclidean algorithm; zero for two zeros."""
    return LaurentPoly(_euclid_gcd(_fraction_dict(a), _fraction_dict(b)))


def euclid_normal_form(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The canonical (numerator, denominator) of num/den, reduced by Euclid over Q."""
    n, d = _fraction_dict(num), _fraction_dict(den)
    if not n:
        return LaurentPoly.zero(), LaurentPoly.one()
    a, b = min(n), min(d)
    n = {e - a: c for e, c in n.items()}
    d = {e - b: c for e, c in d.items()}
    g = _euclid_gcd(n, d)
    n, d = _euclid_divmod(n, g)[0], _euclid_divmod(d, g)[0]
    lead = d[max(d)]
    return (
        LaurentPoly({e + a - b: c / lead for e, c in n.items()}),
        LaurentPoly({e: c / lead for e, c in d.items()}),
    )


# ----------------------------------------------------------------------
# stratum inequalities


def stratum_inequalities_hold(
    quiver: Quiver, tree: tuple[tuple[int, ...], tuple[int, ...]], x: list[OElem]
) -> bool:
    """Membership conditions of the valued-tree stratum (arrows, valuations), checked literally."""
    values = dict(zip(*tree))
    for a in range(quiver.narrows):
        val = x[a].valuation()
        if a in values:
            if val != values[a]:
                return False
        elif not quiver.is_loop(a):
            _, vmax, critical = tree_path_data(quiver, tree, a)
            if val < vmax + (1 if a > critical else 0):
                return False
    return True


# ----------------------------------------------------------------------
# random generators (seeded loops for the bulk property suites)


def random_laurent(rng: random.Random, max_terms: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-3, 4)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LaurentPoly(terms)


def random_nonzero_laurent(rng: random.Random, max_terms: int = 3) -> LaurentPoly:
    while True:
        poly = random_laurent(rng, max_terms)
        if not poly.is_zero():
            return poly


def random_ratfunc(rng: random.Random) -> RatFunc:
    return RatFunc(random_laurent(rng), random_nonzero_laurent(rng))


def random_series(
    rng: random.Random,
    bound: tuple[int, ...],
    max_terms: int = 3,
    zero_constant: bool = True,
) -> TSeries:
    """A sparse series; about half of its coefficients are random rational
    functions of q, the rest Laurent monomials."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        r = tuple(rng.randint(0, b) for b in bound)
        if zero_constant and not any(r):
            continue
        if rng.random() < 0.5:
            terms[r] = random_ratfunc(rng)
        else:
            terms[r] = RatFunc(LaurentPoly({rng.randint(-2, 3): rng.randint(-3, 3)}))
    return TSeries(bound, terms)


def random_quiver(
    rng: random.Random,
    max_vertices: int = 4,
    max_arrows: int = 5,
    connected: bool = False,
) -> Quiver:
    while True:
        nv = rng.randint(1, max_vertices)
        na = rng.randint(0, max_arrows)
        arrows = tuple(
            (rng.randrange(nv), rng.randrange(nv)) for _ in range(na)
        )
        quiver = Quiver(nv, arrows)
        if not connected or quiver.is_connected():
            return quiver


def random_connected_quiver(rng: random.Random, max_vertices=4, max_arrows=5) -> Quiver:
    return random_quiver(rng, max_vertices, max_arrows, connected=True)
