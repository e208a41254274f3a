"""Test-only oracles: element arithmetic, contraction-deletion and catalogs.

Nothing in the library or the CLI needs these; the tests use them as
independent routes.  ``OElem`` is F_p[t]/(t^alpha) arithmetic on coefficient
tuples, checked against the library's integer-coded ring tables.
``assign_valued_tree`` runs the contraction-deletion algorithm of
Abdelgadir-Mellit-Rodriguez-Villegas on an explicit rank-one representation,
and its strata are checked against the library's valued-tree census;
``tree_stratum_census_oracle`` lists that census by direct path scans over
the spanning trees of ``spanning_trees_oracle``, which tests every
(n-1)-subset by ``restrict_arrows``, checked against the library's
union-find test.
``shelling_restrictions_oracle`` finds the restriction faces of a shelling
by facet-pair search, checked against the library's descent rule.
``toric_orbit_count_oracle`` counts torus orbits by lexicographically minimal
representatives over the ring tables, checked against the library's
Burnside count; ``moment_fiber_count_per_point_oracle`` solves one linear
system mod p for every point x of a moment-map fiber count, checked against
the library's sum over orbit representatives; ``e_series_partition_oracle``
builds the ``e-series`` report by summing over all set partitions, checked
against the library's subset DP.
``series_at_infinity_oracle`` expands a rational function at q = infinity
through the inverse series of its denominator, checked against the
library's long division.  ``quiver_catalog`` lists small quivers up to
isomorphism of the underlying multigraph for the exhaustive suites.
``kac_from_moments`` extracts the one-vertex rank-2/3 counts at a single
depth, checked against the library's one-pass ``rank_table``.
``series_exp_oracle`` and ``series_log_oracle`` sum the power series of exp and log through truncated series powers, checked
against the library's Euler-identity recurrence.  ``asymptotic_chain_sum_oracle``,
``hilbert_specialized_oracle``, ``certificate_total_oracle`` and
``rank_class_sums_oracle`` add one ``RatFunc`` at a time, each addition
normalised by a gcd, checked against the library's sums over one common
denominator; the Hilbert oracle also lists every chain of the order complex
(``chain_faces_oracle``).  The 2^m arrow masks have their own Betti table
(``_mask_betti_tables``, over ``quiver.subset_ranks``) and exponents
(``_specialized_exponents``).  ``chain_sum_mask_oracle``,
``asymptotic_chain_sum_mask_oracle`` and ``hilbert_multiset_oracle`` run the
chain sum, the depth limit and the Hilbert series over all 2^m arrow masks,
and ``certificate_terms_oracle`` reads the certificate's terms off the masks,
checked against the library's sums and exponents over parallel-arrow class
states; ``asymptotic_chain_sum_mask_oracle`` and ``hilbert_multiset_oracle``
add their terms as ``_CycloSum`` numerators, each lifted to the common
denominator of its sum, where the library evaluates every term at q = 2^W
over one fixed denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, compress, permutations, product, zip_longest
from typing import Iterable, Iterator, NamedTuple, Sequence

from kacdepth import (
    LaurentPoly, Quiver, RatFunc, TSeries, ValuedTree, group_order_gl, toric_kac_chain,
)
from kacdepth.laurent import ONE_MINUS_QINV
from kacdepth.moment import _check_fiber_work, _reduce
from kacdepth.oring import DEFAULT_GUARD, ORing, _check_prime, check_work, guarded_power
from kacdepth.quiver import QuiverFormatError, subset_ranks, tree_paths, vertex_roots
from kacdepth.rank import (
    _kac_from_totals, rank2_initial, rank2_transition, rank3_initial, rank3_transition,
)
from kacdepth.srcomplex import lex_shelling, order_complex

EdgeList = tuple[tuple[int, int], ...]


# ----------------------------------------------------------------------
# elements of F_p[t]/(t^alpha)


@dataclass(frozen=True)
class OElem:
    """Element of F_p[t]/(t^alpha): coeffs[k] is the coefficient of t^k."""

    p: int
    alpha: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.alpha < 1:
            raise ValueError("depth must be >= 1")
        if len(self.coeffs) != self.alpha:
            raise ValueError("coefficient tuple must have length alpha")
        object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))

    @classmethod
    def zero(cls, p: int, alpha: int) -> "OElem":
        return cls(p, alpha, (0,) * alpha)

    @classmethod
    def one(cls, p: int, alpha: int) -> "OElem":
        return cls(p, alpha, (1,) + (0,) * (alpha - 1))

    @classmethod
    def from_code(cls, p: int, alpha: int, code: int) -> "OElem":
        """The element whose base-p digits are the coefficients (the table code)."""
        coeffs = []
        for _ in range(alpha):
            code, digit = divmod(code, p)
            coeffs.append(digit)
        return cls(p, alpha, tuple(coeffs))

    def code(self) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.p + c
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        return self.coeffs[0] != 0

    def valuation(self) -> int:
        """Smallest k with nonzero t^k coefficient; alpha for the zero element."""
        return next((k for k, c in enumerate(self.coeffs) if c), self.alpha)

    def __add__(self, other: "OElem") -> "OElem":
        return OElem(self.p, self.alpha, tuple(map(int.__add__, self.coeffs, other.coeffs)))

    def __sub__(self, other: "OElem") -> "OElem":
        return OElem(self.p, self.alpha, tuple(map(int.__sub__, self.coeffs, other.coeffs)))

    def __mul__(self, other: "OElem") -> "OElem":
        out = [0] * self.alpha
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs[: self.alpha - i]):
                out[i + j] += a * b
        return OElem(self.p, self.alpha, tuple(out))

    def inverse(self) -> "OElem":
        """Multiplicative inverse; defined exactly for units."""
        if not self.is_unit():
            raise ValueError("non-unit")
        inv0 = pow(self.coeffs[0], -1, self.p)
        out = [inv0] + [0] * (self.alpha - 1)
        for k in range(1, self.alpha):
            acc = sum(self.coeffs[j] * out[k - j] for j in range(1, k + 1))
            out[k] = (-inv0 * acc) % self.p
        return OElem(self.p, self.alpha, tuple(out))

    def shift_down(self) -> "OElem":
        """Divide by t via t*O_alpha ~ O_{alpha-1}; requires valuation >= 1."""
        if self.alpha < 2:
            raise ValueError("depth 1 has no t to divide by")
        if self.coeffs[0] != 0:
            raise ValueError("element is a unit, not divisible by t")
        return OElem(self.p, self.alpha - 1, self.coeffs[1:])


# ----------------------------------------------------------------------
# graph operations


def contract_arrow(quiver: Quiver, a: int) -> tuple[Quiver, tuple[int, ...]]:
    """Contract a non-loop arrow; merge its endpoints.

    Returns the contracted quiver together with the vertex relabeling
    (old index -> new index).  The merged class sits at the smaller of the
    two old endpoint positions; the relative arrow order is preserved.
    """
    if not 0 <= a < quiver.narrows:
        raise QuiverFormatError("arrow index out of range")
    s, t = quiver.arrows[a]
    if s == t:
        raise ValueError("cannot contract loop")
    lo, hi = min(s, t), max(s, t)
    relabel = tuple(lo if v == hi else v - (v > hi) for v in range(quiver.nvertices))
    arrows = tuple(
        (relabel[x], relabel[y]) for i, (x, y) in enumerate(quiver.arrows) if i != a
    )
    return Quiver(quiver.nvertices - 1, arrows), relabel


def restrict_arrows(quiver: Quiver, arrow_subset: Iterable[int]) -> Quiver:
    """Subquiver with all vertices and only the given arrows, in arrow order."""
    keep = sorted(set(arrow_subset))
    if any(not 0 <= a < quiver.narrows for a in keep):
        raise QuiverFormatError("arrow subset out of range")
    return Quiver(quiver.nvertices, tuple(quiver.arrows[a] for a in keep))


def spanning_trees_oracle(quiver: Quiver) -> list[tuple[int, ...]]:
    """Spanning trees by restriction: each (n-1)-subset of non-loop arrows
    whose subquiver is connected, in ``combinations`` order."""
    nonloops = [a for a in range(quiver.narrows) if not quiver.is_loop(a)]
    return [
        subset for subset in combinations(nonloops, quiver.nvertices - 1)
        if restrict_arrows(quiver, subset).is_connected()
    ]


def tree_path_data(
    quiver: Quiver, tree: ValuedTree, a: int
) -> tuple[tuple[int, ...], int, int]:
    """Path arrows, their largest valuation, and the critical edge for a.

    The critical edge is the smallest-index path arrow achieving the largest
    valuation (the tie-break that decides the order of contraction).
    """
    values = dict(tree.items())
    path = tree_paths(quiver, tree.arrows)[a]
    vmax = max(values[e] for e in path)
    critical = min(e for e in path if values[e] == vmax)
    return path, vmax, critical


def tree_stratum_census_oracle(quiver: Quiver, alpha: int) -> list[tuple[ValuedTree, int]]:
    """The valued-tree census by direct scans, in the library's order.

    For every spanning tree (found by restriction) and valuation, each
    non-loop arrow outside the tree scans its path twice: once for the
    largest valuation, once for the smallest-index arrow achieving it (the
    critical edge).  Loops add alpha.
    """
    nloops = len(quiver.loops())
    census: list[tuple[ValuedTree, int]] = []
    for tree in spanning_trees_oracle(quiver):
        pos = {a: i for i, a in enumerate(tree)}
        paths = tree_paths(quiver, tree)
        for values in product(range(alpha), repeat=len(tree)):
            exponent = alpha * nloops
            for a, path in paths.items():
                vmax = max(values[pos[e]] for e in path)
                critical = min(e for e in path if values[pos[e]] == vmax)
                exponent += alpha - vmax - (1 if a > critical else 0)
            census.append((ValuedTree(tree, values), exponent))
    return census


# ----------------------------------------------------------------------
# contraction-deletion on an explicit representation


def assign_valued_tree(quiver: Quiver, x: Sequence[OElem]) -> ValuedTree:
    """Run the contraction-deletion algorithm on a rank-one representation.

    Step 1 contracts the largest non-loop arrow carrying a unit, step 2
    deletes the largest loop, step 3 divides every coordinate by t and drops
    the depth.  The result is the valued spanning tree indexing the stratum
    of x; tree labels are the valuations of the original coordinates.

    Requires the support {a : x_a != 0} to span and connect all vertices
    (the indecomposability criterion in rank one).
    """
    if len(x) != quiver.narrows:
        raise ValueError("one ring element per arrow required")
    support = [a for a in range(quiver.narrows) if not x[a].is_zero()]
    if not restrict_arrows(quiver, support).is_connected():
        raise ValueError("decomposable representation")

    arrows = dict(enumerate(quiver.arrows))
    values = dict(enumerate(x))
    depth_drop = 0
    tree: list[int] = []
    labels: list[int] = []
    while arrows:
        units = [
            a for a, (s, t) in arrows.items() if s != t and values[a].valuation() == 0
        ]
        if units:
            a0 = max(units)
            s, t = arrows.pop(a0)
            values.pop(a0)
            lo, hi = min(s, t), max(s, t)
            arrows = {
                a: (lo if u == hi else u, lo if v == hi else v)
                for a, (u, v) in arrows.items()
            }
            tree.append(a0)
            labels.append(x[a0].valuation())
            continue
        loops = [a for a, (s, t) in arrows.items() if s == t]
        if loops:
            a0 = max(loops)
            arrows.pop(a0)
            values.pop(a0)
            continue
        # step 3: every remaining coordinate has positive valuation
        values = {a: v.shift_down() for a, v in values.items()}
        depth_drop += 1
    assert depth_drop < max((e.alpha for e in x), default=1)
    pairs = sorted(zip(tree, labels))
    return ValuedTree(tuple(a for a, _ in pairs), tuple(v for _, v in pairs))


# ----------------------------------------------------------------------
# shelling by facet-pair search


def shelling_restrictions_oracle(
    facets: Sequence[frozenset[int]],
) -> tuple[frozenset[int], ...]:
    """Restriction faces of the facet order, or RuntimeError if it is no shelling.

    The shelling condition demands, for every i >= 2 and j < i, some k < i
    with |F_i & F_k| = dim+1 and F_i & F_j <= F_i & F_k.  The codimension-one
    intersections with earlier facets are the sets F_i minus one vertex, so
    the condition for j holds iff some achievable missing vertex avoids F_j;
    it fails exactly when the set of achievable missing vertices is contained
    in F_j.  The restriction face of F_i is that set of missing vertices.
    The search visits every pair of facets.
    """
    d = len(facets[0]) - 1
    restrictions: list[frozenset[int]] = [frozenset()]
    for i in range(1, len(facets)):
        fi = facets[i]
        missing = set()
        for k in range(i):
            inter = fi & facets[k]
            if len(inter) == d:
                (v,) = fi - inter
                missing.add(v)
        if d >= 1:
            # dimension-0 complexes pass by convention
            if not missing:
                raise RuntimeError("order is not a shelling")
            for j in range(i):
                if missing <= facets[j]:
                    raise RuntimeError("order is not a shelling")
        restrictions.append(frozenset(missing))
    return tuple(restrictions)


# ----------------------------------------------------------------------
# enumeration oracles: torus orbits, fiber points and set partitions


def toric_orbit_count_oracle(quiver: Quiver, p: int, alpha: int) -> int:
    """Torus orbits of assignments with connected spanning support, counted
    as the assignments that are lexicographically minimal in their orbit.

    Every assignment over F_p[t]/(t^alpha) is tried against every torus
    element with u_0 = 1, through the ring's mul and inv tables.
    """
    ring = ORing(p, alpha)
    mul, inv = ring.mul, ring.inv
    n = quiver.nvertices
    torus = [(1,) + u for u in product(ring.units, repeat=max(n - 1, 0))]
    arrow_ends = list(quiver.arrows)
    count = 0
    for x in product(range(ring.size), repeat=quiver.narrows):
        if len(set(vertex_roots(n, compress(arrow_ends, x)))) != 1:
            continue
        if all(
            tuple(mul[mul[u[t]][xa]][inv[u[s]]] for xa, (s, t) in zip(x, arrow_ends)) >= x
            for u in torus
        ):
            count += 1
    return count


def moment_fiber_count_per_point_oracle(
    quiver: Quiver,
    rank: Sequence[int],
    p: int,
    alpha: int,
    lam: Sequence[int] | None = None,
    guard: int = DEFAULT_GUARD,
) -> int:
    """Exact number of points (x, y) on the doubled quiver with
    mu(x, y) = t^(alpha-1) lam_i Id at every vertex i; no lam means the zero
    fiber.

    For each x the y-count is 0 or p^(C - rank) of one linear system mod p,
    whose column for y_a[k][l] = t^d is mu(x, t^d e_kl): it adds t^d x_a[u][k]
    to entry (u, l) at t(a) and subtracts t^d x_a[l][v] from entry (k, v) at
    s(a), truncated at t^alpha.  Arrows with a zero-rank endpoint carry no
    coordinates; vertices of rank zero impose no condition.  Every one of the
    p^(alpha h) points x is solved for here, one linear system each, so their
    count times the per-system cost R * (C+1) * max(1, min(R, C)) must not
    exceed guard either, besides the library's work estimate (see
    ``kacdepth.moment``), which counts orbit representatives.
    """
    rank = _check_fiber_work(quiver, rank, p, alpha, guard, lam)
    rows = alpha * sum(r * r for r in rank)
    cols = alpha * sum(rank[s] * rank[t] for s, t in quiver.arrows)
    points = guarded_power(p, cols, "per-point fiber oracle", guard)
    check_work("per-point fiber oracle", points * rows * (cols + 1) * max(1, min(rows, cols)), guard)
    _check_prime(p)
    verts = [i for i in range(quiver.nvertices) if rank[i] > 0]
    # one block of alpha rows (the coefficients of 1, t, ..., t^(alpha-1)) per
    # target entry (i, u, v); only a diagonal entry has a nonzero t^(alpha-1) term
    block: dict[tuple[int, int, int], int] = {}
    rhs: list[int] = []
    for i in verts:
        for u, v in product(range(rank[i]), repeat=2):
            block[i, u, v] = len(block)
            rhs += [0] * (alpha - 1)
            rhs.append(lam[i] % p if lam is not None and u == v else 0)
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


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def e_series_partition_oracle(quiver: Quiver, alpha: int, mode: str, order: int) -> dict:
    """The ``e_series_check`` report, summed over every set partition.

    The fiber's counting polynomial comes from a ``RatFunc`` sum of
    prod_B A_B / (1 - q^-1) over the partitions (zero fiber) or the one
    block of all vertices (generic fiber); the direct side multiplies each
    partition's truncated factors in turn, below the same floor.
    """
    rank = (1,) * quiver.nvertices
    p_g = group_order_gl(rank, alpha)
    shift = -alpha * quiver.euler_form(rank, rank)
    if mode == "zero-fiber":
        polys = [
            [toric_kac_chain(quiver.restrict_vertices(b), alpha) for b in part]
            for part in _set_partitions(list(range(quiver.nvertices)))
        ]
    else:
        polys = [[toric_kac_chain(quiver, alpha)]]
    total = RatFunc.zero()
    for blocks in polys:
        term = RatFunc.one()
        for a_poly in blocks:
            term = term * (RatFunc(a_poly) / ONE_MINUS_QINV)
        total = total + term
    p_x = (RatFunc(p_g) * RatFunc.q(shift) * total).as_polynomial()
    lhs = RatFunc(p_x, p_g).series_at_infinity(-order)
    max_deg = max(
        (sum(b.max_exp() for b in blocks if not b.is_zero()) for blocks in polys),
        default=0,
    )
    floor = -order - max_deg - abs(shift) - quiver.nvertices - 2
    geom = LaurentPoly({e: 1 for e in range(0, floor, -1)})
    rhs = LaurentPoly.zero()
    for blocks in polys:
        term = LaurentPoly.one()
        for a_poly in blocks:
            term = LaurentPoly({e: c for e, c in (term * a_poly * geom).items() if e >= floor})
        rhs = rhs + term.shift(shift)
    rows = []
    for e in sorted(set(lhs) | {e for e, _ in rhs.items()}, reverse=True):
        if e >= -order:
            le, re = lhs.get(e, Fraction(0)), rhs.coeff(e)
            rows.append({"exponent": e, "lhs": str(le), "rhs": str(re), "equal": le == re})
    return {
        "mode": mode,
        "alpha": alpha,
        "order": order,
        "rows": rows,
        "equal": all(row["equal"] for row in rows),
    }


# ----------------------------------------------------------------------
# small-quiver catalogs


def canonical_edges(nvertices: int, edges: EdgeList) -> EdgeList:
    """Lexicographically smallest sorted edge list over the vertex relabelings
    that keep the vertices grouped by (loop count, non-loop degree), the
    groups in sorted order.  Isomorphisms preserve both counts, so this is
    still a canonical form, found over far fewer than n! relabelings."""
    loops = [0] * nvertices
    degree = [0] * nvertices
    for s, t in edges:
        if s == t:
            loops[s] += 1
        else:
            degree[s] += 1
            degree[t] += 1
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(nvertices):
        groups.setdefault((loops[v], degree[v]), []).append(v)
    best = None
    for blocks in product(*(permutations(groups[key]) for key in sorted(groups))):
        perm = [0] * nvertices
        for new, old in enumerate(v for block in blocks for v in block):
            perm[old] = new
        key = tuple(sorted(tuple(sorted((perm[s], perm[t]))) for s, t in edges))
        if best is None or key < best:
            best = key
    return best


def quiver_catalog(
    max_vertices: int, max_arrows: int, connected: bool = True
) -> list[Quiver]:
    """All quivers with <= max_vertices vertices and <= max_arrows arrows,
    up to isomorphism of the underlying multigraph (loops allowed), each
    edge oriented from the smaller to the larger endpoint."""
    seen: set[tuple[int, EdgeList]] = set()
    out: list[Quiver] = []
    for nv in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(nv) for j in range(i, nv)]
        for ne in range(0, max_arrows + 1):
            for combo in combinations_with_replacement(slots, ne):
                quiver = Quiver(nv, tuple(combo))
                if connected and not quiver.is_connected():
                    continue
                key = (nv, canonical_edges(nv, tuple(combo)))
                if key not in seen:
                    seen.add(key)
                    out.append(quiver)
    return out


# ----------------------------------------------------------------------
# single-denominator presentations


def single_denominator_oracle(series: RatFunc) -> dict | None:
    """The library's single-denominator search by rational-function products.

    Multiplies ``series`` by prod(1 - q^-e) as rational functions for each
    candidate multiset, in the library's order, and keeps the first
    nonnegative integral numerator in q^-1.
    """
    for size in range(0, 5):
        for exps in combinations_with_replacement(range(1, 6), size):
            den = RatFunc.one()
            for e in exps:
                den = den * (RatFunc.one() - RatFunc.q(-e))
            cleared = series * den
            if not cleared.is_polynomial():
                continue
            num = cleared.as_polynomial()
            if num.is_zero() or num.max_exp() > 0:
                continue
            if num.is_nonnegative() and num.is_integral():
                return {
                    "numerator": str(num),
                    "denominator_exponents": list(exps),
                }
    return None


# ----------------------------------------------------------------------
# expansion at infinity


def series_at_infinity_oracle(r: RatFunc, min_exp: int) -> dict:
    """``RatFunc.series_at_infinity`` by an inverse series: 1/den is expanded
    as q^-d (1 + u)^-1 far enough to cover min_exp and convolved with the
    numerator."""
    if r.num.is_zero():
        return {}
    d = r.den.max_exp()
    den_lower = [(i - d, c) for i, c in r.den.items() if i != d]
    inv = {-d: 1}
    floor = min_exp - r.num.max_exp()
    for e in range(-d - 1, floor - 1, -1):
        s = 0
        for off, c in den_lower:
            t = inv.get(e - off)
            if t is not None:
                s -= c * t
        if s:
            inv[e] = s
    out: dict = {}
    for e1, c1 in r.num.items():
        for e2, c2 in inv.items():
            e = e1 + e2
            if e < min_exp:
                continue
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


# ----------------------------------------------------------------------
# one-vertex higher-rank counts at one depth


def rank_step_oracle(vec: tuple[RatFunc, ...], rows) -> tuple[RatFunc, ...]:
    """One depth step: each row sums its nonzero entries times ``vec``."""
    out = []
    for (j, m), *rest in rows:
        acc = m * vec[j]
        for j, m in rest:
            acc = acc + m * vec[j]
        out.append(acc)
    return tuple(out)


def rank_class_sums_oracle(
    initial: tuple[RatFunc, ...], matrix: tuple[tuple[RatFunc, ...], ...], alpha: int
) -> tuple[RatFunc, ...]:
    """The per-type sums at depth alpha, one ``RatFunc`` product per entry."""
    rows = [[(j, m) for j, m in enumerate(row) if not m.is_zero()] for row in matrix]
    vec = initial
    for _ in range(alpha - 1):
        vec = rank_step_oracle(vec, rows)
    return vec


def kac_from_moments(g: int, alpha: int, rmax: int) -> list[LaurentPoly]:
    """A_1..A_rmax at one depth, from the M-series by plethystic logarithm."""
    if rmax not in (2, 3):
        raise ValueError("rank out of implemented range")
    routes = [(rank2_initial, rank2_transition), (rank3_initial, rank3_transition)]
    totals = [RatFunc(LaurentPoly.q(alpha * g))]
    for initial, transition in routes[: rmax - 1]:
        sums = rank_class_sums_oracle(initial(g), transition(g), alpha)
        totals.append(sum(sums, RatFunc.zero()))
    return _kac_from_totals(totals)


# ----------------------------------------------------------------------
# sums over products of (q^c - 1), lifted to a common denominator term by term


def _lift(coeffs: list[int], have: tuple[int, ...], want: tuple[int, ...]) -> list[int]:
    """Dense coefficients (lowest first) times prod_c (q^c - 1)^(want_c - have_c)."""
    for c, (w, h) in enumerate(zip_longest(want, have, fillvalue=0), start=1):
        for _ in range(w - h):
            coeffs = [a - b for a, b in zip([0] * c + coeffs, coeffs + [0] * c)]
    return coeffs


def _add_dense(parts: list[tuple[int, list[int]]]) -> tuple[int, list[int]]:
    """The sum of (low, coefficients from q^low upward) numerators, in that form."""
    if len(parts) == 1:
        return parts[0]
    low = min((lo for lo, _ in parts), default=0)
    top = max((lo + len(c) for lo, c in parts), default=0)
    cols = [[0] * (lo - low) + c + [0] * (top - lo - len(c)) for lo, c in parts]
    return low, [sum(col) for col in zip(*cols)]


class _CycloSum(NamedTuple):
    """The exact value num / prod_c (q^c - 1)^(e_c), summed without gcds.

    ``coeffs`` holds the coefficients of num from q^low upward (low may be
    negative), and ``exps[c - 1]`` is e_c, with no
    trailing zeros.
    """

    low: int
    coeffs: list[int]
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
    groups: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    for low, coeffs, exps in terms:
        groups.setdefault(exps, []).append((low, coeffs))
    want = tuple(map(max, zip_longest(*groups, fillvalue=0)))
    parts = []
    for have, group in groups.items():
        low, coeffs = _add_dense(group)
        parts.append((low, _lift(coeffs, have, want)))
    return _CycloSum(*_add_dense(parts), want)


# ----------------------------------------------------------------------
# subset sums over arrow masks, which the library runs over class states


def _mask_betti_tables(quiver: Quiver) -> tuple[list[int], list[bool]]:
    """Betti number and spanning connectivity of every arrow subset mask."""
    ranks, connected = subset_ranks(quiver.nvertices, quiver.arrows)
    return [mask.bit_count() - r for mask, r in enumerate(ranks)], connected


def _specialized_exponents(quiver: Quiver) -> dict[int, int]:
    """Exponent c(E) = b(Q) - b(Q|_E) for every proper nonempty subset mask."""
    if not quiver.is_two_connected():
        raise ValueError("specialization not convergent")
    betti, _ = _mask_betti_tables(quiver)
    b = quiver.betti()
    full = (1 << quiver.narrows) - 1
    return {mask: b - betti[mask] for mask in range(1, full)}


def chain_sum_mask_oracle(quiver: Quiver, alpha: int) -> LaurentPoly:
    """The chain sum of ``toric_kac_chain`` by subset zeta transforms over all
    2^m arrow masks, on the same packed integers, one mask per arrow set."""
    m = quiver.narrows
    width = ((alpha + 1) ** m).bit_length()
    betti, connected = _mask_betti_tables(quiver)
    nmasks = 1 << m
    layer = [1] * nmasks
    for _ in range(alpha - 1):
        layer = [c << b * width for c, b in zip(layer, betti)]
        for bit in range(m):
            step = 1 << bit
            for mask in range(nmasks):
                if mask & step:
                    layer[mask] += layer[mask ^ step]
    groups: dict[int, int] = {}
    for mask in compress(range(nmasks), connected):
        groups[betti[mask]] = groups.get(betti[mask], 0) + layer[mask]
    field = (1 << width) - 1
    total = LaurentPoly.zero()
    for b, packed in groups.items():
        fields = {e: packed >> (e * width) & field for e in range(packed.bit_length() // width + 1)}
        total = total + LaurentPoly(fields) * LaurentPoly({1: 1, 0: -1}) ** b
    return total


def asymptotic_chain_sum_mask_oracle(quiver: Quiver) -> RatFunc:
    """The strict-chain sum of ``asymptotic_kac`` by the 3^m (mask, supermask)
    walk, over one common denominator."""
    m = quiver.narrows
    betti, _ = _mask_betti_tables(quiver)
    b = quiver.betti()
    full = (1 << m) - 1
    weight = {full: _CycloSum(0, [1])}
    for mask in range(full - 1, -1, -1):
        rest = full & ~mask
        supersets = []
        sub = rest
        while sub:
            supersets.append(weight[mask | sub])
            sub = (sub - 1) & rest
        weight[mask] = _cyclo_sum(supersets).divided(b - betti[mask])
    return _cyclo_sum(weight.values()).times(ONE_MINUS_QINV.num**b).ratfunc()


def hilbert_multiset_oracle(quiver: Quiver) -> RatFunc:
    """The specialized Hilbert series by a DP over arrow masks that counts
    the chains ending at each mask by exponent multiset, over one common
    denominator."""
    exponents = _specialized_exponents(quiver)
    full = (1 << quiver.narrows) - 1
    ending: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for mask in range(1, full + 1):
        below = {(): 1}  # the empty chain and the chains ending strictly below mask
        get = below.get
        sub = (mask - 1) & mask
        while sub:
            for key, n in ending[sub]:
                below[key] = get(key, 0) + n
            sub = (sub - 1) & mask
        if mask < full:
            # c never rises along a chain: each multiset stays a descending tuple
            c = (exponents[mask],)
            ending[mask] = [(key + c, n) for key, n in below.items()]
    return _cyclo_sum(_CycloSum.over(LaurentPoly.term(mult), key) for key, mult in below.items()).ratfunc()


# ----------------------------------------------------------------------
# depth limits and Hilbert series, one rational function at a time


def asymptotic_chain_sum_oracle(quiver: Quiver) -> RatFunc:
    """The strict-chain sum of ``asymptotic_kac`` by the 3^m superset walk."""
    m = quiver.narrows
    betti, _ = _mask_betti_tables(quiver)
    b = quiver.betti()
    full = (1 << m) - 1
    weight: dict[int, RatFunc] = {full: RatFunc.one()}
    total = RatFunc.one()
    for mask in range(full - 1, -1, -1):
        upper = RatFunc.zero()
        rest = full & ~mask
        sub = rest
        while sub:
            upper = upper + weight[mask | sub]
            sub = (sub - 1) & rest
        weight[mask] = upper * RatFunc(1, LaurentPoly({b - betti[mask]: 1, 0: -1}))
        total = total + weight[mask]
    return ONE_MINUS_QINV**b * total


def face_weight_oracle(exps: tuple[int, ...]) -> RatFunc:
    """Product of u / (1 - u) over u = q^-c for the exponents c of a face."""
    w = RatFunc.one()
    for c in exps:
        u = RatFunc.q(-c)
        w = w * (u / (RatFunc.one() - u))
    return w


def chain_faces_oracle(narrows: int) -> list[frozenset[int]]:
    """Every chain of proper nonempty arrow-subset masks, the empty chain included,
    listed by extending chains upward one popcount at a time."""
    by_count: dict[int, list[int]] = {}
    for mask in range(1, (1 << narrows) - 1):
        by_count.setdefault(bin(mask).count("1"), []).append(mask)
    chains: list[tuple[int, ...]] = [()]
    grow: list[tuple[int, ...]] = [()]
    while grow:
        nxt: list[tuple[int, ...]] = []
        for chain in grow:
            low = chain[-1] if chain else 0
            for c in range(bin(low).count("1") + 1, narrows):
                nxt.extend(chain + (m,) for m in by_count.get(c, ()) if low & m == low)
        chains.extend(nxt)
        grow = nxt
    return [frozenset(chain) for chain in chains]


def hilbert_specialized_oracle(quiver: Quiver) -> RatFunc:
    """The specialized Hilbert series as a sum of face weights over the listed
    chains, grouped by exponents."""
    exponents = _specialized_exponents(quiver)
    counts: dict[tuple[int, ...], int] = {}
    for face in chain_faces_oracle(quiver.narrows):
        key = tuple(sorted(exponents[m] for m in face))
        counts[key] = counts.get(key, 0) + 1
    total = RatFunc.zero()
    for key, mult in sorted(counts.items()):
        total = total + face_weight_oracle(key) * mult
    return total


def certificate_terms_oracle(quiver: Quiver) -> list[dict]:
    """The certificate's terms: the sorted mask exponents of each facet's
    restriction face and of the facet, in the lex order of the facets."""
    complex_ = order_complex(quiver)
    exponents = _specialized_exponents(quiver)
    return [
        {
            "restriction_exponents": sorted(exponents[m] for m in restriction),
            "facet_exponents": sorted(exponents[m] for m in facet),
        }
        for facet, restriction in zip(complex_.facets, lex_shelling(complex_))
    ]


def certificate_total_oracle(quiver: Quiver) -> RatFunc:
    """The certificate total: the facet numerators q^-(restriction sum),
    grouped by facet exponents, each group over prod(1 - q^-c)."""
    grouped: dict[tuple[int, ...], LaurentPoly] = {}
    for term in certificate_terms_oracle(quiver):
        fac_exps = tuple(term["facet_exponents"])
        num = LaurentPoly.q(-sum(term["restriction_exponents"]))
        grouped[fac_exps] = grouped.get(fac_exps, LaurentPoly.zero()) + num
    total = RatFunc.zero()
    for fac_exps, num in sorted(grouped.items()):
        den = RatFunc.one()
        for c in fac_exps:
            den = den * (RatFunc.one() - RatFunc.q(-c))
        total = total + RatFunc(num) / den
    return total


# ----------------------------------------------------------------------
# exp and log of truncated series by their power series


def series_exp_oracle(series: TSeries) -> TSeries:
    """sum_k L^k / k! for L = series with zero constant term."""
    if not series.constant_term().is_zero():
        raise ValueError("exp requires augmentation-ideal input")
    one = TSeries(series.bound, {(0,) * len(series.bound): 1})
    result, power = one, one
    for k in range(1, sum(series.bound) + 1):
        power = power * series
        result = result + power * Fraction(1, math.factorial(k))
    return result


def series_log_oracle(series: TSeries) -> TSeries:
    """sum_k (-1)^(k+1) (H - 1)^k / k for H = series with constant term 1."""
    if series.constant_term() != RatFunc.one():
        raise ValueError("log requires unit constant term")
    g = TSeries(series.bound, {r: c for r, c in series.items() if any(r)})
    result = TSeries(series.bound)
    power = TSeries(series.bound, {(0,) * len(series.bound): 1})
    for k in range(1, sum(series.bound) + 1):
        power = power * g
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result
