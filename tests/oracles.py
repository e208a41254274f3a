"""Test-only oracles: element arithmetic, contraction-deletion and catalogs.

Nothing in the library or the CLI needs these; the tests use them as
independent routes.  ``OElem`` is F_p[t]/(t^alpha) arithmetic on coefficient
tuples, checked against the library's integer-coded ring tables.
``assign_valued_tree`` runs the contraction-deletion algorithm of
Abdelgadir-Mellit-Rodriguez-Villegas on an explicit rank-one representation,
and its strata are checked against the library's valued-tree census.
``quiver_catalog`` lists small quivers up to isomorphism of the underlying
multigraph for the exhaustive suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Sequence

from kacdepth import Quiver, ValuedTree
from kacdepth.oring import _check_prime
from kacdepth.quiver import QuiverFormatError, tree_path

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


def tree_path_data(
    quiver: Quiver, tree: ValuedTree, a: int
) -> tuple[tuple[int, ...], int, int]:
    """Path arrows, their largest valuation, and the critical edge for a.

    The critical edge is the smallest-index path arrow achieving the largest
    valuation (the tie-break that decides the order of contraction).
    """
    values = dict(tree.items())
    path = tree_path(quiver, tree.arrows, a)
    vmax = max(values[e] for e in path)
    critical = min(e for e in path if values[e] == vmax)
    return path, vmax, critical


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
    if not quiver.restrict_arrows(support).is_connected():
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
# small-quiver catalogs


def canonical_edges(nvertices: int, edges: EdgeList) -> EdgeList:
    """Lexicographically smallest sorted edge list over all vertex relabelings."""
    return min(
        tuple(sorted(tuple(sorted((perm[s], perm[t]))) for s, t in edges))
        for perm in permutations(range(nvertices))
    )


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
