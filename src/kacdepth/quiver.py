"""Quivers as ordered directed multigraphs, with the graph operations used by
the counting machinery: vertex restriction, deletion, Betti numbers, connectivity
(one union-find, ``vertex_roots``), the rank and connectivity of every edge
subset at once (``subset_ranks``), spanning trees and tree paths, and the
table over parallel-arrow class states (``_class_table``, the one owner of
their layout and of the step to the states above a state) on which the
subset sums of ``toric`` and the Hilbert series of ``srcomplex`` run.

The arrow order is the list order; restriction and deletion preserve it.
Loops and parallel arrows are allowed.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb, prod
from typing import Iterable, NamedTuple, Sequence


class QuiverFormatError(ValueError):
    """Raised for malformed quiver descriptions (bad JSON, bad indices)."""


def vertex_roots(nvertices: int, arrows: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over the vertices: the component root of every vertex.

    Two vertices get the same root exactly when the arrows, taken
    undirected, connect them; the number of distinct roots is the number of
    connected components.
    """
    parent = list(range(nvertices))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s, t in arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    return [find(v) for v in range(nvertices)]


def subset_ranks(nvertices: int, edges: Sequence[tuple[int, int]]) -> tuple[list[int], list[bool]]:
    """Graphic rank and spanning connectivity of every subset mask of edges.

    The rank of a subset is nvertices minus its number of components, so
    its Betti number is its size minus its rank.  Masks run in increasing
    order, so rest = mask ^ lowbit comes first.  A vertex partition is a
    string of one label per vertex, equal exactly within a block: that of mask
    is that of rest with the label of the lowest edge's head replaced by that
    of its tail, and the rank rises by one exactly when the two labels differ.
    """
    labellings, ranks = ["".join(map(chr, range(nvertices)))], [0]
    for mask in range(1, 1 << len(edges)):
        low = mask & -mask
        labelling = labellings[mask ^ low]
        s, t = edges[low.bit_length() - 1]
        tail, head = labelling[s], labelling[t]
        labellings.append(labelling.replace(head, tail))
        ranks.append(ranks[mask ^ low] + (tail != head))
    return ranks, [r == nvertices - 1 for r in ranks]


class Quiver:
    """A frozen value: equal only to a ``Quiver`` with the same fields, hashed as their tuple."""

    __slots__ = ("nvertices", "arrows")
    nvertices: int
    arrows: tuple[tuple[int, int], ...]

    def __init__(self, nvertices: int, arrows: Iterable[tuple[int, int]]) -> None:
        if nvertices < 0:
            raise QuiverFormatError("vertex count must be nonnegative")
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (0 <= s < nvertices and 0 <= t < nvertices):
                raise QuiverFormatError(f"arrow ({s},{t}) out of range")
        object.__setattr__(self, "nvertices", nvertices)
        object.__setattr__(self, "arrows", arrows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nvertices == other.nvertices and self.arrows == other.arrows

    def __hash__(self) -> int:
        return hash((self.nvertices, self.arrows))

    def __repr__(self) -> str:
        return f"Quiver(nvertices={self.nvertices!r}, arrows={self.arrows!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assignment would refuse
        return self.__class__, (self.nvertices, self.arrows)

    # ------------------------------------------------------------------

    @property
    def narrows(self) -> int:
        return len(self.arrows)

    def is_loop(self, a: int) -> bool:
        s, t = self.arrows[a]
        return s == t

    def loops(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.narrows) if self.is_loop(a))

    # ------------------------------------------------------------------
    # connectivity and Betti number

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the underlying graph, each sorted."""
        groups: dict[int, list[int]] = {}
        for v, root in enumerate(vertex_roots(self.nvertices, self.arrows)):
            groups.setdefault(root, []).append(v)
        return tuple(tuple(g) for g in sorted(groups.values()))

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def betti(self) -> int:
        """Independent cycle count C - V + E of the underlying graph."""
        return len(self.components()) - self.nvertices + self.narrows

    def is_two_connected(self) -> bool:
        """Connected with at least one arrow and no bridges."""
        if self.narrows == 0 or not self.is_connected():
            return False
        return all(self.is_loop(a) or self.delete_arrow(a).is_connected() for a in range(self.narrows))

    # ------------------------------------------------------------------
    # Euler form

    def euler_form(self, d: Sequence[int], e: Sequence[int]) -> int:
        """<d, e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j."""
        if len(d) != self.nvertices or len(e) != self.nvertices:
            raise ValueError("dimension vector length mismatch")
        total = sum(di * ei for di, ei in zip(d, e))
        for s, t in self.arrows:
            total -= d[s] * e[t]
        return total

    # ------------------------------------------------------------------
    # restriction / deletion

    def restrict_vertices(self, vertices: Iterable[int]) -> "Quiver":
        """Full subquiver on the given vertices (renumbered in sorted order)."""
        keep = sorted(set(vertices))
        if any(not 0 <= v < self.nvertices for v in keep):
            raise QuiverFormatError("vertex subset out of range")
        index = {v: i for i, v in enumerate(keep)}
        arrows = tuple((index[s], index[t]) for s, t in self.arrows if s in index and t in index)
        return Quiver(len(keep), arrows)

    def delete_arrow(self, a: int) -> "Quiver":
        if not 0 <= a < self.narrows:
            raise QuiverFormatError("arrow index out of range")
        return Quiver(self.nvertices, self.arrows[:a] + self.arrows[a + 1 :])

    # ------------------------------------------------------------------
    # spanning trees

    def spanning_trees(self) -> list[tuple[int, ...]]:
        """All spanning trees as sorted tuples of non-loop arrow indices."""
        if not self.is_connected():
            raise ValueError("no spanning tree")
        nonloops = [a for a in range(self.narrows) if not self.is_loop(a)]
        # n - 1 arrows span a tree exactly when they leave one component
        return [
            subset for subset in combinations(nonloops, self.nvertices - 1)
            if len(set(vertex_roots(self.nvertices, map(self.arrows.__getitem__, subset)))) == 1
        ]

    # ------------------------------------------------------------------
    # JSON

    def to_json(self) -> dict:
        return {"vertices": self.nvertices, "arrows": [list(a) for a in self.arrows]}

    @classmethod
    def from_json(cls, data: object) -> "Quiver":
        if not isinstance(data, dict):
            raise QuiverFormatError("quiver JSON must be an object")
        try:
            nvertices, raw = data["vertices"], data["arrows"]
        except KeyError as exc:
            raise QuiverFormatError(f"quiver JSON missing fields: {exc}") from exc
        # type() is int, not int(): int() truncates floats, parses strings, takes bools
        if type(nvertices) is not int:
            raise QuiverFormatError(f"vertex count {nvertices!r} is not an integer")
        if not isinstance(raw, list):
            raise QuiverFormatError("arrows must be an array")
        for item in raw:
            if not (isinstance(item, list) and len(item) == 2
                    and all(type(v) is int for v in item)):
                raise QuiverFormatError(f"bad arrow entry {item!r}")
        return cls(nvertices, tuple((s, t) for s, t in raw))


def tree_paths(quiver: Quiver, tree_arrows: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Tree path of every non-loop arrow outside a spanning tree, in arrow order.

    One search from vertex 0 gives every vertex the set of tree arrows on
    its path down from the root; the unoriented path joining s and t is the
    symmetric difference of theirs.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for idx in tree_arrows:
        x, y = quiver.arrows[idx]
        adj.setdefault(x, []).append((idx, y))
        adj.setdefault(y, []).append((idx, x))
    down = {0: frozenset()}
    stack = [0]
    while stack:
        v = stack.pop()
        for idx, w in adj.get(v, ()):
            if w not in down:
                down[w] = down[v] | {idx}
                stack.append(w)
    inside = set(tree_arrows)
    paths: dict[int, tuple[int, ...]] = {}
    for a, (s, t) in enumerate(quiver.arrows):
        if a in inside or s == t:
            continue
        if s not in down or t not in down:
            raise ValueError("tree does not span the endpoints")
        paths[a] = tuple(sorted(down[s] ^ down[t]))
    return paths


def _arrow_classes(quiver: Quiver) -> Counter:
    """Parallel-arrow classes: unordered ends (v, v for loops) -> arrow count."""
    return Counter((s, t) if s <= t else (t, s) for s, t in quiver.arrows)


class _ClassTable(NamedTuple):
    """Per state N (class 0 varies fastest in the state index): b(N), whether supp N
    connects every vertex, prod C(c_i, N_i), the arrow sets with counts N, and
    their size sum N_i.  ``classes`` maps the ends of each class to its size c_i,
    ``place`` to the state distance of one of its arrows.  Complementing counts
    reverses the order: the states below N are full - N' for the N' above full - N."""

    classes: Counter
    place: list[int]
    betti: list[int]
    connected: list[bool]
    sets: list[int]
    size: list[int]

    def above(self, state: int) -> list[tuple[int, int]]:
        """The states N' > N, each with the prod C(c_i - N_i, N'_i - N_i) arrow
        sets with counts N' above any one set with counts N."""
        ups = [(state, 1)]
        for place, c in zip(self.place, self.classes.values()):
            n = state // place % (c + 1)
            ups = [(up + d * place, k * comb(c - n, d)) for d in range(c - n + 1) for up, k in ups]
        return ups[1:]


def _class_table(quiver: Quiver) -> _ClassTable:
    classes = _arrow_classes(quiver)
    ranks, spanning = subset_ranks(quiver.nvertices, list(classes))
    place, supp, size, sets = [], [0], [0], [1]
    for i, c in enumerate(classes.values()):
        bit, row = 1 << i, [comb(c, j) for j in range(1, c + 1)]
        place.append(len(supp))
        supp += [x | bit for x in supp] * c
        size += [x + j for j in range(1, c + 1) for x in size]
        sets += [x * k for k in row for x in sets]
    betti = [n - ranks[x] for n, x in zip(size, supp)]
    return _ClassTable(classes, place, betti, [spanning[x] for x in supp], sets, size)


def _chain_walk_work(quiver: Quiver) -> int:
    """The estimate of the depth limit and of the Hilbert series: prod C(c_i + 2, 2) class-state
    pairs N <= N' (3^m without parallel arrows) at 1 + (b(Q) + 1)^3 // 1024 units each."""
    pairs = prod(comb(c + 2, 2) for c in _arrow_classes(quiver).values())
    return pairs * (1 + (quiver.betti() + 1) ** 3 // 1024)
