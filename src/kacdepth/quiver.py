"""Quivers as ordered directed multigraphs, with the graph operations used by
the counting machinery: vertex restriction, deletion, Betti numbers, connectivity
(one union-find, ``vertex_roots``), the rank and connectivity of every edge
subset at once (``subset_ranks``), spanning trees and tree paths.

The arrow order is the list order; restriction and deletion preserve it.
Loops and parallel arrows are allowed.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterable, Sequence


class _Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields in ``__slots__`` and sets them once in
    ``__init__`` through ``object.__setattr__``.  Instances compare equal
    only to instances of the same class with equal fields, hash as the
    tuple of their fields and refuse assignment with ``AttributeError``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assignment would refuse
        return self.__class__, self._values()


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
    order, so rest = mask ^ lowbit comes first: the vertex partition of mask
    is that of rest with the ends of the lowest edge merged, and the rank
    rises by one exactly when that merge joins two blocks.  Partitions are
    interned by their canonical labelling (each vertex labelled by the
    smallest vertex of its block), and the merge (partition, edge) ->
    partition is memoised, so a mask costs one dict lookup; a memo miss
    relabels the block with the larger label of the edge's two ends by the
    smaller one.
    """
    m = len(edges)
    labellings: list[tuple[int, ...]] = [tuple(range(nvertices))]
    ids = {labellings[0]: 0}
    ranks = [0]
    merged: dict[int, int] = {}
    part = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        rest = part[mask ^ low]
        e = low.bit_length() - 1
        key = rest * m + e
        pid = merged.get(key)
        if pid is None:
            labelling = labellings[rest]
            lo, hi = sorted(labelling[v] for v in edges[e])
            labelling = tuple(lo if x == hi else x for x in labelling)
            if labelling not in ids:  # a new labelling: the ends were in two blocks
                ids[labelling] = len(labellings)
                labellings.append(labelling)
                ranks.append(ranks[rest] + 1)
            pid = merged[key] = ids[labelling]
        part[mask] = pid
    full = nvertices - 1
    return [ranks[p] for p in part], [ranks[p] == full for p in part]


class Quiver(_Frozen):
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


class ValuedTree(_Frozen):
    """A spanning tree (sorted arrow indices) with a valuation label on each arrow."""

    __slots__ = ("arrows", "values")
    arrows: tuple[int, ...]
    values: tuple[int, ...]

    def __init__(self, arrows: tuple[int, ...], values: tuple[int, ...]) -> None:
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "values", values)

    @classmethod
    def many(cls, arrows: Iterable[tuple[int, ...]], values: Sequence[tuple[int, ...]]) -> list[ValuedTree]:
        """``list(map(ValuedTree, arrows, values))`` without an ``__init__`` call
        per tree: three passes in C, the slot descriptors setting the fields."""
        trees = list(map(object.__new__, repeat(cls, len(values))))
        list(map(cls.arrows.__set__, trees, arrows))
        list(map(cls.values.__set__, trees, values))
        return trees

    def items(self) -> list[tuple[int, int]]:
        return list(zip(self.arrows, self.values))


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

