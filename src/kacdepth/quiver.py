"""Quivers as ordered directed multigraphs, with the graph operations used by
the counting machinery: restriction, contraction, deletion, Betti numbers,
connectivity (one union-find, ``vertex_roots``), spanning trees and
tree-path bookkeeping.

The arrow order is the list order.  It is preserved by restriction and
deletion; contraction preserves the relative order of the surviving arrows.
Loops and parallel arrows are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


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


@dataclass(frozen=True)
class Quiver:
    nvertices: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.nvertices < 0:
            raise QuiverFormatError("vertex count must be nonnegative")
        object.__setattr__(
            self, "arrows", tuple((int(s), int(t)) for s, t in self.arrows)
        )
        for s, t in self.arrows:
            if not (0 <= s < self.nvertices and 0 <= t < self.nvertices):
                raise QuiverFormatError(f"arrow ({s},{t}) out of range")

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
        return all(
            self.is_loop(a) or self.delete_arrow(a).is_connected()
            for a in range(self.narrows)
        )

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
    # restriction / deletion / contraction

    def restrict_vertices(self, vertices: Iterable[int]) -> "Quiver":
        """Full subquiver on the given vertices (renumbered in sorted order)."""
        keep = sorted(set(vertices))
        if any(not 0 <= v < self.nvertices for v in keep):
            raise QuiverFormatError("vertex subset out of range")
        index = {v: i for i, v in enumerate(keep)}
        arrows = tuple(
            (index[s], index[t]) for s, t in self.arrows if s in index and t in index
        )
        return Quiver(len(keep), arrows)

    def restrict_arrows(self, arrow_subset: Iterable[int]) -> "Quiver":
        """Subquiver with all vertices and only the given arrows."""
        keep = sorted(set(arrow_subset))
        if any(not 0 <= a < self.narrows for a in keep):
            raise QuiverFormatError("arrow subset out of range")
        return Quiver(self.nvertices, tuple(self.arrows[a] for a in keep))

    def delete_arrow(self, a: int) -> "Quiver":
        if not 0 <= a < self.narrows:
            raise QuiverFormatError("arrow index out of range")
        return Quiver(
            self.nvertices, self.arrows[:a] + self.arrows[a + 1 :]
        )

    def contract_arrow(self, a: int) -> tuple["Quiver", tuple[int, ...]]:
        """Contract a non-loop arrow; merge its endpoints.

        Returns the contracted quiver together with the vertex relabeling
        (old index -> new index).  The merged class sits at the smaller of the
        two old endpoint positions; the relative arrow order is preserved.
        """
        if not 0 <= a < self.narrows:
            raise QuiverFormatError("arrow index out of range")
        s, t = self.arrows[a]
        if s == t:
            raise ValueError("cannot contract loop")
        lo, hi = min(s, t), max(s, t)
        relabel = []
        for v in range(self.nvertices):
            if v == hi:
                relabel.append(lo)
            elif v > hi:
                relabel.append(v - 1)
            else:
                relabel.append(v)
        arrows = tuple(
            (relabel[x], relabel[y])
            for i, (x, y) in enumerate(self.arrows)
            if i != a
        )
        return Quiver(self.nvertices - 1, arrows), tuple(relabel)

    # ------------------------------------------------------------------
    # spanning trees

    def spanning_trees(self) -> list[tuple[int, ...]]:
        """All spanning trees as sorted tuples of non-loop arrow indices."""
        if not self.is_connected():
            raise ValueError("no spanning tree")
        nonloops = [a for a in range(self.narrows) if not self.is_loop(a)]
        size = self.nvertices - 1
        trees = []
        for subset in combinations(nonloops, size):
            if self.restrict_arrows(subset).is_connected():
                trees.append(subset)
        return trees

    # ------------------------------------------------------------------
    # JSON

    def to_json(self) -> dict:
        return {"vertices": self.nvertices, "arrows": [list(a) for a in self.arrows]}

    @classmethod
    def from_json(cls, data: object) -> "Quiver":
        if not isinstance(data, dict):
            raise QuiverFormatError("quiver JSON must be an object")
        try:
            nvertices = int(data["vertices"])
            raw = data["arrows"]
        except (KeyError, TypeError, ValueError) as exc:
            raise QuiverFormatError(f"quiver JSON missing fields: {exc}") from exc
        if not isinstance(raw, list):
            raise QuiverFormatError("arrows must be an array")
        arrows = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise QuiverFormatError(f"bad arrow entry {item!r}")
            arrows.append((int(item[0]), int(item[1])))
        return cls(nvertices, tuple(arrows))


def push_forward(vec: Sequence[int], relabel: Sequence[int], nnew: int) -> tuple[int, ...]:
    """Push an integer vertex vector through a contraction relabeling.

    Entries mapping to the same new vertex are summed (so a parameter vector
    lambda becomes lambda/a under contraction of the arrow a).
    """
    out = [0] * nnew
    for old, value in enumerate(vec):
        out[relabel[old]] += value
    return tuple(out)


@dataclass(frozen=True)
class ValuedTree:
    """A spanning tree with an integer valuation label on each tree arrow."""

    arrows: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.arrows) != len(self.values):
            raise ValueError("one valuation per tree arrow required")
        if tuple(sorted(self.arrows)) != self.arrows:
            order = sorted(range(len(self.arrows)), key=lambda i: self.arrows[i])
            object.__setattr__(self, "arrows", tuple(self.arrows[i] for i in order))
            object.__setattr__(self, "values", tuple(self.values[i] for i in order))

    def value_of(self, arrow: int) -> int:
        return self.values[self.arrows.index(arrow)]

    def items(self) -> list[tuple[int, int]]:
        return list(zip(self.arrows, self.values))


def tree_path(quiver: Quiver, tree_arrows: Sequence[int], a: int) -> tuple[int, ...]:
    """Arrows of the unique unoriented tree path joining the endpoints of a.

    The arrow a must be a non-loop arrow outside the tree.
    """
    if a in tree_arrows:
        raise ValueError("arrow lies in the tree")
    s, t = quiver.arrows[a]
    if s == t:
        raise ValueError("loops have no tree path")
    adj: dict[int, list[tuple[int, int]]] = {}
    for idx in tree_arrows:
        x, y = quiver.arrows[idx]
        adj.setdefault(x, []).append((idx, y))
        adj.setdefault(y, []).append((idx, x))
    # DFS from s to t along tree arrows
    stack = [(s, [])]
    seen = {s}
    while stack:
        v, path = stack.pop()
        if v == t:
            return tuple(path)
        for idx, w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append((w, path + [idx]))
    raise ValueError("tree does not span the endpoints")


def tree_path_data(quiver: Quiver, tree: ValuedTree, a: int) -> tuple[tuple[int, ...], int, int]:
    """Path arrows, their largest valuation, and the critical edge for a.

    The critical edge is the smallest-index path arrow achieving the largest
    valuation (the tie-break that decides the order of contraction).
    """
    path = tree_path(quiver, tree.arrows, a)
    vmax = max(tree.value_of(e) for e in path)
    critical = min(e for e in path if tree.value_of(e) == vmax)
    return path, vmax, critical
