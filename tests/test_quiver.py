"""Graph layer: Betti numbers, connectivity, contraction/deletion, trees."""

import copy
import json
import pickle
import random

import pytest

from kacdepth import Quiver, toric
from kacdepth.quiver import QuiverFormatError, tree_paths

from helpers import dfs_components, matrix_tree_count, random_connected_quiver, random_quiver
from oracles import (
    _set_partitions, contract_arrow, quiver_catalog, restrict_arrows, spanning_trees_oracle, tree_path_data,
)

KRON = Quiver(2, ((0, 1), (0, 1)))
TRIANGLE = Quiver(3, ((0, 1), (1, 2), (0, 2)))
A2 = Quiver(2, ((0, 1),))
LOOPS3 = Quiver(1, ((0, 0), (0, 0), (0, 0)))


class TestBasics:
    def test_betti_examples(self):
        assert LOOPS3.betti() == 3
        assert KRON.betti() == 1
        assert TRIANGLE.betti() == 1

    def test_components_examples(self):
        assert Quiver(2, ()).components() == ((0,), (1,))
        assert TRIANGLE.components() == ((0, 1, 2),)
        assert Quiver(4, TRIANGLE.arrows).components() == ((0, 1, 2), (3,))

    def test_components_match_dfs_catalog(self):
        for q in quiver_catalog(4, 5, connected=False):
            assert q.components() == dfs_components(q.nvertices, q.arrows)

    def test_two_connected_examples(self):
        assert not A2.is_two_connected()
        assert KRON.is_two_connected()
        assert TRIANGLE.is_two_connected()
        assert Quiver(1, ((0, 0),)).is_two_connected()
        assert not Quiver(1, ()).is_two_connected()

    def test_euler_form_examples(self):
        g3 = LOOPS3
        assert g3.euler_form((1,), (1,)) == 1 - 3
        assert A2.euler_form((1, 1), (1, 1)) == 1
        assert TRIANGLE.euler_form((0, 0, 0), (5, 1, 2)) == 0

    def test_euler_form_mismatch(self):
        with pytest.raises(ValueError):
            A2.euler_form((1,), (1, 1))

    def test_bad_arrow_index(self):
        with pytest.raises(QuiverFormatError):
            Quiver(2, ((0, 2),))


class TestValueClass:
    def test_equality_and_hash(self):
        same = Quiver(nvertices=2, arrows=[[0, 1], [0, 1]])
        assert same == KRON and same is not KRON
        assert hash(same) == hash(KRON) == hash((2, ((0, 1), (0, 1))))
        assert len({KRON, same, A2}) == 2
        assert KRON != A2 and KRON != Quiver(2, ((1, 0), (0, 1)))

    def test_never_equal_to_a_tuple_or_another_class(self):
        assert KRON != (2, ((0, 1), (0, 1)))
        assert KRON.__eq__((2, ((0, 1), (0, 1)))) is NotImplemented
        assert Quiver(0, ()) != (0, ())

    def test_keyword_construction_normalises_arrows(self):
        q = Quiver(arrows=[[0, 1], (True, 0)], nvertices=2)
        assert q.arrows == ((0, 1), (1, 0))
        assert all(type(v) is int for a in q.arrows for v in a)

    def test_assignment_raises_attribute_error(self):
        for name in ("nvertices", "arrows", "extra"):
            with pytest.raises(AttributeError):
                setattr(KRON, name, ())
        with pytest.raises(AttributeError):
            del KRON.arrows
        assert KRON == Quiver(2, ((0, 1), (0, 1)))

    def test_repr(self):
        assert repr(KRON) == "Quiver(nvertices=2, arrows=((0, 1), (0, 1)))"

    def test_copy_and_pickle(self):
        assert copy.copy(TRIANGLE) == copy.deepcopy(TRIANGLE) == pickle.loads(pickle.dumps(TRIANGLE)) == TRIANGLE

    def test_check_messages_and_order(self):
        def message(*args):
            with pytest.raises(ValueError) as info:
                Quiver(*args)
            return str(info.value)

        # the negative count first, before the arrows are read at all
        assert message(-1, [("x", 0)]) == "vertex count must be nonnegative"
        # every arrow through int() before any range check
        assert message(1, [(0, 5), ("x", 0)]) == "invalid literal for int() with base 10: 'x'"
        assert message(2, [("0", "5")]) == "arrow (0,5) out of range"
        assert message(2, [(0, 1), (-1, 0)]) == "arrow (-1,0) out of range"
        with pytest.raises(QuiverFormatError):
            Quiver(2, ((0, 2),))

    def test_equal_quiver_hits_the_asymptotic_cache(self):
        toric._asymptotic_chain_sum(Quiver(2, ((0, 1), (0, 1), (1, 0))))
        hits = toric._asymptotic_chain_sum.cache_info().hits
        misses = toric._asymptotic_chain_sum.cache_info().misses
        value = toric._asymptotic_chain_sum(Quiver(2, [[0, 1], [0, 1], [1, 0]]))
        assert toric._asymptotic_chain_sum.cache_info().hits == hits + 1
        assert toric._asymptotic_chain_sum.cache_info().misses == misses
        assert value == toric._asymptotic_chain_sum(Quiver(2, ((0, 1), (0, 1), (1, 0))))


class TestOperations:
    def test_contract_triangle(self):
        contracted, relabel = contract_arrow(TRIANGLE, 0)
        assert contracted.nvertices == 2
        assert contracted.narrows == 2
        # both surviving arrows join the merged vertex to vertex 2
        assert sorted(tuple(sorted(a)) for a in contracted.arrows) == [(0, 1), (0, 1)]
        assert relabel == (0, 0, 1)

    def test_contract_bridge_to_point(self):
        contracted, relabel = contract_arrow(A2, 0)
        assert contracted == Quiver(1, ())
        assert relabel == (0, 0)

    def test_contract_loop_rejected(self):
        with pytest.raises(ValueError, match="cannot contract loop"):
            contract_arrow(LOOPS3, 0)

    def test_restrict_and_delete(self):
        assert TRIANGLE.restrict_vertices([0, 1]) == Quiver(2, ((0, 1),))
        assert KRON.delete_arrow(0) == A2
        empty = restrict_arrows(TRIANGLE, [])
        assert empty == Quiver(3, ())
        assert empty.betti() == 0

    def test_order_preserved_by_operations(self):
        q = Quiver(3, ((0, 1), (1, 2), (0, 2), (2, 1)))
        assert q.delete_arrow(1).arrows == ((0, 1), (0, 2), (2, 1))
        contracted, _ = contract_arrow(q, 0)
        assert contracted.narrows == 3


class TestSpanningTrees:
    def test_examples(self):
        assert KRON.spanning_trees() == [(0,), (1,)]
        assert len(TRIANGLE.spanning_trees()) == 3
        assert LOOPS3.spanning_trees() == [()]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="no spanning tree"):
            Quiver(2, ()).spanning_trees()

    def test_matches_restriction_oracle(self):
        # the union-find test against one restricted subquiver per subset,
        # over the catalog and random multigraphs with loops
        rng = random.Random(808)
        quivers = [*quiver_catalog(3, 4), *(random_connected_quiver(rng, 5, 8) for _ in range(200))]
        for q in quivers:
            assert q.spanning_trees() == spanning_trees_oracle(q), q

    def test_matrix_tree_oracle_random(self):
        rng = random.Random(123)
        for _ in range(300):
            q = random_connected_quiver(rng, 5, 7)
            assert len(q.spanning_trees()) == matrix_tree_count(q)


class TestTreePaths:
    def test_kronecker(self):
        path, vmax, critical = tree_path_data(KRON, ((0,), (0,)), 1)
        assert path == (0,) and vmax == 0 and critical == 0

    def test_triangle_unique_max(self):
        path, vmax, critical = tree_path_data(TRIANGLE, ((0, 1), (1, 0)), 2)
        assert set(path) == {0, 1}
        assert vmax == 1 and critical == 0

    def test_triangle_tie_break(self):
        _, vmax, critical = tree_path_data(TRIANGLE, ((0, 1), (1, 1)), 2)
        assert vmax == 1 and critical == 0

    def test_skips_tree_arrows_and_loops(self):
        assert tree_paths(KRON, (0,)) == {1: (0,)}
        assert tree_paths(Quiver(2, ((0, 1), (1, 1))), (0,)) == {}

    def test_paths_away_from_the_root(self):
        # rooted at vertex 0: arrow 4 joins the branches 0-1-2 and 0-3, and
        # arrow 5 runs inside the branch 0-1-2, off the root
        q = Quiver(4, ((0, 1), (2, 1), (3, 0), (2, 3), (1, 2), (2, 1)))
        assert tree_paths(q, (0, 1, 2)) == {3: (0, 1, 2), 4: (1,), 5: (1,)}

    def test_rejects_a_tree_that_misses_an_endpoint(self):
        with pytest.raises(ValueError):
            tree_paths(Quiver(3, ((0, 1), (1, 2))), (0,))


def _contract_forest_inside_parts(quiver, parts):
    """Contract each part to a point along a spanning forest.

    Repeatedly contracting any non-loop intra-part arrow is the same as
    contracting a chosen spanning forest: non-forest arrows end up as loops.
    """
    current = quiver
    vertex_part = {}
    for k, part in enumerate(parts):
        for v in part:
            vertex_part[v] = k
    vmap = [vertex_part[v] for v in range(quiver.nvertices)]
    changed = True
    while changed:
        changed = False
        for idx in range(current.narrows):
            s, t = current.arrows[idx]
            if s != t and vmap[s] == vmap[t]:
                current, relabel = contract_arrow(current, idx)
                new_vmap = [0] * current.nvertices
                for old, new in enumerate(relabel):
                    new_vmap[new] = vmap[old]
                vmap = new_vmap
                changed = True
                break
    # intra-part arrows not in the forest are loops now; the contracted
    # quiver keeps only the arrows joining distinct parts
    keep = [a for a in range(current.narrows) if not current.is_loop(a)]
    return restrict_arrows(current, keep)


class TestBettiIdentities:
    def test_partition_additivity_random(self):
        rng = random.Random(31)
        for _ in range(200):
            q = random_quiver(rng, 5, 6)
            verts = list(range(q.nvertices))
            rng.shuffle(verts)
            ncuts = rng.randint(1, q.nvertices)
            parts = [sorted(verts[i::ncuts]) for i in range(ncuts)]
            parts = [p for p in parts if p]
            contracted = _contract_forest_inside_parts(q, parts)
            total = contracted.betti() + sum(
                q.restrict_vertices(p).betti() for p in parts
            )
            assert total == q.betti()

    def test_two_connected_iff_betti_gap(self):
        # exhaustive over all small quivers, connected or not; one-vertex
        # quivers carry no nontrivial partition and are skipped
        for q in quiver_catalog(5, 5, connected=False):
            if q.nvertices < 2:
                continue
            criterion = all(
                q.betti()
                > sum(q.restrict_vertices(p).betti() for p in parts)
                for parts in _set_partitions(list(range(q.nvertices)))
                if len(parts) >= 2
            )
            assert criterion == q.is_two_connected(), q

    def test_two_connected_implies_positive_betti(self, catalog_4v_6a):
        for q in catalog_4v_6a:
            if q.is_two_connected():
                assert q.betti() > 0

    def test_contract_delete_betti_laws(self):
        rng = random.Random(77)
        for _ in range(300):
            q = random_quiver(rng, 4, 6)
            if q.narrows == 0:
                continue
            a = rng.randrange(q.narrows)
            if not q.is_loop(a):
                contracted, _ = contract_arrow(q, a)
                assert contracted.betti() == q.betti()
            deleted = q.delete_arrow(a)
            on_cycle = len(deleted.components()) == len(q.components())
            assert deleted.betti() == q.betti() - (1 if on_cycle else 0)


def test_json_round_trip():
    data = KRON.to_json()
    assert data == {"vertices": 2, "arrows": [[0, 1], [0, 1]]}
    assert Quiver.from_json(data) == KRON
    with pytest.raises(QuiverFormatError):
        Quiver.from_json({"vertices": 1})
    with pytest.raises(QuiverFormatError):
        Quiver.from_json({"vertices": 2, "arrows": [[0, 5]]})
    # only JSON integers: nulls, lists, floats (1e400 is inf), strings and
    # booleans are refused, not coerced or left to raise TypeError
    for bad in (None, [1], 1.7, 1.0, float("inf"), "1", True):
        with pytest.raises(QuiverFormatError):
            Quiver.from_json({"vertices": 2, "arrows": [[0, bad]]})
        with pytest.raises(QuiverFormatError):
            Quiver.from_json({"vertices": bad, "arrows": []})
    for text in ('{"vertices": 2, "arrows": [[0, 1e400]]}', '{"vertices": 1e400, "arrows": []}'):
        with pytest.raises(QuiverFormatError):
            Quiver.from_json(json.loads(text))
