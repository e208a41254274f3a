"""Toric counts: chain sum, valued-tree strata, brute orbits, depth limits."""

import random
from fractions import Fraction
from itertools import product

import pytest

from kacdepth import (
    GuardError,
    LaurentPoly,
    Quiver,
    RatFunc,
    asymptotic_kac,
    asymptotic_moment,
    toric_kac_chain,
    toric_orbit_count,
    tree_stratum_census,
)
from kacdepth.oring import cached_ring
from kacdepth.toric import _mask_betti_tables, toric_kac_trees

from helpers import (
    chain_sum_dict,
    chain_sum_naive,
    dfs_components,
    random_connected_quiver,
    stratum_inequalities_hold,
)
from oracles import OElem, assign_valued_tree, quiver_catalog

Q = LaurentPoly.q()
KRON = Quiver(2, ((0, 1), (0, 1)))
TRIANGLE = Quiver(3, ((0, 1), (1, 2), (0, 2)))
A2 = Quiver(2, ((0, 1),))
LOOP1 = Quiver(1, ((0, 0),))
POINT = Quiver(1, ())
THETA = Quiver(4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))


def kronecker(k: int, loops: int = 0) -> Quiver:
    return Quiver(2, ((0, 1),) * k + ((0, 0), (1, 1))[:loops])


class TestChainSum:
    def test_point(self):
        for alpha in (1, 2, 5):
            assert toric_kac_chain(POINT, alpha) == LaurentPoly.one()

    def test_single_arrow_is_depth(self):
        for alpha in (1, 2, 3, 5):
            assert toric_kac_chain(A2, alpha) == LaurentPoly.term(alpha)

    def test_single_loop_is_power(self):
        for alpha in (1, 2, 4):
            assert toric_kac_chain(LOOP1, alpha) == LaurentPoly.q(alpha)

    def test_disconnected_is_zero(self):
        assert toric_kac_chain(Quiver(2, ()), 3).is_zero()

    def test_matches_naive_chain_iteration(self):
        rng = random.Random(42)
        for _ in range(40):
            q = random_connected_quiver(rng, 3, 4)
            alpha = rng.randint(1, 3)
            assert toric_kac_chain(q, alpha) == chain_sum_naive(q, alpha)

    def test_packed_matches_naive_catalog(self, catalog_3v_3a):
        extras = [POINT, Quiver(3, ((0, 1), (2, 2))), Quiver(3, ((0, 1), (0, 1)))]
        for q in [*catalog_3v_3a, *extras]:
            for alpha in (1, 2, 3, 4):
                assert toric_kac_chain(q, alpha) == chain_sum_naive(q, alpha), (q, alpha)

    def test_packed_matches_dict_catalog(self, catalog_4v_6a):
        for q in catalog_4v_6a:
            for alpha in (1, 2, 3, 4):
                assert toric_kac_chain(q, alpha) == chain_sum_dict(q, alpha), (q, alpha)

    def test_packed_matches_dict_wide_fields(self):
        cases = [(kronecker(k), alpha) for k in (6, 7, 8) for alpha in (2, 4, 8, 12)]
        cases += [(THETA, 6), (kronecker(4, loops=2), 6)]
        for q, alpha in cases:
            assert toric_kac_chain(q, alpha) == chain_sum_dict(q, alpha), (q, alpha)

    def test_guard_names_estimate_limit_and_flag(self):
        # work estimate 2^m * m * max(alpha-1, 1) = 4 * 2 * 2 = 16 for KRON at alpha 3
        assert toric_kac_chain(KRON, 3, guard=16) == toric_kac_chain(KRON, 3)
        with pytest.raises(GuardError, match=r"estimate 16 .*limit 15.*--guard"):
            toric_kac_chain(KRON, 3, guard=15)

    def test_mask_tables_match_dfs_catalog(self):
        for q in quiver_catalog(4, 5, connected=False):
            betti, connected = _mask_betti_tables(q)
            for mask in range(1 << q.narrows):
                arrows = [q.arrows[a] for a in range(q.narrows) if mask >> a & 1]
                ncomp = len(dfs_components(q.nvertices, arrows))
                assert betti[mask] == ncomp - q.nvertices + len(arrows), (q, mask)
                assert connected[mask] == (ncomp == 1), (q, mask)

    def test_degree_is_alpha_betti(self, catalog_3v_3a):
        for q in catalog_3v_3a:
            for alpha in (1, 2, 3):
                poly = toric_kac_chain(q, alpha)
                if q.betti() == 0 and q.narrows == q.nvertices - 1:
                    pass
                assert poly.max_exp() == alpha * q.betti()


class TestTreeStrata:
    def test_kronecker_expansion(self):
        # valued trees: {0} with labels 0,1 and {1} with labels 0,1
        census = tree_stratum_census(KRON, 2)
        table = {(t.arrows, t.values): n for t, n in census}
        assert table == {
            ((0,), (0,)): 1,
            ((0,), (1,)): 0,
            ((1,), (0,)): 2,
            ((1,), (1,)): 1,
        }
        assert toric_kac_trees(KRON, 2) == Q**2 + 2 * Q + 1

    def test_triangle_depth_one(self):
        assert toric_kac_trees(TRIANGLE, 1) == Q + 2

    def test_bridge_depth_three(self):
        assert toric_kac_trees(A2, 3) == LaurentPoly.term(3)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            toric_kac_trees(Quiver(2, ()), 2)

    def test_routes_agree_small(self, catalog_3v_3a):
        for q in catalog_3v_3a:
            for alpha in (1, 2, 3):
                assert toric_kac_trees(q, alpha) == toric_kac_chain(q, alpha)

    def test_order_invariance_sample(self):
        rng = random.Random(4242)
        for _ in range(80):
            q = random_connected_quiver(rng, 4, 5)
            alpha = rng.randint(1, 3)
            perm = list(range(q.narrows))
            rng.shuffle(perm)
            permuted = Quiver(q.nvertices, tuple(q.arrows[i] for i in perm))
            assert toric_kac_trees(q, alpha) == toric_kac_trees(permuted, alpha)


class TestAlgorithmOnRepresentations:
    def test_kronecker_unit_arrow_contracted(self):
        x = [OElem(2, 2, (0, 1)), OElem(2, 2, (1, 0))]
        tree = assign_valued_tree(KRON, x)
        assert tree.arrows == (1,) and tree.values == (0,)

    def test_worked_six_arrow_example(self):
        # three vertices, arrows listed smallest-to-largest:
        # 0: 1->2, 1: loop at 2, 2: 2->0, 3: 1->0, 4: 0->1, 5: loop at 0
        quiver = Quiver(3, ((1, 2), (2, 2), (2, 0), (1, 0), (0, 1), (0, 0)))
        def elem(*coeffs):
            return OElem(2, 3, coeffs)
        x = [
            elem(0, 1, 0),   # t
            elem(0, 0, 1),   # t^2
            elem(0, 0, 1),   # t^2
            elem(1, 0, 0),   # 1
            elem(0, 1, 0),   # t
            elem(1, 0, 0),   # 1
        ]
        tree = assign_valued_tree(quiver, x)
        # arrow 3 is contracted first (largest unit non-loop), arrow 0 after
        # one depth drop; loops and remaining arrows are deleted
        assert tree.arrows == (0, 3)
        assert dict(tree.items()) == {0: 1, 3: 0}

    def test_loop_only_gives_empty_tree(self):
        tree = assign_valued_tree(LOOP1, [OElem(2, 2, (0, 1))])
        assert tree.arrows == ()

    def test_decomposable_rejected(self):
        with pytest.raises(ValueError, match="decomposable"):
            assign_valued_tree(KRON, [OElem(2, 2, (0, 0))] * 2)

    def test_stratum_membership_random(self):
        rng = random.Random(55)
        for _ in range(200):
            q = random_connected_quiver(rng, 3, 4)
            x = [OElem.from_code(2, 3, rng.randrange(8)) for _ in range(q.narrows)]
            support = [a for a in range(q.narrows) if not x[a].is_zero()]
            if not q.restrict_arrows(support).is_connected():
                continue
            tree = assign_valued_tree(q, x)
            assert stratum_inequalities_hold(q, tree, x)

    def test_strata_partition_counts(self):
        # per-stratum orbit counts match the stratum monomials q^(n_T)
        for q, p, alpha in ((KRON, 2, 2), (TRIANGLE, 3, 1), (A2, 3, 2)):
            ring = cached_ring(p, alpha)
            torus = list(product(ring.units, repeat=q.nvertices))
            counts: dict = {}
            for codes in product(range(ring.size), repeat=q.narrows):
                support = [a for a in range(q.narrows) if codes[a]]
                if not q.restrict_arrows(support).is_connected():
                    continue
                minimal = True
                for u in torus:
                    y = tuple(
                        ring.mul[ring.mul[u[t]][c]][ring.inv[u[s]]]
                        for c, (s, t) in zip(codes, q.arrows)
                    )
                    if y < codes:
                        minimal = False
                        break
                if not minimal:
                    continue
                x = [OElem.from_code(p, alpha, c) for c in codes]
                tree = assign_valued_tree(q, x)
                key = (tree.arrows, tree.values)
                counts[key] = counts.get(key, 0) + 1
            census = {
                (t.arrows, t.values): p**n for t, n in tree_stratum_census(q, alpha)
            }
            assert counts == census


class TestBruteOrbits:
    def test_examples(self):
        assert toric_orbit_count(A2, 2, 2) == 2
        assert toric_orbit_count(KRON, 2, 2) == 9
        assert toric_orbit_count(LOOP1, 3, 2) == 9

    def test_guard(self):
        from kacdepth import GuardError

        with pytest.raises(GuardError):
            toric_orbit_count(KRON, 5, 2, guard=10)


class TestAsymptotics:
    def test_kronecker(self):
        assert asymptotic_kac(KRON) == RatFunc(Q + 1, Q - 1)
        assert asymptotic_moment(KRON) == RatFunc(Q + 1, Q)

    def test_one_loop(self):
        assert asymptotic_kac(LOOP1) == RatFunc.one()

    def test_triangle_relation(self):
        scale = RatFunc(LaurentPoly({0: 1, -1: -1})) ** 2
        assert asymptotic_moment(TRIANGLE) == scale * asymptotic_kac(TRIANGLE)

    def test_not_two_connected(self):
        with pytest.raises(ValueError, match="does not converge"):
            asymptotic_kac(A2)

    def test_depth_limit_oracle(self):
        # q^(-alpha b) A_alpha approaches the limit at q=2, error shrinking
        for quiver in (KRON, TRIANGLE, Quiver(1, ((0, 0), (0, 0)))):
            limit = asymptotic_kac(quiver).evaluate(2)
            b = quiver.betti()
            errors = []
            for alpha in range(1, 9):
                approx = Fraction(
                    toric_kac_chain(quiver, alpha).evaluate(2), 2 ** (alpha * b)
                )
                errors.append(abs(approx - limit))
            assert all(e1 >= e2 for e1, e2 in zip(errors, errors[1:]))
            assert errors[-1] <= errors[0] / 4 or errors[0] == 0
