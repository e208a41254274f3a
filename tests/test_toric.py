"""Toric counts: chain sum, valued-tree strata, Burnside orbits, depth limits."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, prod

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
from kacdepth import toric
from kacdepth.laurent import CycloPacking
from kacdepth.quiver import _class_table
from kacdepth.toric import _binomial_transform, toric_kac_trees

from helpers import (
    DOUBLED_K4,
    MULTIGRAPHS,
    THETA,
    cached_ring,
    chain_sum_dict,
    chain_sum_naive,
    dfs_components,
    kronecker,
    random_connected_quiver,
    stratum_inequalities_hold,
)
from oracles import (
    OElem,
    _mask_betti_tables,
    asymptotic_chain_sum_mask_oracle,
    asymptotic_chain_sum_oracle,
    assign_valued_tree,
    chain_sum_mask_oracle,
    quiver_catalog,
    restrict_arrows,
    toric_orbit_count_oracle,
    tree_stratum_census_oracle,
)

Q = LaurentPoly.q()
KRON = Quiver(2, ((0, 1), (0, 1)))
TRIANGLE = Quiver(3, ((0, 1), (1, 2), (0, 2)))
A2 = Quiver(2, ((0, 1),))
LOOP1 = Quiver(1, ((0, 0),))
POINT = Quiver(1, ())


def permuted_sample():
    """80 random connected quivers, each with an arrow-permuted copy and a depth."""
    rng = random.Random(4242)
    for _ in range(80):
        q = random_connected_quiver(rng, 4, 5)
        alpha = rng.randint(1, 3)
        perm = list(range(q.narrows))
        rng.shuffle(perm)
        yield q, Quiver(q.nvertices, tuple(q.arrows[i] for i in perm)), alpha


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

    def test_guard_names_estimate_and_limit(self):
        # work estimate states * m * max(alpha-1, 1) * words = 3 * 2 * 2 * 1 = 12 for
        # KRON at alpha 3: one class of 2 arrows has 3 states; W = 5 bits per
        # field, 5 * (1 * 2 + 1) = 15 bits in the top layer
        assert toric_kac_chain(KRON, 3, guard=12) == toric_kac_chain(KRON, 3)
        # the message names no flag: only the CLI has --guard
        with pytest.raises(GuardError, match=r"^chain sum estimate 12 > limit 11$"):
            toric_kac_chain(KRON, 3, guard=11)

    def test_guard_counts_masks_without_parallel_arrows(self):
        # no two arrows share their ends: 2^3 states * 3 * 2 * 1 word for the
        # triangle at alpha 3 (W = 6, b = 1), as over masks
        with pytest.raises(GuardError, match=r"chain sum estimate 48 > limit 47"):
            toric_kac_chain(TRIANGLE, 3, guard=47)

    def test_class_kernel_matches_mask_oracle(self):
        for q in [*quiver_catalog(3, 4), *MULTIGRAPHS]:
            for alpha in (1, 2, 3, 4):
                assert toric_kac_chain(q, alpha) == chain_sum_mask_oracle(q, alpha), (q, alpha)

    def test_class_table_matches_dfs(self):
        # b(N), connectivity, the number of arrow sets with counts N and their
        # size; the place values, and the counted states above and below the
        # state of each mask; and the distinct sizes of the sets of one
        # exponent bound how often that exponent occurs along a chain of masks
        for q in [*quiver_catalog(3, 4, connected=False), *MULTIGRAPHS[:8]]:
            table = _class_table(q)
            found = Counter()
            # per mask: its state, b(Q) - b(E), longest chain of that exponent ending at E
            states, exponent, longest = [], [], []
            for mask in range(1 << q.narrows):
                arrows = [q.arrows[a] for a in range(q.narrows) if mask >> a & 1]
                state, stride, strides = 0, 1, []
                for ends, c in table.classes.items():
                    strides.append(stride)
                    state += stride * sum(tuple(sorted(e)) == ends for e in arrows)
                    stride *= c + 1
                ncomp = len(dfs_components(q.nvertices, arrows))
                assert table.betti[state] == ncomp - q.nvertices + len(arrows), (q, mask)
                assert table.connected[state] == (ncomp == 1), (q, mask)
                assert table.size[state] == len(arrows), (q, mask)
                found[state] += 1
                states.append(state)
                exponent.append(q.betti() - table.betti[state])
                subs = [sub for sub in range(mask) if sub & mask == sub and exponent[sub] == exponent[mask]]
                longest.append(1 + max((longest[sub] for sub in subs), default=0))
            assert [found[s] for s in range(len(table.sets))] == table.sets, q
            assert table.place == strides, q
            full = len(table.sets) - 1
            for mask, state in enumerate(states):
                supersets = Counter(states[sup] for sup in range(mask + 1, len(states)) if sup & mask == mask)
                subsets = Counter(states[sub] for sub in range(mask) if sub & mask == sub)
                assert sorted(table.above(state)) == sorted(supersets.items()), (q, mask)
                below = [(full - up, k) for up, k in table.above(full - state)]
                assert sorted(below) == sorted(subsets.items()), (q, mask)
            mu = CycloPacking(zip([q.betti() - b for b in table.betti], table.size), 1).mu
            for c, length in zip(exponent, longest):
                assert mu[c] >= length, (q, c)

    def test_binomial_transform_is_the_nested_subset_sum(self):
        rng = random.Random(7)
        for sizes in ([1], [3], [2, 1, 3], [1, 1, 1, 1], [4, 2], [1, 5, 1]):
            states = list(product(*(range(c + 1) for c in reversed(sizes))))
            states = [n[::-1] for n in states]  # class 0 varies fastest
            values = [rng.randrange(-50, 50) for _ in states]
            expected = [
                sum(
                    v * prod(comb(a, b) for a, b in zip(top, low))
                    for low, v in zip(states, values)
                    if all(b <= a for a, b in zip(top, low))
                )
                for top in states
            ]
            _binomial_transform(values, sizes)
            assert values == expected, sizes

    def test_mask_tables_match_dfs_catalog(self):
        # parallel arrows, several loops at one vertex, and a 7-cycle with two
        # chords, whose masks meet many vertex partitions
        chorded = Quiver(7, tuple((i, (i + 1) % 7) for i in range(7)) + ((0, 3), (5, 2)))
        small = [q for q in MULTIGRAPHS if q.narrows <= 8]
        for q in [*quiver_catalog(4, 5, connected=False), *small, chorded]:
            betti, connected = _mask_betti_tables(q)
            for mask in range(1 << q.narrows):
                arrows = [q.arrows[a] for a in range(q.narrows) if mask >> a & 1]
                ncomp = len(dfs_components(q.nvertices, arrows))
                assert betti[mask] == ncomp - q.nvertices + len(arrows), (q, mask)
                assert connected[mask] == (ncomp == 1), (q, mask)

    def test_degree_is_alpha_betti(self, catalog_4v_6a):
        # the truncation floor of e_series_check rests on this
        for q in (q for q in catalog_4v_6a if q.narrows <= 5):
            for alpha in (1, 2, 3):
                poly = toric_kac_chain(q, alpha)
                assert poly.max_exp() == alpha * q.betti(), (q, alpha)
                assert poly.coeff(poly.max_exp()) > 0, (q, alpha)


class TestTreeStrata:
    def test_kronecker_expansion(self):
        # valued trees: {0} with labels 0,1 and {1} with labels 0,1
        census = tree_stratum_census(KRON, 2)
        table = {(a, v): n for a, v, n in census}
        assert table == {
            ((0,), (0,)): 1,
            ((0,), (1,)): 0,
            ((1,), (0,)): 2,
            ((1,), (1,)): 1,
        }
        assert toric_kac_trees(KRON, 2) == Q**2 + 2 * Q + 1

    def test_rows_share_their_tree_and_valuation_tuples(self):
        # the kac report renders an object shared among census rows once, so
        # its cost grows with the trees and valuations, not with the strata
        census = tree_stratum_census(DOUBLED_K4, 3)
        trees: dict = {}
        valuations: dict = {}
        for arrows, values, _ in census:
            assert trees.setdefault(arrows, arrows) is arrows
            assert valuations.setdefault(values, values) is values
        assert (len(census), len(trees), len(valuations)) == (3456, 128, 27)

    def test_triangle_depth_one(self):
        assert toric_kac_trees(TRIANGLE, 1) == Q + 2

    def test_bridge_depth_three(self):
        assert toric_kac_trees(A2, 3) == LaurentPoly.term(3)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            toric_kac_trees(Quiver(2, ()), 2)

    def test_guard_bounds_trees_times_strata(self):
        # TRIANGLE at alpha 3: C(3, 2) trees * 3^2 valuations * 3 arrows = 81
        assert len(tree_stratum_census(TRIANGLE, 3, guard=81)) == 27
        with pytest.raises(GuardError, match="tree census estimate 81 > limit 80$"):
            tree_stratum_census(TRIANGLE, 3, guard=80)
        with pytest.raises(GuardError, match="tree census estimate >= 1024\\^3"):
            tree_stratum_census(THETA, 1024, guard=100)

    def test_routes_agree_small(self, catalog_3v_3a):
        for q in catalog_3v_3a:
            for alpha in (1, 2, 3):
                assert toric_kac_trees(q, alpha) == toric_kac_chain(q, alpha)

    def test_order_invariance_sample(self):
        for q, permuted, alpha in permuted_sample():
            assert toric_kac_trees(q, alpha) == toric_kac_trees(permuted, alpha)

    def test_census_matches_oracle_catalog(self):
        for q in quiver_catalog(3, 4):
            for alpha in (1, 2, 3):
                census = tree_stratum_census(q, alpha)
                assert census == tree_stratum_census_oracle(q, alpha), (q, alpha)

    def test_census_matches_oracle_permuted_sample(self):
        for q, permuted, alpha in permuted_sample():
            for quiver in (q, permuted):
                census = tree_stratum_census(quiver, alpha)
                assert census == tree_stratum_census_oracle(quiver, alpha), (quiver, alpha)

    def test_census_matches_oracle_doubled_k4(self):
        census = tree_stratum_census(DOUBLED_K4, 3)
        assert len(census) == 3456
        assert census == tree_stratum_census_oracle(DOUBLED_K4, 3)

    def test_census_matches_oracle_where_parallel_arrows_share_a_path(self):
        # the census adds one table per tree path; parallel arrows outside a
        # tree share its path, and the arrow order decides the critical edges,
        # so every quiver also runs with its arrows and vertices permuted
        rng = random.Random(2323)
        doubled_triangle = Quiver(3, ((0, 1), (1, 2), (0, 2)) * 2)
        theta_doubled = Quiver(4, THETA.arrows + ((0, 2),))
        kron4_loops = Quiver(2, ((0, 1),) * 4 + ((0, 0), (1, 1)))
        cases = [(Quiver(2, ((0, 1),) * k), 4) for k in range(2, 7)]
        cases += [(kron4_loops, 4), (doubled_triangle, 4), (theta_doubled, 4), (DOUBLED_K4, 4)]
        for q, top in cases:
            relabel = list(range(q.nvertices))
            rng.shuffle(relabel)
            arrows = [(relabel[s], relabel[t]) for s, t in q.arrows]
            rng.shuffle(arrows)
            for quiver in (q, Quiver(q.nvertices, arrows)):
                for alpha in range(1, top + 1):
                    census = tree_stratum_census(quiver, alpha)
                    assert census == tree_stratum_census_oracle(quiver, alpha), (quiver, alpha)


class TestAlgorithmOnRepresentations:
    def test_kronecker_unit_arrow_contracted(self):
        x = [OElem(2, 2, (0, 1)), OElem(2, 2, (1, 0))]
        assert assign_valued_tree(KRON, x) == ((1,), (0,))

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
        arrows, values = assign_valued_tree(quiver, x)
        # arrow 3 is contracted first (largest unit non-loop), arrow 0 after
        # one depth drop; loops and remaining arrows are deleted
        assert arrows == (0, 3)
        assert dict(zip(arrows, values)) == {0: 1, 3: 0}

    def test_loop_only_gives_empty_tree(self):
        assert assign_valued_tree(LOOP1, [OElem(2, 2, (0, 1))])[0] == ()

    def test_decomposable_rejected(self):
        with pytest.raises(ValueError, match="decomposable"):
            assign_valued_tree(KRON, [OElem(2, 2, (0, 0))] * 2)

    def test_stratum_membership_random(self):
        rng = random.Random(55)
        for _ in range(200):
            q = random_connected_quiver(rng, 3, 4)
            x = [OElem.from_code(2, 3, rng.randrange(8)) for _ in range(q.narrows)]
            support = [a for a in range(q.narrows) if not x[a].is_zero()]
            if not restrict_arrows(q, support).is_connected():
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
                if not restrict_arrows(q, support).is_connected():
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
                key = assign_valued_tree(q, x)
                counts[key] = counts.get(key, 0) + 1
            census = {(a, v): p**n for a, v, n in tree_stratum_census(q, alpha)}
            assert counts == census


class TestBurnsideOrbits:
    def test_examples(self):
        assert toric_orbit_count(A2, 2, 2) == 2
        assert toric_orbit_count(KRON, 2, 2) == 9
        assert toric_orbit_count(LOOP1, 3, 2) == 9

    def test_guard(self):
        with pytest.raises(GuardError):
            toric_orbit_count(KRON, 5, 2, guard=10)

    def test_refusals_come_before_the_class_table(self, monkeypatch):
        # the guard block that oracle orbit-count runs for every prime first
        assert toric._check_orbit_work(TRIANGLE, 3, 2, 10**6) == (2 * 3) ** 2
        monkeypatch.setattr(toric, "_class_table", lambda quiver: pytest.fail("the count began"))
        with pytest.raises(GuardError, match="orbit count estimate >= 1000002\\^2"):
            toric_orbit_count(TRIANGLE, 1000003, 2)
        with pytest.raises(ValueError, match="4 is not prime"):
            toric_orbit_count(TRIANGLE, 4, 2)

    def test_equals_lex_min_oracle_on_catalog(self):
        # disconnected quivers too: they have no connected spanning support
        for q in quiver_catalog(3, 3, connected=False):
            for p, alpha in ((2, 1), (2, 2), (3, 1), (3, 2)):
                assert toric_orbit_count(q, p, alpha) == toric_orbit_count_oracle(q, p, alpha), (
                    q, p, alpha
                )

    @pytest.mark.parametrize(
        "quiver, p, alpha, orbits",
        [
            (Quiver(3, ((0, 2), (1, 2), (1, 0))), 3, 3, 125),
            (Quiver(2, ((0, 1),) * 3), 3, 3, 1183),
            (Quiver(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))), 2, 2, 755),
        ],
    )
    def test_equals_lex_min_oracle_on_larger_cases(self, quiver, p, alpha, orbits):
        assert toric_orbit_count(quiver, p, alpha) == orbits
        assert toric_orbit_count_oracle(quiver, p, alpha) == orbits


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

    def test_guard_before_two_connectivity(self):
        # the 3^m estimate is checked before the O(m^2) 2-connectivity test
        with pytest.raises(GuardError, match="asymptotic sum estimate 3 > limit 2"):
            asymptotic_kac(A2, guard=2)

    def test_common_denominator_matches_oracle(self, two_connected_3v_5a):
        for quiver in [*two_connected_3v_5a, Quiver(2, ((0, 1),) * 8)]:
            assert asymptotic_kac(quiver) == asymptotic_chain_sum_oracle(quiver), quiver

    def test_class_kernel_matches_mask_oracle(self, two_connected_3v_5a):
        multigraphs = [q for q in MULTIGRAPHS if q.is_two_connected()]
        assert len(multigraphs) == 20
        for quiver in [*two_connected_3v_5a, *multigraphs]:
            assert asymptotic_kac(quiver) == asymptotic_chain_sum_mask_oracle(quiver), quiver

    def test_guard_counts_state_pairs(self):
        # one class of 2 arrows: C(4, 2) = 6 pairs N <= N'; the triangle has
        # three classes of one arrow, 3^3 = 27 pairs as over masks
        with pytest.raises(GuardError, match="asymptotic sum estimate 6 > limit 5"):
            asymptotic_kac(KRON, guard=5)
        assert asymptotic_kac(KRON, guard=6) == asymptotic_kac(KRON)
        with pytest.raises(GuardError, match="asymptotic sum estimate 27 > limit 26"):
            asymptotic_kac(TRIANGLE, guard=26)
        # b(Q) = 9 and 11: a pair counts 1 + 10^3 // 1024 = 1 and
        # 1 + 12^3 // 1024 = 2 units, for C(12, 2) = 66 and C(14, 2) = 91 pairs
        for arrows, estimate in [(10, 66), (12, 182)]:
            with pytest.raises(GuardError, match=f"asymptotic sum estimate {estimate} > limit {estimate - 1}"):
                asymptotic_kac(Quiver(2, ((0, 1),) * arrows), guard=estimate - 1)

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
