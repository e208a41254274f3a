"""Moment-map fiber oracles and the counting identities built on them."""

import random
from fractions import Fraction

import pytest

from kacdepth import (
    LaurentPoly,
    Quiver,
    RatFunc,
    e_series_check,
    is_generic,
    kac_polynomial,
    moment_fiber_count,
    verify_exp_identity,
    verify_generic_fiber,
)
from kacdepth.moment import generic_target

from helpers import (
    brute_fiber_count,
    matrix_fiber_count,
    random_connected_quiver,
    ring_tables,
    scalar_fiber_count,
    zero_target,
)

KRON = Quiver(2, ((0, 1), (0, 1)))
A2 = Quiver(2, ((0, 1),))
LOOP1 = Quiver(1, ((0, 0),))
A2_LOOP = Quiver(2, ((0, 1), (1, 1)))
TRIANGLE = Quiver(3, ((0, 1), (1, 2), (0, 2)))


class TestGenericity:
    def test_examples(self):
        assert is_generic((1, -1), (1, 1))
        assert not is_generic((0, 0), (1, 1))
        assert is_generic((0,), (1,))

    def test_exists_iff_indivisible(self):
        # divisible rank vector: every lambda with lambda.r = 0 kills r/2
        assert not any(
            is_generic((a, b), (2, 2)) for a in range(-6, 7) for b in range(-6, 7)
        )


class TestFiberCounts:
    def test_one_loop_full_space(self):
        for p, alpha in ((2, 1), (2, 2), (3, 1)):
            assert moment_fiber_count(LOOP1, (1,), p, alpha) == p ** (2 * alpha)

    def test_a2_generic_target_hand_count(self):
        target = generic_target(A2, (1, 1), (1, -1), 3, 1)
        assert moment_fiber_count(A2, (1, 1), 3, 1, target=target) == 2

    def test_commuting_pairs_2x2(self):
        # exhaustive scan of all 2^8 pairs of 2x2 matrices over F_2
        assert moment_fiber_count(LOOP1, (2,), 2, 1) == 88

    def test_zero_rank_coordinates_are_trivial(self):
        assert moment_fiber_count(A2, (1, 0), 2, 2) == 1
        assert moment_fiber_count(A2, (0, 0), 3, 1) == 1

    def test_matrix_and_scalar_paths_agree(self):
        # drive the generic matrix path with an artificial rank-2 bound of 1
        # by comparing against the scalar fast path on rank-one vectors
        rng = random.Random(3)
        for _ in range(20):
            q = random_connected_quiver(rng, 2, 2)
            p, alpha = rng.choice(((2, 1), (2, 2), (3, 1))), None
            p, alpha = p
            rank = (1,) * q.nvertices
            ring = ring_tables(p, alpha)
            active = list(range(q.narrows))
            verts = list(range(q.nvertices))
            target = zero_target(rank)
            scalar = scalar_fiber_count(q, rank, ring, target, active, verts)
            matrix = matrix_fiber_count(q, rank, ring, target, active, verts)
            assert scalar == matrix

    def test_matches_brute_force(self, catalog_3v_3a):
        # (quiver, rank, p, alpha, lam): lam None is the zero fiber
        cases = [
            (q, (1,) * q.nvertices, p, alpha, None)
            for q in catalog_3v_3a
            for p, alpha in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3))
        ]
        cases += [(LOOP1, (2,), p, alpha, None) for p, alpha in ((2, 1), (2, 2), (3, 1))]
        for rank in ((1, 2), (2, 1)):
            cases += [(A2, rank, p, alpha, None) for p, alpha in ((2, 1), (3, 1), (2, 2))]
            cases.append((A2_LOOP, rank, 2, 1, None))
        cases += [
            (A2, (1, 1), 13, 1, (1, -1)),
            (A2, (1, 1), 13, 2, (1, -1)),
            (TRIANGLE, (1, 1, 1), 3, 1, (1, 1, -2)),
            (TRIANGLE, (1, 1, 1), 3, 2, (1, 1, -2)),
            (KRON, (1, 1), 3, 2, (1, -1)),
            (KRON, (1, 1), 5, 1, (1, -1)),
            (Quiver(2, KRON.arrows + ((0, 0),)), (1, 1), 3, 1, (1, -1)),
        ]
        for q, rank, p, alpha, lam in cases:
            target = None if lam is None else generic_target(q, rank, lam, p, alpha)
            expected = brute_fiber_count(q, rank, p, alpha, target)
            assert moment_fiber_count(q, rank, p, alpha, target=target) == expected, (
                q, rank, p, alpha, lam
            )

    def test_zero_rank_and_out_of_range_targets(self):
        for q, rank, p, alpha in (
            (A2, (1, 0), 2, 2),
            (A2, (0, 0), 3, 1),
            (A2_LOOP, (0, 2), 2, 1),
            (KRON, (0, 1), 3, 2),
        ):
            assert moment_fiber_count(q, rank, p, alpha) == brute_fiber_count(
                q, rank, p, alpha
            )
        # entries are codes in range(p^alpha); any other integer is no ring element
        for bad in (-1, 9, 10**30):
            target = ((), ((bad,),))
            assert moment_fiber_count(A2, (0, 1), 3, 2, target=target) == 0
            target = (((0,),), ((bad,),))
            assert moment_fiber_count(A2, (1, 1), 3, 2, target=target) == 0
        # 1 + 2t (code 7) is reached with -(1 + 2t) = 2 + t (code 5); a code
        # with the same low digits plus 9 = 3^2 is out of range
        assert moment_fiber_count(A2, (1, 1), 3, 2, target=(((5,),), ((7,),))) == 6
        assert moment_fiber_count(A2, (1, 1), 3, 2, target=(((5,),), ((16,),))) == 0

    def test_arrow_permutation_and_reversal_invariance(self):
        rng = random.Random(21)
        for _ in range(25):
            q = random_connected_quiver(rng, 2, 3)
            p, alpha = rng.choice(((2, 1), (2, 2), (3, 1)))
            rank = (1,) * q.nvertices
            base = moment_fiber_count(q, rank, p, alpha)
            perm = list(range(q.narrows))
            rng.shuffle(perm)
            permuted = Quiver(q.nvertices, tuple(q.arrows[i] for i in perm))
            assert moment_fiber_count(permuted, rank, p, alpha) == base
            if q.narrows:
                a = rng.randrange(q.narrows)
                s, t = q.arrows[a]
                flipped = Quiver(
                    q.nvertices,
                    q.arrows[:a] + ((t, s),) + q.arrows[a + 1 :],
                )
                assert moment_fiber_count(flipped, rank, p, alpha) == base

    def test_guard(self):
        from kacdepth import GuardError

        with pytest.raises(GuardError):
            moment_fiber_count(KRON, (1, 1), 5, 3, guard=100)


class TestKacPolynomialDispatch:
    def test_toric_support_restriction(self):
        assert kac_polynomial(A2, (1, 0), 3) == LaurentPoly.one()
        assert kac_polynomial(A2, (1, 1), 3) == LaurentPoly.term(3)

    def test_one_vertex_rank_two(self):
        assert kac_polynomial(LOOP1, (2,), 1) == LaurentPoly.q()

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="rank out of implemented range"):
            kac_polynomial(KRON, (2, 1), 1)


class TestExpIdentity:
    def test_one_vertex_symbolic_shape(self):
        # both sides of the rank-one coefficient equal q^(g+1)/(q-1) at alpha=1
        for g in (1, 2, 3):
            quiver = Quiver(1, ((0, 0),) * g)
            for p in (2, 3):
                report = verify_exp_identity(quiver, p, 1, (1,))
                row = next(r for r in report["rows"] if r["rank"] == [1])
                expected = RatFunc(LaurentPoly.q(g + 1), LaurentPoly.q() - 1)
                assert Fraction(row["lhs"]) == expected.evaluate(p)
                assert report["equal"]

    def test_two_vertex_example(self):
        report = verify_exp_identity(A2, 2, 2, (1, 1))
        assert report["equal"]

    def test_rank_two_coefficient(self):
        report = verify_exp_identity(LOOP1, 2, 1, (2,))
        assert report["equal"]
        row = next(r for r in report["rows"] if r["rank"] == [2])
        assert row["fiber"] == 88
        assert Fraction(row["lhs"]) == Fraction(44, 3)

    def test_bound_out_of_range(self):
        with pytest.raises(ValueError, match="rank out of implemented range"):
            verify_exp_identity(KRON, 2, 1, (2, 1))


class TestGenericFiber:
    def test_required_configurations(self):
        for quiver, lam, p, alphas in (
            (A2, (1, -1), 3, (1, 2)),
            (KRON, (1, -1), 5, (1,)),
        ):
            for alpha in alphas:
                report = verify_generic_fiber(quiver, lam, p, alpha)
                assert report["equal"], report

    def test_hand_computed_values(self):
        assert verify_generic_fiber(A2, (1, -1), 3, 1)["lhs"] == "1/2"
        assert verify_generic_fiber(KRON, (1, -1), 5, 1)["lhs"] == "15/2"

    def test_two_vertex_family(self, catalog_2v_3a):
        for quiver in catalog_2v_3a:
            if quiver.nvertices != 2 or quiver.narrows > 2:
                continue
            for alpha in (1, 2):
                report = verify_generic_fiber(quiver, (1, -1), 3, alpha)
                assert report["equal"], (quiver, alpha)

    def test_non_generic_rejected(self):
        with pytest.raises(ValueError, match="lambda not generic"):
            verify_generic_fiber(A2, (0, 0), 3, 1)

    def test_characteristic_bound_enforced(self):
        with pytest.raises(ValueError, match="characteristic bound"):
            verify_generic_fiber(A2, (1, -1), 2, 1)


class TestESeries:
    def test_point_modulo_torus(self):
        report = e_series_check(Quiver(1, ()), 1, "zero-fiber", 8)
        assert report["equal"]
        coeffs = {row["exponent"]: row["lhs"] for row in report["rows"]}
        assert all(coeffs[-k] == "1" for k in range(1, 9))

    def test_generic_fiber_single_arrow(self):
        report = e_series_check(A2, 1, "generic-fiber", 10)
        assert report["equal"]

    def test_zero_fiber_partition_sum(self):
        report = e_series_check(KRON, 2, "zero-fiber", 10)
        assert report["equal"]

    def test_order_validation(self):
        with pytest.raises(ValueError):
            e_series_check(KRON, 1, "zero-fiber", 0)
        with pytest.raises(ValueError):
            e_series_check(KRON, 1, "sideways", 3)
