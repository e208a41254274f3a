"""Moment-map fiber oracles and the counting identities built on them."""

import random
from fractions import Fraction
from itertools import product

import pytest

from kacdepth import (
    GuardError,
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
from kacdepth import moment, plethysm, toric
from kacdepth.moment import _connected_blocks

from helpers import (
    brute_fiber_count,
    lam_target,
    matrix_fiber_count,
    random_connected_quiver,
    ring_tables,
    scalar_fiber_count,
    zero_target,
)
from oracles import (
    _set_partitions,
    e_series_partition_oracle,
    moment_fiber_count_per_point_oracle,
    quiver_catalog,
)

KRON = Quiver(2, ((0, 1), (0, 1)))
A2 = Quiver(2, ((0, 1),))
LOOP1 = Quiver(1, ((0, 0),))
LOOP2 = Quiver(1, ((0, 0), (0, 0)))
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
        assert moment_fiber_count(A2, (1, 1), 3, 1, lam=(1, -1)) == 2

    def test_commuting_pairs_2x2(self):
        # exhaustive scan of all 2^8 pairs of 2x2 matrices over F_2
        assert moment_fiber_count(LOOP1, (2,), 2, 1) == 88

    def test_refusals_come_before_any_system(self, monkeypatch):
        # the checks oracle moment-fiber runs for every prime first
        monkeypatch.setattr(moment, "_reduce", lambda *args: pytest.fail("the count began"))
        with pytest.raises(GuardError, match="fiber enumeration estimate >= 1000003\\^"):
            moment_fiber_count(A2, (1, 1), 1000003, 2)
        with pytest.raises(ValueError, match="4 is not prime"):
            moment_fiber_count(A2, (1, 1), 4, 2)

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
            target = None if lam is None else lam_target(rank, lam, p, alpha)
            expected = brute_fiber_count(q, rank, p, alpha, target)
            assert moment_fiber_count(q, rank, p, alpha, lam=lam) == expected, (
                q, rank, p, alpha, lam
            )

    def test_matches_per_point_oracle_on_rank_one_catalog(self):
        # every rank vector in {0, 1}^n, the zero fiber and a lam target with
        # lam . r = 0, wherever the oracle solves at most 3^6 points x
        cases = 0
        for q in quiver_catalog(3, 4):
            for rank in product((0, 1), repeat=q.nvertices):
                support = [i for i in range(q.nvertices) if rank[i]]
                lam = [1 if i in support else 5 for i in range(q.nvertices)]
                if support:
                    lam[support[-1]] = 1 - len(support)
                h = sum(rank[s] * rank[t] for s, t in q.arrows)
                for p, alpha in product((2, 3, 5), (1, 2, 3)):
                    if p ** (alpha * h) > 729:
                        continue
                    for target in (None, lam):
                        expected = moment_fiber_count_per_point_oracle(q, rank, p, alpha, lam=target)
                        got = moment_fiber_count(q, rank, p, alpha, lam=target)
                        assert got == expected, (q, rank, p, alpha, target)
                        cases += 1
        assert cases > 1000

    @pytest.mark.parametrize(
        "quiver, rank, lam, cases",
        [
            # one and two loops at rank 2: the last diagonal entry is fixed
            (LOOP1, (2,), (1,), ((2, 1), (2, 2), (3, 1), (3, 2))),
            (LOOP2, (2,), (1,), ((2, 1), (3, 1))),
            (A2, (1, 2), (-2, 1), ((2, 1), (2, 2), (3, 1), (5, 1))),
            (A2, (2, 1), (1, -2), ((2, 1), (2, 2), (3, 1), (5, 1))),
            (A2_LOOP, (1, 2), (-2, 1), ((2, 1), (2, 2), (3, 1))),
            (A2_LOOP, (2, 1), (1, -2), ((2, 1), (2, 2), (3, 1))),
            # arrows between the rank-one vertices take the rank-one choices,
            # the arrow and the loop at the rank-two vertex run free
            (Quiver(3, ((0, 1), (1, 2), (2, 1), (2, 2))), (2, 1, 1), (1, -1, -1), ((2, 1), (3, 1))),
            (Quiver(3, ((1, 0), (1, 2), (0, 0))), (1, 2, 1), (1, -1, 1), ((2, 1), (2, 2), (3, 1))),
        ],
    )
    def test_matches_per_point_oracle_at_rank_two(self, quiver, rank, lam, cases):
        # a lam target with lam . r = 0, and the zero fiber
        for p, alpha in cases:
            for target in (None, lam):
                expected = moment_fiber_count_per_point_oracle(quiver, rank, p, alpha, lam=target)
                got = moment_fiber_count(quiver, rank, p, alpha, lam=target)
                assert got == expected, (p, alpha, target)

    def test_zero_rank_vertices(self):
        for q, rank, p, alpha in (
            (A2, (1, 0), 2, 2),
            (A2, (0, 0), 3, 1),
            (A2_LOOP, (0, 2), 2, 1),
            (KRON, (0, 1), 3, 2),
        ):
            assert moment_fiber_count(q, rank, p, alpha) == brute_fiber_count(
                q, rank, p, alpha
            )

    @pytest.mark.parametrize(
        "rank, lam, message",
        [
            ((1,), None, "rank has 1 entries; expected 2, one per vertex"),
            ((1, 1, 1), None, "rank has 3 entries; expected 2, one per vertex"),
            ((1, 1), (1,), "lam has 1 entries; expected 2, one per vertex"),
            ((1, -1), None, "bad rank vector"),
        ],
    )
    def test_bad_lengths_and_ranks(self, rank, lam, message):
        with pytest.raises(ValueError, match=message):
            moment_fiber_count(A2, rank, 3, 1, lam=lam)

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
                (report,) = verify_exp_identity(quiver, [p], 1, (1,))
                row = next(r for r in report["rows"] if r["rank"] == [1])
                expected = RatFunc(LaurentPoly.q(g + 1), LaurentPoly.q() - 1)
                assert Fraction(row["lhs"]) == expected.evaluate(p)
                assert report["equal"]

    def test_two_vertex_example(self):
        (report,) = verify_exp_identity(A2, [2], 2, (1, 1))
        assert report["equal"]

    def test_rank_two_coefficient(self):
        (report,) = verify_exp_identity(LOOP1, [2], 1, (2,))
        assert report["equal"]
        row = next(r for r in report["rows"] if r["rank"] == [2])
        assert row["fiber"] == 88
        assert Fraction(row["lhs"]) == Fraction(44, 3)

    def test_bound_out_of_range(self):
        with pytest.raises(ValueError, match="rank out of implemented range"):
            verify_exp_identity(KRON, [2], 1, (2, 1))

    def test_two_primes_build_the_a_series_and_its_exp_once(self, monkeypatch):
        exps, ranks = [], []
        pleth_exp, kac = plethysm.pleth_exp, moment.kac_polynomial
        monkeypatch.setattr(plethysm, "pleth_exp", lambda *args: exps.append(1) or pleth_exp(*args))
        monkeypatch.setattr(moment, "kac_polynomial", lambda q, r, *args: ranks.append(r) or kac(q, r, *args))
        reports = verify_exp_identity(TRIANGLE, [2, 3], 1, (1, 1, 1))
        assert len(exps) == 1
        assert sorted(ranks) == sorted(set(ranks)) == sorted(product((0, 1), repeat=3))[1:]
        assert reports == [verify_exp_identity(TRIANGLE, [p], 1, (1, 1, 1))[0] for p in (2, 3)]

    def test_twelve_points_pass_every_guard(self, monkeypatch):
        # the Exp walk of 12 points is 4096 * 4095 <= 2^24 (13 points are
        # refused), so the call reaches its first A-polynomial
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(moment, "kac_polynomial", reached)
        with pytest.raises(Reached):
            verify_exp_identity(Quiver(12, ()), [2], 1, (1,) * 12)


class TestGenericFiber:
    def test_required_configurations(self):
        for quiver, lam, p, alphas in (
            (A2, (1, -1), 3, (1, 2)),
            (KRON, (1, -1), 5, (1,)),
        ):
            for alpha in alphas:
                (report,) = verify_generic_fiber(quiver, lam, [p], alpha)
                assert report["equal"], report

    def test_hand_computed_values(self):
        assert verify_generic_fiber(A2, (1, -1), [3], 1)[0]["lhs"] == "1/2"
        assert verify_generic_fiber(KRON, (1, -1), [5], 1)[0]["lhs"] == "15/2"

    def test_two_vertex_family(self, catalog_2v_3a):
        for quiver in catalog_2v_3a:
            if quiver.nvertices != 2 or quiver.narrows > 2:
                continue
            for alpha in (1, 2):
                (report,) = verify_generic_fiber(quiver, (1, -1), [3], alpha)
                assert report["equal"], (quiver, alpha)

    def test_reach_a2_at_p101(self, monkeypatch):
        # x runs over t^0, t^1 and 0, not over the 101^2 points of O: three
        # systems of two columns, one reduction per column and one of the target
        reductions = []
        real = moment._reduce
        monkeypatch.setattr(moment, "_reduce", lambda *args: reductions.append(1) or real(*args))
        (report,) = verify_generic_fiber(A2, (1, -1), [101], 2)
        assert report["equal"] and report["fiber"] == 2 * 100 * 101
        assert len(reductions) == 9

    def test_non_generic_rejected(self):
        with pytest.raises(ValueError, match="lambda not generic"):
            verify_generic_fiber(A2, (0, 0), [3], 1)

    def test_characteristic_bound_enforced(self):
        with pytest.raises(ValueError, match="characteristic bound"):
            verify_generic_fiber(A2, (1, -1), [2], 1)

    def test_two_primes_run_one_chain_sum(self, monkeypatch):
        chains = []
        chain = toric.toric_kac_chain
        monkeypatch.setattr(toric, "toric_kac_chain", lambda *args: chains.append(1) or chain(*args))
        reports = verify_generic_fiber(A2, (1, -1), [3, 5], 2)
        assert len(chains) == 1
        assert reports == [verify_generic_fiber(A2, (1, -1), [p], 2)[0] for p in (3, 5)]

    def test_a_later_prime_is_refused_before_any_count(self, monkeypatch):
        def counted(*args, **kwargs):
            pytest.fail("a fiber was counted")

        monkeypatch.setattr(moment, "moment_fiber_count", counted)
        with pytest.raises(ValueError, match="characteristic bound"):
            verify_generic_fiber(A2, (1, -1), [3, 2], 1)
        with pytest.raises(ValueError, match="4 is not prime"):
            verify_generic_fiber(A2, (1, -1), [3, 4], 1)
        with pytest.raises(ValueError, match="4 is not prime"):
            verify_exp_identity(A2, [3, 4], 1, (1, 1))


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

    def test_subset_dp_equals_partition_oracle_on_catalog(self):
        # the full report: rows, truncation floor and verdict alike
        for q in quiver_catalog(4, 5, connected=False):
            for alpha in (1, 2):
                for mode in ("zero-fiber", "generic-fiber"):
                    expected = e_series_partition_oracle(q, alpha, mode, 10)
                    assert e_series_check(q, alpha, mode, 10) == expected, (q, alpha, mode)

    @pytest.mark.parametrize("mode", ["zero-fiber", "generic-fiber"])
    def test_subset_dp_equals_partition_oracle_on_cycle_with_chord(self, mode):
        quiver = Quiver(7, tuple((i, (i + 1) % 7) for i in range(7)) + ((0, 3),))
        report = e_series_check(quiver, 2, mode, 10)
        assert report == e_series_partition_oracle(quiver, 2, mode, 10)
        assert report["equal"]

    def test_connected_blocks_match_restrict_loop(self):
        # the loop _connected_blocks replaced: one restricted quiver and one
        # union-find per vertex subset, the empty subset included
        for q in [*quiver_catalog(4, 5, connected=False), Quiver(0, ())]:
            masks = range(1 << q.nvertices)
            expected = {}
            for b in masks:
                restricted = q.restrict_vertices(v for v in range(q.nvertices) if b >> v & 1)
                if restricted.is_connected():
                    expected[b] = restricted
            blocks = _connected_blocks(q, masks)
            assert blocks == expected and list(blocks) == list(expected), q

    def test_partition_sum_estimate_is_exact_and_before_any_chain_sum(self, monkeypatch):
        # the estimate is (pairs (S, B) walked, A_B != 0) * floor^2, the floor
        # set by the largest degree of a set partition with every A_B != 0
        events = []
        real_check, real_chain = moment.check_work, toric.toric_kac_chain

        def check_work(label, work, guard):
            events.append((label, work))
            real_check(label, work, guard)

        def chain(quiver, alpha, guard):
            events.append(("chain sum run", None))
            return real_chain(quiver, alpha, guard)

        monkeypatch.setattr(moment, "check_work", check_work)
        monkeypatch.setattr(toric, "toric_kac_chain", chain)
        for q in quiver_catalog(4, 5, connected=False):
            n, full = q.nvertices, (1 << q.nvertices) - 1
            for alpha in (1, 2, 3):
                a = {
                    b: real_chain(q.restrict_vertices(v for v in range(n) if b >> v & 1), alpha)
                    for b in range(1, full + 1)
                }
                shift = -alpha * q.euler_form((1,) * n, (1,) * n)
                for mode in ("zero-fiber", "generic-fiber"):
                    if mode == "zero-fiber":
                        pairs = sum(
                            1 for s in range(1, full + 1) for b in range(1, s + 1)
                            if b & s == b and b & s & -s and not a[b].is_zero()
                        )
                        parts = [
                            [sum(1 << v for v in block) for block in part]
                            for part in _set_partitions(list(range(n)))
                        ]
                    else:
                        pairs, parts = int(not a[full].is_zero()), [[full]]
                    degree = max(
                        (sum(a[b].max_exp() for b in part) for part in parts
                         if not any(a[b].is_zero() for b in part)),
                        default=0,
                    )
                    floor = -10 - degree - abs(shift) - n - 2
                    events.clear()
                    e_series_check(q, alpha, mode, 10)
                    labels = [label for label, _ in events]
                    assert labels.count("partition sum") == 1, (q, alpha, mode)
                    i = labels.index("partition sum")
                    assert events[i][1] == pairs * floor * floor, (q, alpha, mode)
                    assert "chain sum run" not in labels[:i], (q, alpha, mode)
        # K4 at depth 3: 40 pairs times 31^2, refused before any of its 15 chain sums
        k4 = Quiver(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        events.clear()
        with pytest.raises(GuardError, match="partition sum estimate 38440 > limit 20000"):
            e_series_check(k4, 3, "zero-fiber", 10, 20000)
        assert ("chain sum run", None) not in events

    @pytest.mark.parametrize("mode", ["zero-fiber", "generic-fiber"])
    def test_no_vertices(self, mode):
        report = e_series_check(Quiver(0, ()), 2, mode, 5)
        assert report == e_series_partition_oracle(Quiver(0, ()), 2, mode, 5)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            e_series_check(KRON, 1, "zero-fiber", 0)
        with pytest.raises(ValueError):
            e_series_check(KRON, 1, "sideways", 3)
