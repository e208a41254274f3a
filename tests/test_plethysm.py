"""Lambda-ring layer: Adams operators, plethystic Exp and Log."""

import random
from fractions import Fraction

import pytest

from kacdepth import LaurentPoly, RatFunc, TSeries, adams, pleth_exp, pleth_log
from kacdepth.plethysm import mobius

from helpers import burnside_matrix_orbits, fit_polynomial, random_series
from oracles import series_exp_oracle

Q = LaurentPoly.q()


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


class TestAdams:
    def test_scaling_example(self):
        s = TSeries((2,), {(1,): RatFunc(Q)})
        assert adams(s, 2) == TSeries((2,), {(2,): RatFunc(Q**2)})

    def test_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            s = random_series(rng, (2, 2))
            assert adams(s, 1) == s

    def test_composition(self):
        rng = random.Random(4)
        for _ in range(60):
            s = random_series(rng, (6,))
            assert adams(adams(s, 2), 3) == adams(s, 6)

    def test_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(60):
            a = random_series(rng, (2, 2))
            b = random_series(rng, (2, 2))
            m = rng.randint(1, 3)
            assert adams(a * b, m) == adams(a, m) * adams(b, m)
            assert adams(a + b, m) == adams(a, m) + adams(b, m)

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="invalid Adams index"):
            adams(TSeries((1,)), 0)


class TestPlethExp:
    def test_exp_of_t_is_geometric(self):
        s = TSeries((5,), {(1,): 1})
        e = pleth_exp(s)
        for n in range(6):
            assert e.coefficient((n,)) == RatFunc.one()

    def test_exp_of_qt_geometric_in_q(self):
        # oracle: expand exp(sum_m q^m t^m / m) directly
        bound = (4,)
        arg = TSeries(bound, {(m,): LaurentPoly({m: Fraction(1, m)}) for m in range(1, 5)})
        oracle = series_exp_oracle(arg)
        e = pleth_exp(TSeries(bound, {(1,): RatFunc(Q)}))
        assert e == oracle
        for n in range(5):
            assert e.coefficient((n,)) == RatFunc(LaurentPoly({n: 1}))

    def test_two_variable_cross_term(self):
        a1 = RatFunc(Q)
        a2 = RatFunc(Q**2, Q - 1)
        s = TSeries((1, 1), {(1, 0): a1, (0, 1): a2})
        e = pleth_exp(s)
        assert e.coefficient((1, 1)) == a1 * a2

    def test_requires_augmentation_ideal(self):
        with pytest.raises(ValueError):
            pleth_exp(TSeries((2,), {(0,): 1}))

    def test_multiplicativity(self):
        rng = random.Random(6)
        for _ in range(60):
            a = random_series(rng, (2, 2))
            b = random_series(rng, (2, 2))
            assert pleth_exp(a + b) == pleth_exp(a) * pleth_exp(b)

    def test_adams_commutes_with_exp(self):
        rng = random.Random(8)
        for _ in range(60):
            a = random_series(rng, (6,))
            m = rng.randint(1, 3)
            assert adams(pleth_exp(a), m) == pleth_exp(adams(a, m))


class TestPlethLog:
    def test_log_of_geometric(self):
        s = TSeries((5,), {(n,): 1 for n in range(6)})
        assert pleth_log(s) == TSeries((5,), {(1,): 1})

    def test_round_trip_example(self):
        s = TSeries((2,), {(1,): RatFunc(Q), (2,): RatFunc(Q**3)})
        assert pleth_log(pleth_exp(s)) == s

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(100):
            s = random_series(rng, (2, 2))
            assert pleth_log(pleth_exp(s)) == s
            one = TSeries((2, 2), {(0, 0): 1})
            assert pleth_exp(pleth_log(one + s)) == one + s

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            pleth_log(TSeries((2,)))

    def test_brute_force_orbit_series_inverts_to_loop_count(self):
        # one vertex, one loop, depth 1: fit the isomorphism-class counts
        # from exhaustive orbit counts over three primes, then invert
        points1 = [(p, burnside_matrix_orbits(1, 1, p)) for p in (2, 3)]
        m1 = fit_polynomial(points1)
        assert m1 == Q
        points2 = [(p, burnside_matrix_orbits(1, 2, p)) for p in (2, 3, 5)]
        m2 = fit_polynomial(points2)
        assert m2 == Q**2 + Q
        series = TSeries((2,), {(0,): 1, (1,): RatFunc(m1), (2,): RatFunc(m2)})
        a = pleth_log(series)
        assert a.coefficient((1,)) == RatFunc(Q)
        assert a.coefficient((2,)) == RatFunc(Q)
