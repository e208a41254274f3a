"""Truncated power series: arithmetic, exp and log."""

import random
from fractions import Fraction

import pytest

from kacdepth import LaurentPoly, RatFunc, TSeries, pleth_exp, pleth_log

from helpers import random_series
from oracles import series_exp_oracle, series_log_oracle

Q = LaurentPoly.q()


def one(bound):
    return TSeries(bound, {(0,) * len(bound): 1})


class TestBasics:
    def test_truncation_drops_terms(self):
        s = TSeries((2,), {(1,): 1})
        assert (s * s * s).is_zero()

    def test_mixed_bounds_rejected(self):
        a = TSeries((2,), {(1,): 1})
        b = TSeries((3,), {(1,): 1})
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_mul_componentwise_bound(self):
        s = TSeries((1, 2), {(1, 0): 1, (0, 1): 1})
        sq = s * s
        assert sq.coefficient((1, 1)) == RatFunc(2)
        assert sq.coefficient((0, 2)) == RatFunc.one()
        assert sq.coefficient((2, 0)).is_zero()

    def test_variable_count_is_bound_length(self):
        with pytest.raises(ValueError, match="bad exponent vector"):
            TSeries((1, 1), {(1,): 1})
        assert TSeries((1, 1), {(1, 0): 1, (2, 0): 1}) == TSeries((1, 1), {(1, 0): 1})

    def test_power_by_squaring(self):
        s = TSeries((3, 1), {(1, 0): RatFunc(Q), (0, 1): 1})
        assert s**0 == one((3, 1))
        assert s**3 == s * s * s


class TestExpLog:
    def test_exp_zero(self):
        assert TSeries((3,)).exp() == one((3,))

    def test_exp_of_t(self):
        s = TSeries((3,), {(1,): 1})
        e = s.exp()
        assert e.coefficient((0,)) == RatFunc.one()
        assert e.coefficient((1,)) == RatFunc.one()
        assert e.coefficient((2,)) == RatFunc(Fraction(1, 2))
        assert e.coefficient((3,)) == RatFunc(Fraction(1, 6))

    def test_exp_of_qt(self):
        s = TSeries((2,), {(1,): RatFunc(Q)})
        e = s.exp()
        assert e.coefficient((1,)) == RatFunc(Q)
        assert e.coefficient((2,)) == RatFunc(Q**2) * Fraction(1, 2)

    def test_exp_requires_zero_constant(self):
        s = TSeries((2,), {(0,): 1})
        with pytest.raises(ValueError, match="augmentation-ideal"):
            s.exp()

    def test_log_of_one(self):
        assert one((3,)).log().is_zero()

    def test_log_geometric(self):
        s = TSeries((3,), {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
        lg = s.log()
        assert lg.coefficient((1,)) == RatFunc.one()
        assert lg.coefficient((2,)) == RatFunc(Fraction(1, 2))
        assert lg.coefficient((3,)) == RatFunc(Fraction(1, 3))

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError, match="unit constant term"):
            TSeries((2,)).log()

    def test_round_trip_example(self):
        s = TSeries((3,), {(1,): RatFunc(Q), (2,): 1})
        assert s.exp().log() == s

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(150):
            s = random_series(rng, (2, 2))
            assert s.exp().log() == s
            assert (s.exp()).log().exp() == s.exp()

    def test_exp_additive_to_multiplicative(self):
        rng = random.Random(17)
        for _ in range(100):
            a = random_series(rng, (2, 2))
            b = random_series(rng, (2, 2))
            assert (a + b).exp() == a.exp() * b.exp()


@pytest.mark.parametrize("bound", [(2, 2), (3,), (1, 1, 1), (2, 1)])
def test_euler_recurrence_matches_power_series_oracle(bound):
    # some coefficients have denominators, so the divisions of the
    # recurrence meet rational functions that are not Laurent polynomials
    rng = random.Random(sum(bound) * 31 + len(bound))
    fractional = 0
    for _ in range(25):
        s = random_series(rng, bound, max_terms=4)
        fractional += any(not c.is_polynomial() for _, c in s.items())
        h = s.exp()
        assert h == series_exp_oracle(s)
        assert h.log() == series_log_oracle(h) == s
        assert pleth_log(pleth_exp(s)) == s
    assert fractional >= 5
