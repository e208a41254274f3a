"""Exact Laurent polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kacdepth import LaurentPoly, RatFunc
from kacdepth import laurent
from kacdepth.laurent import poly_divmod, poly_gcd

from helpers import (
    euclid_divmod,
    euclid_gcd,
    euclid_normal_form,
    random_laurent,
    random_nonzero_laurent,
    random_ratfunc,
)
from oracles import series_at_infinity_oracle

Q = LaurentPoly.q()


def st_fraction():
    return st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )


def laurents_st(max_terms=4):
    return st.dictionaries(
        st.integers(min_value=-3, max_value=4), st_fraction(), max_size=max_terms
    ).map(LaurentPoly)


def integral_laurents_st(max_terms=4):
    return st.dictionaries(
        st.integers(min_value=-3, max_value=4),
        st.integers(min_value=-6, max_value=6),
        max_size=max_terms,
    ).map(LaurentPoly)


def factors_st():
    """Rational or integral coefficients, any leading coefficient, negative exponents."""
    return st.one_of(laurents_st(), integral_laurents_st())


def nonzero_factors_st():
    scalars = st.sampled_from([2, 3, 6, -6, Fraction(2, 3)]).map(LaurentPoly.term)
    return st.one_of(scalars, factors_st().filter(bool))


def ordinary(poly):
    return poly if poly.is_zero() else poly.shift(-poly.min_exp())


def stored_coefficients(poly):
    return [c for _, c in poly.items()]


class TestLaurentPoly:
    def test_zero_is_empty(self):
        assert LaurentPoly({0: 0, 2: 0}).is_zero()
        assert LaurentPoly.zero() == LaurentPoly({})

    def test_canonical_no_zero_coefficients(self):
        poly = LaurentPoly({2: 1}) - LaurentPoly({2: 1})
        assert poly.is_zero()
        assert len(poly) == 0

    def test_str(self):
        assert str(Q**2 + 2 * Q + 1) == "q^2+2q+1"
        assert str(LaurentPoly({-1: 1, 0: 1})) == "1+q^-1"
        assert str(LaurentPoly.zero()) == "0"

    def test_pow_and_shift(self):
        assert (Q + 1) ** 2 == Q**2 + 2 * Q + 1
        assert (Q + 1).shift(-1) == LaurentPoly({0: 1, -1: 1})

    def test_evaluate(self):
        assert (Q**2 - 1).evaluate(3) == 8
        assert LaurentPoly({-1: 1}).evaluate(Fraction(1, 2)) == 2

    def test_triples_roundtrippable(self):
        poly = LaurentPoly({-1: Fraction(1, 2), 3: -2})
        assert poly.to_triples() == [[-1, "1", "2"], [3, "-2", "1"]]

    @given(laurents_st(), laurents_st(), laurents_st())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a
        assert a + b == b + a
        assert a * b == b * a

    @given(laurents_st(), laurents_st())
    def test_evaluation_commutes_with_arithmetic(self, a, b):
        x = Fraction(3, 2)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


class TestRatFuncNormalize:
    def test_factor_cancellation(self):
        assert RatFunc(Q**2 - 1, Q - 1) == RatFunc(Q + 1)

    def test_identity_case(self):
        assert RatFunc(Q, Q) == RatFunc.one()

    def test_scalar_denominator_cross_multiplication(self):
        num = (Q + 1) * (Q - 1) ** 2
        den = 2 * (Q - 1)
        r = RatFunc(num, den)
        # independent check: cross-multiplication against the raw pair
        assert r.num * den == num * r.den
        assert r.den == LaurentPoly.one()
        assert r.num == (Q**2 - 1) * Fraction(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            RatFunc(Q, LaurentPoly.zero())

    def test_denominator_monic_with_constant_term(self):
        r = RatFunc(LaurentPoly.one(), 2 * Q - 2)
        assert r.den.coeff(r.den.max_exp()) == 1
        assert r.den.min_exp() == 0

    def test_negative_exponents_go_to_numerator(self):
        r = RatFunc(LaurentPoly.one(), Q**2)
        assert r.den == LaurentPoly.one()
        assert r.num == LaurentPoly({-2: 1})

    def test_normalize_idempotent_and_equality_respecting(self):
        rng = random.Random(2024)
        for _ in range(300):
            a, b = random_laurent(rng), random_nonzero_laurent(rng)
            r = RatFunc(a, b)
            again = RatFunc(r.num, r.den)
            assert again.num == r.num and again.den == r.den
            # a/b == c/d (cross multiplication) implies identical forms
            scale = LaurentPoly({rng.randint(-2, 2): Fraction(3, 2)})
            assert RatFunc(a * scale, b * scale) == r


class TestRatFuncArithmetic:
    def test_substitute_power_examples(self):
        assert RatFunc(Q + 1).substitute_power(2) == RatFunc(Q**2 + 1)
        one_minus_qinv = RatFunc(LaurentPoly({0: 1, -1: -1}))
        sub = (RatFunc.one() / one_minus_qinv).substitute_power(2)
        assert sub == RatFunc.one() / RatFunc(LaurentPoly({0: 1, -2: -1}))
        assert RatFunc(Q + 1, Q - 1).substitute_power(3) == RatFunc(Q**3 + 1, Q**3 - 1)

    def test_substitute_power_invalid_index(self):
        with pytest.raises(ValueError, match="invalid Adams index"):
            RatFunc(Q).substitute_power(0)

    def test_substitution_is_homomorphism(self):
        rng = random.Random(7)
        for _ in range(200):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            m = rng.randint(1, 4)
            assert (f * g).substitute_power(m) == f.substitute_power(m) * g.substitute_power(m)
            assert (f + g).substitute_power(m) == f.substitute_power(m) + g.substitute_power(m)
            n = rng.randint(1, 3)
            assert f.substitute_power(m).substitute_power(n) == f.substitute_power(m * n)

    def test_field_axioms_random(self):
        rng = random.Random(99)
        for _ in range(200):
            a, b, c = (random_ratfunc(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if not b.is_zero():
                assert a / b * b == a

    def test_evaluate(self):
        r = RatFunc(Q + 1, Q - 1)
        assert r.evaluate(3) == 2
        with pytest.raises(ZeroDivisionError):
            r.evaluate(1)

    def test_series_at_infinity_geometric(self):
        # 1/(q-1) = q^-1 + q^-2 + ...
        r = RatFunc(LaurentPoly.one(), Q - 1)
        series = r.series_at_infinity(-4)
        assert series == {-1: 1, -2: 1, -3: 1, -4: 1}

    def test_series_at_infinity_consistent_with_polynomials(self):
        rng = random.Random(11)
        for _ in range(100):
            num = random_laurent(rng)
            den = random_nonzero_laurent(rng)
            r = RatFunc(num, den)
            series = r.series_at_infinity(-6)
            # multiply the truncated expansion back by den: must match num
            # above the truncation noise floor
            prod = LaurentPoly(series) * r.den
            diff = prod - r.num
            assert diff.is_zero() or diff.max_exp() < -6 + r.den.max_exp()

    def test_series_at_infinity_matches_inverse_series_oracle(self):
        # the long division against the inverse-series expansion, at floors
        # below, inside and above the numerator's exponents
        rng = random.Random(23)
        negative = 0
        for _ in range(300):
            r = random_ratfunc(rng)
            negative += bool(r.num) and r.num.min_exp() < 0
            for min_exp in range(-30, 13):
                assert r.series_at_infinity(min_exp) == series_at_infinity_oracle(r, min_exp), (r, min_exp)
        assert negative > 50


class TestFractionFreeGcd:
    """The integer-first routes against the sparse Euclid-over-Q oracle."""

    @given(factors_st(), nonzero_factors_st(), nonzero_factors_st())
    def test_normal_form_matches_euclid_oracle(self, f, g, h):
        r = RatFunc(f * h, g * h)
        num, den = euclid_normal_form(f * h, g * h)
        assert (r.num, r.den) == (num, den)
        assert str(r) == str(RatFunc(f, g))

    @given(factors_st(), factors_st(), nonzero_factors_st())
    def test_poly_gcd_matches_euclid_oracle(self, f, g, h):
        a, b = ordinary(f * h), ordinary(g)
        assert poly_gcd(a, b) == euclid_gcd(a, b)
        b = ordinary(g * h)
        assert poly_gcd(a, b) == euclid_gcd(a, b)

    @given(factors_st(), nonzero_factors_st())
    def test_poly_divmod_matches_euclid_oracle(self, f, g):
        a, b = ordinary(f), ordinary(g)
        assert poly_divmod(a, b) == euclid_divmod(a, b)

    @given(
        factors_st(),
        st.sampled_from([1, -1, 2, -3, 6, Fraction(2, 3)]),
        st.integers(min_value=-3, max_value=3),
        nonzero_factors_st(),
    )
    def test_monomial_denominator_matches_the_gcd_route(self, f, c, k, h):
        # a monomial denominator takes no gcd; the gcd route reaches the same
        # normal form from the fraction times (q + 2) h over itself
        den = LaurentPoly.term(c, k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(laurent, "poly_gcd", lambda *args: pytest.fail("a gcd was taken"))
            r = RatFunc(f, den)
        assert (r.num, r.den) == euclid_normal_form(f, den)
        h = h * (Q + 2)
        gcd_route = RatFunc(f * h, den * h)
        assert (r.num, r.den) == (gcd_route.num, gcd_route.den)

    def test_gcd_of_zeros(self):
        assert poly_gcd(LaurentPoly.zero(), LaurentPoly.zero()).is_zero()
        assert poly_gcd(LaurentPoly.zero(), 2 * Q + 1) == Q + Fraction(1, 2)

    def test_laurent_input_rejected(self):
        with pytest.raises(ValueError, match="not an ordinary polynomial"):
            poly_gcd(LaurentPoly({-1: 1}), Q)


class TestIntegerCoefficients:
    """Integral values are stored as int; output formats are unaffected."""

    @given(
        integral_laurents_st(),
        integral_laurents_st(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-3, max_value=3),
    )
    def test_ring_operations_keep_int(self, a, b, n, k):
        for poly in (a + b, a - b, a * b, a**n, a.shift(k), -a, 3 - a, Fraction(4, 2) * a):
            assert all(type(c) is int for c in stored_coefficients(poly))
            assert poly.to_triples() == [[e, str(c), "1"] for e, c in poly.items()]

    @given(
        integral_laurents_st(),
        st.lists(st.integers(min_value=1, max_value=4), max_size=3),
        integral_laurents_st().filter(bool),
    )
    def test_normalisation_keeps_int(self, f, cyclotomic, h):
        # the reduced denominator is monic, so an integral quotient stays int
        # even when the monic gcd has Fraction coefficients (h = 2q + 1, say)
        den = LaurentPoly.one()
        for c in cyclotomic:
            den = den * (LaurentPoly({c: 1, 0: -1}))
        r = RatFunc(f * h, den * h)
        for poly in (r.num, r.den):
            assert all(type(c) is int for c in stored_coefficients(poly))

    def test_formats(self):
        cube = (Q - 1) ** 3
        assert str(cube) == "q^3-3q^2+3q-1"
        assert cube.to_triples() == [[0, "-1", "1"], [1, "3", "1"], [2, "-3", "1"], [3, "1", "1"]]
        mixed = LaurentPoly({1: Fraction(4, 2), 0: Fraction(1, 2)})
        assert type(mixed.coeff(1)) is int and type(mixed.coeff(0)) is Fraction
        assert str(mixed) == "2q+(1/2)"
        assert mixed.to_triples() == [[0, "1", "2"], [1, "2", "1"]]
        assert (mixed * 2).to_triples() == [[0, "1", "1"], [1, "4", "1"]]
        assert LaurentPoly.zero().coeff(5) == 0 and type(LaurentPoly.zero().coeff(5)) is int

    def test_repr_shows_int(self):
        assert repr(LaurentPoly({0: Fraction(1, 1)})) == "LaurentPoly({0: 1})"
        r = RatFunc((2 * Q + 1) * (Q + 1), (2 * Q + 1) * (Q - 1))
        assert repr(r) == "RatFunc(LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: -1, 1: 1}))"
        assert str(r) == "(q+1)/(q-1)"


class TestCycloPacking:
    """Sums over one fixed product D of (q^c - 1), carried as integers at q = 2^W."""

    def test_distinct_sizes_give_the_exponents_of_d(self):
        # exponent 1 on sets of sizes 1 and 2, exponent 2 on size 2 only
        pack = laurent.CycloPacking([(1, 1), (1, 2), (1, 2), (2, 2)], 3)
        assert pack.mu == {1: 2, 2: 1}
        assert pack.width == 2 + 3 + 1
        assert pack.den == (2**6 - 1) ** 2 * (2**12 - 1)
        assert pack.ratfunc(pack.den) == RatFunc.one()

    def test_random_numerators_round_trip(self):
        rng = random.Random(29)
        for _ in range(200):
            pairs = [(rng.randint(1, 4), rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
            pack = laurent.CycloPacking(pairs, rng.randint(1, 50))
            den = LaurentPoly.one()
            for c, k in pack.mu.items():
                den = den * (Q**c - 1) ** k
            assert pack._unpack(pack.den) == den
            # balanced digits reach +-(2^(W-1) - 1) in every position up to deg D
            top = (1 << pack.width - 1) - 1
            num = LaurentPoly({e: rng.choice([top, -top, 0, rng.randint(-top, top)]) for e in range(den.max_exp() + 1)})
            value = num.evaluate(1 << pack.width)
            assert pack._unpack(value) == num
            assert pack.ratfunc(value, LaurentPoly.q(-1)) == RatFunc(num.shift(-1), den)
            for c in pack.mu:
                quo = pack.divide(value * ((1 << pack.width * c) - 1), c)
                assert pack._unpack(quo) == num

    def test_inexact_division_and_overflow_raise(self):
        pack = laurent.CycloPacking([(1, 1), (2, 1)], 1)
        assert pack._unpack(pack.divide(pack.den, 1, 2)) == LaurentPoly.one()
        with pytest.raises(ArithmeticError, match="inexact division"):
            pack.divide(pack.den + 1, 2)
        with pytest.raises(ArithmeticError, match="inexact division"):
            pack.divide(pack.den, 3)
        past = 1 << pack.width * 4  # deg D = 3: four digits
        with pytest.raises(ArithmeticError, match="overflows 4 digits"):
            pack._unpack(past)
        with pytest.raises(ArithmeticError, match="overflows 4 digits"):
            pack._unpack(-past)
