"""Truncated polynomial ring tables, element arithmetic and GL orders."""

import pickle
import random
from itertools import product

import pytest

from kacdepth import GuardError, LaurentPoly, group_order_gl
from kacdepth.oring import ORing, check_work

from helpers import cached_ring
from oracles import OElem

Q = LaurentPoly.q()


class TestElements:
    def test_truncated_square(self):
        one_plus_t = OElem(2, 2, (1, 1))
        assert one_plus_t * one_plus_t == OElem.one(2, 2)

    def test_inverse_example(self):
        e = OElem(3, 2, (1, 1))
        inv = e.inverse()
        assert inv == OElem(3, 2, (1, 2))
        assert e * inv == OElem.one(3, 2)

    def test_huge_composite_modulus_rejected(self):
        # 11 divides 10^309 + 1; a float square root of it would overflow
        with pytest.raises(ValueError, match="not prime"):
            OElem(10**309 + 1, 1, (0,))

    def test_inverse_of_non_unit(self):
        with pytest.raises(ValueError, match="non-unit"):
            OElem(3, 2, (0, 1)).inverse()

    def test_valuation(self):
        unit = OElem(5, 3, (2, 1, 0))
        t = OElem(5, 3, (0, 1, 0))
        assert (t * unit).valuation() == 1
        assert OElem.zero(5, 3).valuation() == 3
        assert unit.valuation() == 0

    def test_ring_axioms_random(self):
        rng = random.Random(13)
        for p, alpha in ((2, 3), (3, 2), (5, 1)):
            size = p**alpha
            for _ in range(200):
                a, b, c = (
                    OElem.from_code(p, alpha, rng.randrange(size)) for _ in range(3)
                )
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + OElem.zero(p, alpha) == a
                assert a * OElem.one(p, alpha) == a

    def test_every_unit_inverts(self):
        for p, alpha in ((2, 2), (3, 2), (5, 1)):
            for code in range(p**alpha):
                e = OElem.from_code(p, alpha, code)
                if e.is_unit():
                    assert e * e.inverse() == OElem.one(p, alpha)

    def test_code_round_trip(self):
        for code in range(27):
            assert OElem.from_code(3, 3, code).code() == code

    def test_tables_match_elements(self):
        # the digit-built tables against OElem arithmetic, entry by entry
        for p, alpha in ((2, 1), (2, 3), (3, 2), (5, 2), (7, 1)):
            ring = ORing(p, alpha)
            elems = [OElem.from_code(p, alpha, c) for c in range(p**alpha)]
            assert ring.size == len(elems)
            assert ring.mul == [[(a * b).code() for b in elems] for a in elems]
            assert ring.inv == [a.inverse().code() if a.is_unit() else None for a in elems]
            assert ring.units == tuple(c for c, a in enumerate(elems) if a.is_unit())


class TestGroupOrder:
    def test_depth_two_rank_one(self):
        poly = group_order_gl((1,), 2)
        assert poly == Q**2 - Q
        assert poly.evaluate(2) == 2

    def test_rank_two(self):
        poly = group_order_gl((2,), 1)
        assert poly == Q**4 * (1 - LaurentPoly.q(-1)) * (1 - LaurentPoly.q(-2))
        assert poly.evaluate(2) == 6

    def test_torus(self):
        assert group_order_gl((1, 1), 1) == (Q - 1) ** 2

    def test_zero_rank_factor(self):
        assert group_order_gl((0, 1), 1) == Q - 1

    def test_gl_counts_over_ring_tables(self):
        # GL_1 is the units; GL_2 the matrices whose ad - bc is a unit, i.e.
        # whose products ad and bc differ mod t (codes are base-p digits)
        counts = {}
        for p, alpha in product((2, 3), (1, 2)):
            ring = cached_ring(p, alpha)
            mul, codes = ring.mul, range(ring.size)
            gl2 = sum(
                1
                for a, b, c, d in product(codes, repeat=4)
                if (mul[a][d] - mul[b][c]) % p
            )
            counts[p, alpha] = gl2
            assert len(ring.units) == group_order_gl((1,), alpha).evaluate(p)
            assert gl2 == group_order_gl((2,), alpha).evaluate(p)
        assert counts[2, 1] == 6 and counts[2, 2] == 96


def test_check_work_names_a_huge_estimate_by_its_power_of_two():
    # str() refuses an int past 4300 digits; 10^1000 is still shown whole
    with pytest.raises(GuardError, match=f"^x estimate {10**1000} > limit 5$"):
        check_work("x", 10**1000, 5)
    with pytest.raises(GuardError, match=r"^x estimate >= 2\^3322 > limit 5$"):
        check_work("x", 2**3322, 5)
    with pytest.raises(GuardError, match=r"^x estimate >= 2\^50000 > limit 5$"):
        check_work("x", 3 * 2**49999, 5)


def test_guard_error_from_a_message_alone_and_through_pickle():
    bare = GuardError("refused")
    assert (str(bare), bare.route, bare.estimate, bare.limit) == ("refused", None, None, None)
    with pytest.raises(GuardError) as info:
        check_work("x", 7, 5)
    copy = pickle.loads(pickle.dumps(info.value))
    assert (str(copy), copy.route, copy.estimate, copy.limit) == ("x estimate 7 > limit 5", "x", 7, 5)
