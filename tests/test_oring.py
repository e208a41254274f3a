"""Truncated polynomial ring arithmetic and GL enumeration."""

import random
from itertools import product

import pytest

from kacdepth import GuardError, LaurentPoly, OElem, OMatrix, ORing, enumerate_gl, group_order_gl

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
        t = OElem.t_power(5, 3, 1)
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
            assert ring.add == [[(a + b).code() for b in elems] for a in elems]
            assert ring.sub == [[(a - b).code() for b in elems] for a in elems]
            assert ring.mul == [[(a * b).code() for b in elems] for a in elems]
            assert ring.inv == [a.inverse().code() if a.is_unit() else None for a in elems]
            assert ring.units == tuple(c for c, a in enumerate(elems) if a.is_unit())
            assert all(ring.element(c) == a for c, a in enumerate(elems))


class TestMatrices:
    def test_identity_and_commutator(self):
        ring_p, alpha = 2, 2
        ident = OMatrix.identity(2, ring_p, alpha)
        elems = [OElem.from_code(ring_p, alpha, c) for c in range(4)]
        mat = OMatrix(((elems[1], elems[2]), (elems[3], elems[0])))
        assert mat * ident == mat
        zero_mat = mat.commutator(mat)
        assert all(e.is_zero() for row in zero_mat.entries for e in row)

    def test_shape_mismatch(self):
        a = OMatrix.identity(2, 2, 1)
        b = OMatrix(((OElem.one(2, 1),),))
        with pytest.raises(ValueError, match="shape mismatch"):
            a * b

    def test_commuting_pair_census(self):
        # exhaust all 2^8 pairs of 2x2 matrices over F_2 via the matrix ops
        elems = [OElem.from_code(2, 1, c) for c in range(2)]
        mats = [
            OMatrix((flat[:2], flat[2:]))
            for flat in product(elems, repeat=4)
        ]
        count = sum(
            1
            for a in mats
            for b in mats
            if all(e.is_zero() for row in a.commutator(b).entries for e in row)
        )
        assert count == 88

    def test_invertibility_matches_reduction(self):
        # exhaustive: invertible over the ring iff invertible mod t
        elems = [OElem.from_code(2, 2, c) for c in range(4)]
        for flat in product(elems, repeat=4):
            mat = OMatrix((flat[:2], flat[2:]))
            red = mat.reduction()
            det_mod = (red[0][0] * red[1][1] - red[0][1] * red[1][0]) % 2
            assert mat.is_invertible() == (det_mod != 0)


class TestEnumerateGL:
    def test_rank1_units(self):
        mats = list(enumerate_gl(1, 2, 2))
        codes = sorted(m.entries[0][0].coeffs for m in mats)
        assert codes == [(1, 0), (1, 1)]

    def test_counts_match_group_order(self):
        for r in (1, 2):
            for p in (2, 3):
                for alpha in (1, 2):
                    count = sum(1 for _ in enumerate_gl(r, p, alpha))
                    assert count == group_order_gl((r,), alpha).evaluate(p)

    def test_specific_counts(self):
        assert sum(1 for _ in enumerate_gl(2, 2, 1)) == 6
        assert sum(1 for _ in enumerate_gl(2, 2, 2)) == 96

    def test_guard(self):
        with pytest.raises(GuardError, match="enumeration too large"):
            list(enumerate_gl(3, 5, 4))


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
