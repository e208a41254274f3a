"""Order complexes, specialized Hilbert series, shellings, certificates."""

import math
import pickle
import time
from itertools import combinations_with_replacement

import pytest

from kacdepth import (
    GuardError,
    LaurentPoly,
    Quiver,
    RatFunc,
    hilbert_specialized,
    lex_shelling,
    order_complex,
    positivity_certificate,
    verify_hilbert_identity,
)
from kacdepth import srcomplex, toric
from kacdepth.laurent import poly_divmod
from kacdepth.srcomplex import OrderComplex, _single_denominator_presentation, _specialization

from helpers import MULTIGRAPHS, chain_face_count, literal_shelling_check
from oracles import (
    certificate_terms_oracle,
    certificate_total_oracle,
    chain_faces_oracle,
    face_weight_oracle,
    hilbert_multiset_oracle,
    hilbert_specialized_oracle,
    quiver_catalog,
    shelling_restrictions_oracle,
    single_denominator_oracle,
)

Q = LaurentPoly.q()
KRON = Quiver(2, ((0, 1), (0, 1)))
TRIANGLE = Quiver(3, ((0, 1), (1, 2), (0, 2)))
TWO_LOOPS = Quiver(1, ((0, 0), (0, 0)))
# Kronecker 6, the doubled triangle and K4: series.den has a root of
# multiplicity 5 at q = 1, more than any candidate product of <= 4 factors
SKIP_ALL = (
    Quiver(2, ((0, 1),) * 6),
    Quiver(3, ((0, 1), (1, 2), (0, 2)) * 2),
    Quiver(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
)


class TestComplex:
    def test_two_arrows_two_points(self):
        cx = order_complex(KRON)
        assert len(cx.facets) == 2
        assert all(len(f) == 1 for f in cx.facets)

    def test_three_arrows_hexagon(self):
        cx = order_complex(TRIANGLE)
        assert len(cx.facets) == math.factorial(3)
        assert all(len(f) == 2 for f in cx.facets)
        assert len(chain_faces_oracle(3)) == 13  # Fubini(3)

    def test_one_arrow_empty_complex(self):
        assert order_complex(Quiver(1, ((0, 0),))).facets == (frozenset(),)
        assert chain_faces_oracle(1) == [frozenset()]
        # formal Hilbert series of the empty complex is 1
        assert face_weight_oracle(()) == RatFunc.one()
        assert hilbert_specialized(Quiver(1, ((0, 0),))) == RatFunc.one()

    def test_face_and_facet_counts_against_recursion(self):
        for n in range(2, 6):
            quiver = Quiver(1, ((0, 0),) * n)
            cx = order_complex(quiver)
            assert len(cx.facets) == math.factorial(n)
            assert len(chain_faces_oracle(n)) == chain_face_count(n)


class TestValueClass:
    def test_equality_hash_and_keywords(self):
        cx = order_complex(KRON)
        same = OrderComplex(narrows=2, facets=(frozenset({1}), frozenset({2})), words=((0, 1), (1, 0)))
        assert cx == same and cx is not same
        assert hash(cx) == hash(same) == hash((cx.narrows, cx.facets, cx.words))
        assert cx != order_complex(TRIANGLE)
        assert cx != OrderComplex(2, cx.facets, ((1, 0), (0, 1)))
        assert pickle.loads(pickle.dumps(cx)) == cx

    def test_never_equal_to_a_tuple(self):
        cx = order_complex(KRON)
        assert cx != (cx.narrows, cx.facets, cx.words)
        assert cx.__eq__((cx.narrows, cx.facets, cx.words)) is NotImplemented
        assert OrderComplex(0, (), ()) != KRON

    def test_assignment_raises_attribute_error(self):
        cx = order_complex(KRON)
        for name in ("narrows", "facets", "words", "extra"):
            with pytest.raises(AttributeError):
                setattr(cx, name, 0)
        with pytest.raises(AttributeError):
            del cx.facets
        assert cx.narrows == 2

    def test_repr(self):
        assert repr(order_complex(KRON)) == (
            "OrderComplex(narrows=2, facets=(frozenset({1}), frozenset({2})), "
            "words=((0, 1), (1, 0)))"
        )
        assert repr(OrderComplex(0, (), ())) == "OrderComplex(narrows=0, facets=(), words=())"


class TestGuards:
    # three arrows: 3!*3 = 18 facet entries; the Hilbert series walks the
    # 3^3 = 27 pairs of class states of three one-arrow classes, at
    # 1 + 2^3 // 1024 = 1 unit each
    def test_order_complex_guard(self):
        with pytest.raises(GuardError, match="order complex estimate 18 > limit 17; raise --guard"):
            order_complex(TRIANGLE, guard=17)
        # the Hilbert series builds no order complex: Kronecker 5 has
        # 5! * 5 = 600 facet entries but C(7, 2) = 21 state pairs
        kron5 = Quiver(2, ((0, 1),) * 5)
        with pytest.raises(GuardError, match="order complex estimate 600 > limit 599"):
            order_complex(kron5, guard=599)
        assert hilbert_specialized(kron5, guard=21) == RatFunc(Q**5 - 1, (Q - 1) ** 5)

    def test_hilbert_series_guard(self):
        with pytest.raises(GuardError, match="hilbert series estimate 27 > limit 26; raise --guard"):
            hilbert_specialized(TRIANGLE, guard=26)
        assert hilbert_specialized(TRIANGLE, guard=27) == hilbert_specialized(TRIANGLE)
        # Kronecker 10: one class, C(12, 2) = 66 pairs at 1 + 10^3 // 1024 = 1
        # unit; the series of Kronecker m is (q^m - 1) / (q - 1)^m
        kron10 = Quiver(2, ((0, 1),) * 10)
        with pytest.raises(GuardError, match="hilbert series estimate 66 > limit 65"):
            hilbert_specialized(kron10, guard=65)
        assert hilbert_specialized(kron10, guard=66) == RatFunc(Q**10 - 1, (Q - 1) ** 10)

    def test_hilbert_series_refused_before_the_class_table(self, monkeypatch):
        # a 30-cycle: 3^30 state pairs, refused before any table is built
        monkeypatch.setattr(srcomplex, "_class_table", lambda quiver: pytest.fail("the walk began"))
        cycle = Quiver(30, tuple((i, (i + 1) % 30) for i in range(30)))
        start = time.perf_counter()
        with pytest.raises(GuardError, match=f"hilbert series estimate {3**30} > limit"):
            hilbert_specialized(cycle)
        assert time.perf_counter() - start < 1.0

    def test_certificate_needs_only_complex_guards(self):
        # the shelling itself reads the facet words and has no guard of its
        # own; on the triangle the order complex (18) and the Hilbert series
        # (27) bind
        with pytest.raises(GuardError, match="order complex estimate 18 > limit 17; raise --guard"):
            positivity_certificate(TRIANGLE, guard=17)
        with pytest.raises(GuardError, match="hilbert series estimate 27 > limit 26; raise --guard"):
            positivity_certificate(TRIANGLE, guard=26)
        assert positivity_certificate(TRIANGLE, guard=27)["matches_face_sum"]


class TestHilbert:
    def test_kronecker(self):
        expected = RatFunc(
            LaurentPoly({0: 1, -1: 1}), LaurentPoly({0: 1, -1: -1})
        )
        assert hilbert_specialized(KRON) == expected
        assert hilbert_specialized(KRON) == RatFunc(Q + 1, Q - 1)

    def test_triangle_exponents_all_one(self):
        # every proper nonempty class state of the triangle has exponent 1
        _, exps, _ = _specialization(TRIANGLE)
        assert len(exps) == 8 and set(exps[1:-1]) == {1}
        u = RatFunc.q(-1)
        w = u / (RatFunc.one() - u)
        assert hilbert_specialized(TRIANGLE) == RatFunc.one() + 6 * w + 6 * w * w

    def test_not_two_connected(self):
        with pytest.raises(ValueError, match="not convergent"):
            hilbert_specialized(Quiver(2, ((0, 1),)))


class TestIdentity:
    def test_examples(self):
        for quiver in (KRON, TRIANGLE, TWO_LOOPS):
            report = verify_hilbert_identity(quiver)
            assert report["equal"], report

    def test_kronecker_prefactor_is_trivial(self):
        report = verify_hilbert_identity(KRON)
        assert report["lhs"] == "(q+1)/(q-1)"

    def test_perturbed_chain_sum_breaks_the_identity(self, monkeypatch):
        # the two sides share only the common-denominator arithmetic: a wrong
        # chain sum must show, and the Hilbert side must never reach it
        chain_sum = toric._asymptotic_chain_sum
        calls = []

        def perturbed(quiver):
            calls.append(quiver)
            return chain_sum(quiver) * 2

        monkeypatch.setattr(toric, "_asymptotic_chain_sum", perturbed)
        for quiver in (KRON, TRIANGLE, TWO_LOOPS):
            calls.clear()
            hilbert_specialized(quiver)
            positivity_certificate(quiver)
            assert calls == []
            assert not verify_hilbert_identity(quiver)["equal"]
            assert calls == [quiver]


class TestCommonDenominator:
    def test_hilbert_matches_multiset_oracle(self):
        # the class-state walk over one fixed denominator against the mask DP
        # over exponent multisets
        catalog = [q for n in range(1, 5) for q in quiver_catalog(n, 5) if q.is_two_connected()]
        multigraphs = [q for q in MULTIGRAPHS if q.is_two_connected()]
        assert len(multigraphs) == 20
        for quiver in [*catalog, *multigraphs]:
            assert hilbert_specialized(quiver) == hilbert_multiset_oracle(quiver), quiver

    def test_hilbert_and_certificate_match_oracles(self, two_connected_3v_5a):
        assert len(two_connected_3v_5a) > 20
        # the oracle lists 4,683 to 47,293 chains on the three larger quivers
        doubled_triangle = Quiver(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)))
        larger = [Quiver(2, ((0, 1),) * 6), Quiver(2, ((0, 1),) * 7), doubled_triangle]
        for quiver in [*two_connected_3v_5a, *larger]:
            assert hilbert_specialized(quiver) == hilbert_specialized_oracle(quiver), quiver
            if quiver.narrows >= 2:
                total = certificate_total_oracle(quiver)
                assert positivity_certificate(quiver)["total"] == str(total), quiver

    def test_certificate_terms_match_mask_oracle(self, two_connected_3v_5a):
        # the library reads each facet mask at its class state; the oracle
        # reads the Betti table of all 2^m masks
        multigraphs = [q for q in MULTIGRAPHS if q.is_two_connected() and q.narrows <= 7]
        assert len(multigraphs) == 14
        for quiver in [*two_connected_3v_5a, *multigraphs]:
            if quiver.narrows >= 2:
                assert positivity_certificate(quiver)["terms"] == certificate_terms_oracle(quiver), quiver


class TestShelling:
    def test_two_points_any_order(self):
        restrictions = lex_shelling(order_complex(KRON))
        assert restrictions[0] == frozenset()
        assert len(restrictions[1]) == 1

    def test_descents_match_search_oracle(self):
        for n in range(2, 7):
            cx = order_complex(Quiver(1, ((0, 0),) * n))
            restrictions = lex_shelling(cx)
            assert len(restrictions) == len(cx.facets) == math.factorial(n)
            assert restrictions == shelling_restrictions_oracle(cx.facets), n

    def test_matches_literal_condition(self):
        for n in range(2, 5):
            quiver = Quiver(1, ((0, 0),) * n)
            assert literal_shelling_check(list(order_complex(quiver).facets))

    def test_interval_partition(self):
        # the intervals [restriction, facet] partition the nonempty faces
        for n in (3, 4):
            quiver = Quiver(1, ((0, 0),) * n)
            cx = order_complex(quiver)
            seen = set()
            for facet, restriction in zip(cx.facets, lex_shelling(cx)):
                extra = facet - restriction
                for bits in range(1 << len(extra)):
                    members = [v for i, v in enumerate(sorted(extra)) if bits >> i & 1]
                    face = frozenset(restriction | set(members))
                    assert face not in seen
                    seen.add(face)
            assert seen == set(chain_faces_oracle(n))

    def test_needs_two_arrows(self):
        with pytest.raises(ValueError):
            lex_shelling(order_complex(Quiver(1, ((0, 0),))))


class TestCertificate:
    def test_kronecker_terms(self):
        cert = positivity_certificate(KRON)
        assert cert["matches_face_sum"]
        assert cert["terms"] == [
            {"restriction_exponents": [], "facet_exponents": [1]},
            {"restriction_exponents": [1], "facet_exponents": [1]},
        ]
        assert cert["single_denominator"] == {
            "numerator": "1+q^-1",
            "denominator_exponents": [1],
        }

    def test_triangle_six_terms(self):
        cert = positivity_certificate(TRIANGLE)
        assert len(cert["terms"]) == 6
        assert cert["matches_face_sum"]

    def test_exhaustive_small(self, catalog_4v_6a):
        quivers = [
            q for q in catalog_4v_6a if q.is_two_connected() and 2 <= q.narrows <= 4
        ]
        assert quivers
        for quiver in quivers:
            cert = positivity_certificate(quiver)
            assert cert["matches_face_sum"], quiver

    def test_single_denominator_matches_product_oracle(self, catalog_4v_6a):
        # exact division against the rational-function products it replaced,
        # on the certificate totals (the specialized Hilbert series; 89
        # quivers share 53 of them) and on three where the search skips every
        # candidate undivided
        totals = {
            hilbert_specialized(q)
            for q in catalog_4v_6a
            if q.narrows >= 2 and q.is_two_connected()
        } | {hilbert_specialized(q) for q in SKIP_ALL}
        found = 0
        for series in totals:
            single = _single_denominator_presentation(series)
            assert single == single_denominator_oracle(series), series
            found += single is not None
        assert found > 0

    def test_single_denominator_skips_no_multiple(self, catalog_4v_6a, monkeypatch):
        # a product prod(q^e - 1) short of series.den in degree or in the
        # multiplicity of the root q = 1 is skipped undivided; every product
        # the search skips before its answer must be no multiple of series.den
        divided = []
        monkeypatch.setattr(srcomplex, "poly_divmod", lambda a, b: divided.append((a, b)) or poly_divmod(a, b))
        totals = {hilbert_specialized(q) for q in catalog_4v_6a if q.narrows >= 2 and q.is_two_connected()}
        skipped = 0
        for series in totals | {hilbert_specialized(q) for q in SKIP_ALL}:
            divided.clear()
            single = _single_denominator_presentation(series)
            candidates = [e for size in range(0, 5) for e in combinations_with_replacement(range(1, 6), size)]
            if single:
                del candidates[candidates.index(tuple(single["denominator_exponents"])):]
            for exps in candidates:
                product = LaurentPoly.one()
                for e in exps:
                    product = product * (Q**e - 1)
                if (product, series.den) not in divided:
                    skipped += 1
                    assert not poly_divmod(product, series.den)[1].is_zero(), (series, exps)
        assert skipped > 3 * 126
