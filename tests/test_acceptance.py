"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines.  Every comparison is exact (integers, Fractions, canonical
rational functions); nothing is checked in floating point.
"""

import random
from fractions import Fraction

from kacdepth import (
    LaurentPoly,
    Quiver,
    RatFunc,
    asymptotic_kac,
    asymptotic_moment,
    closed_form_rank3,
    e_series_check,
    lex_shelling,
    moment_fiber_count,
    order_complex,
    pleth_exp,
    pleth_log,
    positivity_certificate,
    toric_kac_chain,
    toric_orbit_count,
    tree_stratum_census,
    verify_exp_identity,
    verify_generic_fiber,
    verify_hilbert_identity,
)
from kacdepth.plethysm import adams
from kacdepth.rank import REFERENCE_RANK3
from kacdepth.toric import toric_kac_trees

from helpers import (
    matrix_tree_count,
    random_connected_quiver,
    random_ratfunc,
    random_series,
)
from oracles import kac_from_moments

KRON = Quiver(2, ((0, 1), (0, 1)))
A2 = Quiver(2, ((0, 1),))
LOOP1 = Quiver(1, ((0, 0),))


def test_criterion_1_formula_cross_agreement(catalog_4v_6a):
    checked = 0
    for quiver in catalog_4v_6a:
        for alpha in (1, 2, 3, 4):
            assert toric_kac_trees(quiver, alpha) == toric_kac_chain(quiver, alpha), (
                quiver,
                alpha,
            )
            checked += 1
    print(
        f"\n[PASS] criterion 1: chain and tree formulas agree exactly on "
        f"{len(catalog_4v_6a)} quivers x 4 depths ({checked} comparisons)"
    )


def test_criterion_2_oracle_equivalence(catalog_3v_3a):
    checked = 0
    for quiver in catalog_3v_3a:
        for p in (2, 3):
            for alpha in (1, 2):
                orbits = toric_orbit_count(quiver, p, alpha)
                symbolic = toric_kac_chain(quiver, alpha).evaluate(p)
                assert symbolic == orbits, (quiver, p, alpha)
                checked += 1
    print(
        f"\n[PASS] criterion 2: Burnside orbit counts equal the polynomial at q=p "
        f"({checked} configurations)"
    )


def test_criterion_3_exp_identity(catalog_2v_3a):
    checked = 0
    for quiver in catalog_2v_3a:
        bound = (1,) * quiver.nvertices
        for p in (2, 3):
            for alpha in (1, 2):
                (report,) = verify_exp_identity(quiver, [p], alpha, bound)
                assert report["equal"], (quiver, p, alpha, report)
                checked += 1
    # rank-2 coefficient on the one-loop quiver against the exhaustive
    # commuting-pair count over F_2
    (report,) = verify_exp_identity(LOOP1, [2], 1, (2,))
    assert report["equal"], report
    row = next(r for r in report["rows"] if r["rank"] == [2])
    assert row["fiber"] == 88
    print(
        f"\n[PASS] criterion 3: plethystic identity holds at q=p for "
        f"{checked} toric configurations plus the rank-2 commuting-pair check"
    )


def test_criterion_4_generic_fiber():
    for quiver, lam, p, alpha in (
        (A2, (1, -1), 3, 1),
        (A2, (1, -1), 3, 2),
        (KRON, (1, -1), 5, 1),
    ):
        (report,) = verify_generic_fiber(quiver, lam, [p], alpha)
        assert report["equal"], report
    print("\n[PASS] criterion 4: generic-fiber identity exact on all three configurations")


def test_criterion_5_hilbert_positivity(catalog_4v_6a):
    two_connected = [
        q for q in catalog_4v_6a if q.is_two_connected() and q.narrows <= 5
    ]
    assert two_connected
    for quiver in two_connected:
        report = verify_hilbert_identity(quiver)
        assert report["equal"], (quiver, report)
        if quiver.narrows >= 2:
            cert = positivity_certificate(quiver)
            assert cert["matches_face_sum"], quiver
            assert len(lex_shelling(order_complex(quiver))) >= 2
    print(
        f"\n[PASS] criterion 5: Hilbert-series identity, certificates and "
        f"shellings verified on {len(two_connected)} 2-connected quivers"
    )


def test_criterion_6_asymptotic_relation(catalog_4v_6a):
    scale = RatFunc(LaurentPoly({0: 1, -1: -1}))
    family = [q for q in catalog_4v_6a if q.is_two_connected() and q.narrows <= 5]
    for quiver in family:
        lhs = asymptotic_moment(quiver) * scale ** (1 - quiver.nvertices)
        assert lhs == asymptotic_kac(quiver), quiver
    # numeric limit of the normalised zero-fiber count at q=2
    limit = asymptotic_moment(KRON).evaluate(2)
    errors = []
    for alpha in (1, 2, 3, 4):
        fiber = moment_fiber_count(KRON, (1, 1), 2, alpha)
        exponent = alpha * (2 * KRON.narrows - KRON.nvertices + 1)
        errors.append(abs(Fraction(fiber, 2**exponent) - limit))
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:])), errors
    print(
        "\n[PASS] criterion 6: limit relation holds identically; fiber-count "
        f"errors decrease monotonically: {[str(e) for e in errors]}"
    )


def test_criterion_7_rank_tables():
    for (g, alpha), expected in sorted(REFERENCE_RANK3.items()):
        assert expected.is_nonnegative(), (g, alpha)
        assert kac_from_moments(g, alpha, 3)[2] == expected, (g, alpha)
        assert closed_form_rank3(g, alpha).as_polynomial() == expected, (g, alpha)
    print(
        f"\n[PASS] criterion 7: all {len(REFERENCE_RANK3)} rank-3 table entries "
        "reproduced by the recursion and the closed form"
    )


def test_criterion_8_stratum_positivity(catalog_4v_6a):
    strata = 0
    for quiver in catalog_4v_6a:
        for alpha in (1, 2, 3, 4):
            for _, exponent in tree_stratum_census(quiver, alpha):
                assert exponent >= 0
                strata += 1
            assert toric_kac_trees(quiver, alpha).is_nonnegative()
    print(
        f"\n[PASS] criterion 8: every stratum exponent nonnegative across "
        f"{strata} strata; all coefficients nonnegative"
    )


def test_criterion_9_property_suites():
    cases = 1000

    # lambda-ring laws
    rng = random.Random(90001)
    for _ in range(cases):
        a = random_series(rng, (2, 2), max_terms=2)
        b = random_series(rng, (2, 2), max_terms=2)
        m = rng.randint(1, 3)
        assert adams(a * b, m) == adams(a, m) * adams(b, m)
        assert pleth_exp(a + b) == pleth_exp(a) * pleth_exp(b)
        assert pleth_log(pleth_exp(a)) == a

    # ring axioms
    rng = random.Random(90002)
    for _ in range(cases):
        f, g, h = (random_ratfunc(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + RatFunc.zero() == f and f * RatFunc.one() == f

    # spanning-tree count against the determinant oracle
    rng = random.Random(90003)
    for _ in range(cases):
        quiver = random_connected_quiver(rng, 5, 7)
        assert len(quiver.spanning_trees()) == matrix_tree_count(quiver)

    # arrow-order invariance of the tree-stratification count
    rng = random.Random(90004)
    for _ in range(cases):
        quiver = random_connected_quiver(rng, 4, 5)
        alpha = rng.randint(1, 3)
        perm = list(range(quiver.narrows))
        rng.shuffle(perm)
        permuted = Quiver(quiver.nvertices, tuple(quiver.arrows[i] for i in perm))
        assert toric_kac_trees(permuted, alpha) == toric_kac_trees(quiver, alpha)

    print(
        f"\n[PASS] criterion 9: lambda-ring laws, ring axioms, matrix-tree "
        f"oracle and order invariance, {cases} randomized cases each"
    )


def test_graded_series_bookkeeping(catalog_2v_3a):
    # cohomological identities at the level of graded-dimension series,
    # termwise to order z^-10 on the criterion-3 quiver family
    checked = 0
    for quiver in catalog_2v_3a:
        for alpha in (1, 2):
            for mode in ("zero-fiber", "generic-fiber"):
                report = e_series_check(quiver, alpha, mode, 10)
                assert report["equal"], (quiver, alpha, mode)
                checked += 1
    print(
        f"\n[PASS] series bookkeeping: graded-dimension identities hold to "
        f"order z^-10 in {checked} configurations"
    )
