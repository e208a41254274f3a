"""One-vertex higher-rank counts: recursions, closed forms, regression table."""

import pytest

from kacdepth import (
    LaurentPoly,
    RatFunc,
    closed_form_rank2,
    closed_form_rank3,
    moment_total,
)
from kacdepth import rank
from kacdepth.cli import main
from kacdepth.rank import (
    REFERENCE_RANK3,
    rank2_class_sums,
    rank2_initial,
    rank2_transition,
    rank3_class_sums,
    rank3_initial,
    rank3_transition,
    rank_table,
)

from helpers import burnside_matrix_orbits
from oracles import kac_from_moments, rank_class_sums_oracle

Q = LaurentPoly.q()


class TestRank2:
    def test_initial_vector_shape(self):
        s_i, s_ii1, s_ii2, s_ii3 = rank2_initial(1)
        assert s_i == RatFunc(Q**4, Q * (Q - 1) * (Q + 1))
        assert s_ii1 == RatFunc(Q**2 * (Q - 2), 2 * (Q - 1))
        assert s_ii2 == RatFunc(Q)
        assert s_ii3 == RatFunc(Q**3, 2 * (Q + 1))

    def test_initial_vector_from_class_data(self):
        # depth-1 sums recomputed from the conjugacy classes of the
        # invertible 2x2 matrices over a field: class count x fixed-space
        # size / centralizer order, per type
        for g in (1, 2, 3):
            s_i, s_ii1, s_ii2, s_ii3 = rank2_initial(g)
            glq = Q * (Q - 1) ** 2 * (Q + 1)  # order of the rank-2 group
            assert s_i == RatFunc((Q - 1) * LaurentPoly.q(4 * g), glq)
            assert s_ii1 == RatFunc(
                (Q - 1) * (Q - 2) * LaurentPoly.q(2 * g), 2 * (Q - 1) ** 2
            )
            assert s_ii2 == RatFunc((Q - 1) * LaurentPoly.q(2 * g), Q * (Q - 1))
            assert s_ii3 == RatFunc(
                Q * (Q - 1) * LaurentPoly.q(2 * g), 2 * (Q**2 - 1)
            )

    def test_transition_entry_formula(self):
        # entry = q^(g dim(s) - dim(t)) * |t-part| / |s-part| * branching
        norms = {
            "I": Q * (Q - 1) ** 2 * (Q + 1),
            "II1": (Q - 1) ** 2,
            "II2": Q * (Q - 1),
            "II3": Q**2 - 1,
        }
        dims = {"I": 4, "II1": 2, "II2": 2, "II3": 2}
        branching = {
            ("I", "I"): RatFunc(Q),
            ("I", "II1"): RatFunc(Q * (Q - 1), 2),
            ("I", "II2"): RatFunc(Q),
            ("I", "II3"): RatFunc(Q * (Q - 1), 2),
            ("II1", "II1"): RatFunc(Q**2),
            ("II2", "II2"): RatFunc(Q**2),
            ("II3", "II3"): RatFunc(Q**2),
        }
        labels = ("I", "II1", "II2", "II3")
        for g in (1, 2):
            matrix = rank2_transition(g)
            for i, sigma in enumerate(labels):
                for j, tau in enumerate(labels):
                    expected = RatFunc.zero()
                    if (tau, sigma) in branching:
                        expected = (
                            RatFunc(LaurentPoly.q(g * dims[sigma] - dims[tau]))
                            * RatFunc(norms[tau])
                            / RatFunc(norms[sigma])
                            * branching[(tau, sigma)]
                        )
                    assert matrix[i][j] == expected, (g, sigma, tau)

    def test_printed_entry_examples(self):
        matrix = rank2_transition(2)
        assert matrix[2][0] == RatFunc(LaurentPoly.q(1) * (Q - 1) * (Q + 1))
        assert matrix[1][1] == RatFunc(LaurentPoly.q(4))

    def test_burnside_depth_one(self):
        assert moment_total(1, 1, 2).evaluate(2) == burnside_matrix_orbits(1, 2, 2)

    def test_closed_form_examples(self):
        assert closed_form_rank2(1, 2).as_polynomial() == Q**3 + Q**2
        for alpha in (1, 2, 3, 4):
            expected = LaurentPoly(
                {alpha + k: 1 for k in range(alpha)}
            )  # q^alpha (q^alpha - 1)/(q - 1)
            assert closed_form_rank2(1, alpha).as_polynomial() == expected


class TestRank3:
    def test_initial_vector_zero_types(self):
        sums = rank3_initial(2)
        assert sums[8].is_zero() and sums[9].is_zero()

    def test_printed_matrix_entry(self):
        for g in (1, 2):
            matrix = rank3_transition(g)
            assert matrix[3][1] == RatFunc(
                LaurentPoly.q(3 * g - 2) * (Q**2 - 1), 2
            )

    def test_burnside_depth_one(self):
        assert moment_total(1, 1, 3).evaluate(2) == burnside_matrix_orbits(1, 3, 2)

    def test_moment_extraction_examples(self):
        assert kac_from_moments(1, 2, 3)[2] == LaurentPoly({4: 1, 3: 1, 2: 2})
        assert kac_from_moments(2, 1, 3)[2] == LaurentPoly(
            {10: 1, 8: 1, 7: 1, 6: 1, 5: 1, 4: 1}
        )

    def test_closed_form_example(self):
        assert closed_form_rank3(1, 3).as_polynomial() == LaurentPoly(
            {7: 1, 6: 1, 5: 3, 4: 2, 3: 2}
        )


class TestSeriesExtraction:
    def test_rank_one_moment_is_free(self):
        for g, alpha in ((1, 1), (2, 3), (3, 2)):
            assert moment_total(g, alpha, 1) == RatFunc(LaurentPoly.q(alpha * g))

    def test_extracted_counts_are_polynomials(self):
        for g in (1, 2):
            for alpha in (1, 2, 3):
                for poly in kac_from_moments(g, alpha, 3):
                    assert poly.is_integral()
                    assert poly.is_zero() or poly.min_exp() >= 0

    def test_rank2_closed_matches_recursion(self):
        for g in range(1, 5):
            for alpha in range(1, 7):
                closed = closed_form_rank2(g, alpha).as_polynomial()
                assert closed.is_nonnegative()
                if alpha <= 5 and g <= 3:
                    assert kac_from_moments(g, alpha, 2)[1] == closed


def test_reference_table_regression():
    # the rank-3 table recomputed by the recursion and by the closed form
    for (g, alpha), expected in sorted(REFERENCE_RANK3.items()):
        assert expected.is_nonnegative(), (g, alpha)
        assert kac_from_moments(g, alpha, 3)[2] == expected, (g, alpha)
        assert closed_form_rank3(g, alpha).as_polynomial() == expected, (g, alpha)
    # spot values transcribed independently
    assert REFERENCE_RANK3[(1, 5)].coeff(5) == 2
    assert REFERENCE_RANK3[(3, 1)].max_exp() == 19
    assert REFERENCE_RANK3[(3, 1)].coeff(7) == 1


def _dense_sums(initial, matrix, alpha):
    # every entry of the matrix, structural zeros included
    vec = initial
    for _ in range(alpha - 1):
        vec = tuple(sum((m * v for m, v in zip(row, vec)), RatFunc.zero()) for row in matrix)
    return vec


class TestTable:
    def test_sparse_step_matches_dense_product(self):
        for g in (1, 2):
            for alpha in (1, 2, 4):
                assert rank2_class_sums(g, alpha) == _dense_sums(
                    rank2_initial(g), rank2_transition(g), alpha
                )
                assert rank3_class_sums(g, alpha) == _dense_sums(
                    rank3_initial(g), rank3_transition(g), alpha
                )

    def test_common_denominator_matches_step_oracle(self):
        for g in (1, 2, 3):
            for alpha in range(1, 7):
                for sums, initial, transition in (
                    (rank2_class_sums, rank2_initial, rank2_transition),
                    (rank3_class_sums, rank3_initial, rank3_transition),
                ):
                    expected = rank_class_sums_oracle(initial(g), transition(g), alpha)
                    assert sums(g, alpha) == expected, (g, alpha)

    def test_rows_match_kac_from_moments(self):
        for g in (1, 2, 3):
            table = list(rank_table(g, 6))
            assert [a for a, _, _ in table] == list(range(1, 7))
            for a, polys, routes in table:
                assert polys == kac_from_moments(g, a, 3), (g, a)
                assert all(agrees for _, _, agrees in routes), (g, a)
                assert len(routes) == (3 if (g, a) in REFERENCE_RANK3 else 2)

    def test_one_step_per_depth_and_rank(self, monkeypatch):
        # alpha - 1 steps per rank for the whole table, on the 7 nonzero
        # rank-2 and 24 nonzero rank-3 transition entries only
        steps = []
        step = rank._step

        def counting_step(vec, rows):
            entries = [m for row in rows for _, m in row]
            assert not any(m.is_zero() for m in entries)
            steps.append((len(vec), len(entries)))
            return step(vec, rows)

        monkeypatch.setattr(rank, "_step", counting_step)
        for alpha in (1, 2, 6):
            steps.clear()
            list(rank_table(2, alpha))
            assert sorted(steps) == [(4, 7)] * (alpha - 1) + [(10, 24)] * (alpha - 1)


def test_integer_recursion_matches_the_gcd_oracles_to_depth_10():
    # the integer recursion, its exact divisions and the exact closed forms
    # against one RatFunc product per entry, each addition reduced by a gcd
    for g in range(1, 5):
        for a, polys, routes in rank_table(g, 10):
            for sums, initial, transition in (
                (rank2_class_sums, rank2_initial, rank2_transition),
                (rank3_class_sums, rank3_initial, rank3_transition),
            ):
                assert sums(g, a) == rank_class_sums_oracle(initial(g), transition(g), a), (g, a)
            assert polys == kac_from_moments(g, a, 3), (g, a)
            assert all(agrees for _, _, agrees in routes), (g, a)


def test_inexact_divisions_raise_value_error(monkeypatch, capsys):
    # a sixth of a numerator added to one depth-1 sum makes a halving inexact;
    # the rank-table CLI reports a ValueError with exit 2, never a traceback
    initial = rank2_initial(2)
    monkeypatch.setattr(rank, "rank2_initial", lambda g: (initial[0] + RatFunc(1, 6), *initial[1:]))
    with pytest.raises(ValueError, match="polynomiality violated"):
        list(rank_table(2, 2))
    assert main(["rank-table", "--g", "2", "--alpha", "2"]) == 2
    assert capsys.readouterr().err == "error: polynomiality violated\n"
    with pytest.raises(ValueError, match="polynomiality violated"):
        rank._exact_quotient(Q**3 + 1, Q**2 - 1)
    assert rank._exact_quotient(LaurentPoly({-2: 1, 1: 1}), Q + 1) == LaurentPoly({-2: 1, -1: -1, 0: 1})
