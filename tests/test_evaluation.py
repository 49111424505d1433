import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc
from scipy.stats import ttest_rel

from ltrlab.core import Qrels, ScoredList
from ltrlab.evaluation import (
    _two_sided_p,
    geometric_mean,
    holm_bonferroni,
    micro_average,
    ndcg_at_k,
    paired_t_test,
    significance_report,
)

from _oracles import ndcg_bruteforce


def ranking(*docs, query="q"):
    n = len(docs)
    return ScoredList(query, tuple((d, float(n - i)) for i, d in enumerate(docs)))


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        qrels = Qrels({"q": {"a": 3, "b": 2, "c": 1}})
        assert ndcg_at_k(ranking("a", "b", "c"), qrels, 10) == pytest.approx(1.0)

    def test_all_zero_grades(self):
        qrels = Qrels({"q": {"a": 0}})
        assert ndcg_at_k(ranking("a", "b"), qrels, 10) == 0.0

    def test_no_judgments_at_all(self):
        assert ndcg_at_k(ranking("a"), Qrels(), 10) == 0.0

    def test_hand_computed_example(self):
        qrels = Qrels({"q": {"dA": 0, "dB": 2, "dC": 1}})
        got = ndcg_at_k(ranking("dA", "dB", "dC"), qrels, 3)
        dcg = 3.0 / math.log2(3) + 0.5
        idcg = 3.0 + 1.0 / math.log2(3)
        assert dcg == pytest.approx(2.3928, abs=1e-4)
        assert idcg == pytest.approx(3.6309, abs=1e-4)
        assert got == pytest.approx(dcg / idcg)
        assert got == pytest.approx(0.6590, abs=5e-5)

    def test_ideal_includes_docs_missing_from_ranking(self):
        # The judged doc "z" never appears in the ranking but still raises
        # the ideal, lowering the score below 1.
        qrels = Qrels({"q": {"a": 1, "z": 3}})
        assert ndcg_at_k(ranking("a", "b"), qrels, 10) < 1.0

    def test_in_unit_interval_and_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n_judged = int(rng.integers(1, 6))
            n_ranked = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            universe = [f"d{i}" for i in range(8)]
            judged_docs = list(rng.choice(universe, size=n_judged, replace=False))
            grades = {d: int(rng.integers(0, 4)) for d in judged_docs}
            ranked_docs = list(rng.choice(universe, size=n_ranked, replace=False))
            qrels = Qrels({"q": grades})
            got = ndcg_at_k(ranking(*ranked_docs), qrels, k)
            expected = ndcg_bruteforce(
                [grades.get(d, 0) for d in ranked_docs], list(grades.values()), k
            )
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(expected, abs=1e-12)


class TestAverages:
    def test_micro_average_singleton(self):
        assert micro_average({"c": {"q1": 0.4}}) == {"c": 0.4}

    def test_micro_average_mean(self):
        assert micro_average({"c": [0.2, 0.4]})["c"] == pytest.approx(0.3)

    def test_micro_average_permutation_invariant(self):
        a = micro_average({"c": [0.1, 0.5, 0.9]})["c"]
        b = micro_average({"c": [0.9, 0.1, 0.5]})["c"]
        assert a == b

    def test_micro_average_empty_collection(self):
        with pytest.raises(ValueError):
            micro_average({"c": []})

    def test_geometric_mean_singleton(self):
        assert geometric_mean([0.7]) == pytest.approx(0.7)

    def test_geometric_mean_pair(self):
        assert geometric_mean([0.25, 1.0]) == pytest.approx(0.5)

    def test_geometric_mean_floors_zero(self, caplog):
        with caplog.at_level("WARNING"):
            value = geometric_mean([0.0, 1.0])
        assert value == pytest.approx(math.sqrt(1e-4))
        assert any("flooring" in r.message for r in caplog.records)

    def test_geometric_mean_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestPairedTTest:
    def test_identical_vectors(self):
        assert paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == (0.0, 1.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=12), rng.normal(size=12)
        t1, p1 = paired_t_test(a, b)
        t2, p2 = paired_t_test(b, a)
        assert t1 == pytest.approx(-t2)
        assert p1 == pytest.approx(p2)

    def test_hand_computed_diffs(self):
        t, p = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert t == pytest.approx(4.2426, abs=5e-5)
        assert p == pytest.approx(0.0132, abs=5e-5)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            a = rng.normal(size=n)
            b = a + rng.normal(size=n) * rng.uniform(0.01, 2.0) + rng.normal() * 0.3
            t, p = paired_t_test(a, b)
            t_ref, p_ref = ttest_rel(a, b)
            assert t == pytest.approx(float(t_ref), abs=1e-10)
            assert abs(p - float(p_ref)) < 1e-6

    def test_zero_variance_nonzero_mean(self, caplog):
        with caplog.at_level("WARNING"):
            t, p = paired_t_test([1.0, 1.0], [0.0, 0.0])
        assert p == 0.0 and t == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])


def two_sided_p_reference(t: float, df: int) -> float:
    """scipy's I_x(df/2, 1/2) at x = df / (df + t^2), taken from whichever
    of x and 1 - x rounds with the smaller relative error: near x = 1, the
    rounded x has lost most of the bits of 1 - x on which p then rests."""
    x, y = df / (df + t * t), t * t / (df + t * t)
    return float(betainc(df / 2, 0.5, x) if x < 0.5 else betaincc(0.5, df / 2, y))


DFS = [1, 2, 3, 4, 5, 7, 10, 19, 30, 49, 99, 100, 101, 199, 999, 4999, 9999, 33333, 67687, 99999,
       100_000]
T_GRID = [0.0, 1e-300, 1e-160, 1e-20, 1e-8, *np.geomspace(1e-4, 1e5, 300).tolist()]


class TestTwoSidedP:
    """The t distribution's two-sided tail, against scipy's incomplete beta."""

    def assert_close_to_reference(self, t, df):
        p, ref = _two_sided_p(t, df), two_sided_p_reference(t, df)
        if ref >= 1e-300:
            assert abs(p - ref) <= 1e-9 * ref, (t, df, p, ref)
        else:
            assert p < 1.01e-300, (t, df, p, ref)

    @pytest.mark.parametrize("df", DFS)
    def test_grid_matches_reference(self, df):
        for t in T_GRID:
            self.assert_close_to_reference(t, df)
        # Around the mean of the beta distribution the fraction switches sides;
        # just below that t, p = 1 - I_y(1/2, df/2) magnifies any error tenfold.
        for scale in np.linspace(0.5, 1.5, 201).tolist():
            self.assert_close_to_reference(scale * math.sqrt(3.0 * df / (df + 2.0)), df)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 100_000), st.floats(0.0, 1e5, allow_nan=False))
    def test_matches_reference_anywhere(self, df, t):
        self.assert_close_to_reference(t, df)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e5, allow_nan=False))
    def test_one_degree_of_freedom_is_cauchy(self, t):
        cauchy = 1.0 - 2.0 * math.atan(abs(t)) / math.pi
        assert abs(_two_sided_p(t, 1) - cauchy) <= 1e-9 * cauchy

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 100_000), st.floats(-1e5, 1e5, allow_nan=False))
    def test_symmetric_in_t(self, df, t):
        assert _two_sided_p(t, df) == _two_sided_p(-t, df)

    @pytest.mark.parametrize("df", DFS)
    def test_in_unit_interval_and_falls_as_t_grows(self, df):
        ps = [_two_sided_p(t, df) for t in T_GRID]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(later <= earlier for earlier, later in zip(ps, ps[1:]))

    @pytest.mark.parametrize("df", DFS)
    def test_zero_t_is_one(self, df):
        assert _two_sided_p(0.0, df) == _two_sided_p(-0.0, df) == 1.0

    def test_edges(self):
        assert _two_sided_p(math.inf, 3) == _two_sided_p(-math.inf, 3) == 0.0
        assert math.isnan(_two_sided_p(math.nan, 3))
        assert math.isnan(paired_t_test([math.nan, 1.0], [0.0, 0.0])[1])

    def test_paired_test_uses_it(self):
        t, p = paired_t_test([1.0, 2.0, 4.0, 3.0], [0.5, 2.5, 1.0, 1.0])
        assert p == _two_sided_p(t, 3)
        assert paired_t_test([0.5, 2.5, 1.0, 1.0], [1.0, 2.0, 4.0, 3.0]) == (-t, p)


class TestHolmBonferroni:
    def test_single_p(self):
        assert holm_bonferroni([0.01], 0.05) == [True]

    def test_worked_example_exactly_one_rejection(self):
        decisions = holm_bonferroni([0.01, 0.04, 0.03], 0.05)
        assert decisions == [True, False, False]

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            holm_bonferroni([1.5], 0.05)

    def test_monotone_in_holm_order(self):
        # Once one sorted hypothesis is retained, all larger ps are retained.
        rng = np.random.default_rng(9)
        for _ in range(200):
            ps = rng.uniform(size=int(rng.integers(1, 12)))
            decisions = holm_bonferroni(ps, 0.05)
            by_p = [d for _, d in sorted(zip(ps, decisions))]
            if False in by_p:
                first = by_p.index(False)
                assert not any(by_p[first:])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12))
    def test_bracketed_by_bonferroni_and_uncorrected(self, ps):
        alpha = 0.05
        holm = holm_bonferroni(ps, alpha)
        bonferroni = [p <= alpha / len(ps) for p in ps]
        uncorrected = [p <= alpha for p in ps]
        for h, b, u in zip(holm, bonferroni, uncorrected):
            assert not b or h  # Bonferroni rejection implies Holm rejection
            assert not h or u  # Holm rejection implies uncorrected rejection

    def test_lowering_a_p_never_unrejects_others(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ps = list(rng.uniform(size=6))
            before = holm_bonferroni(ps, 0.05)
            i = int(rng.integers(0, 6))
            ps_lower = list(ps)
            ps_lower[i] = ps_lower[i] * 0.1
            after = holm_bonferroni(ps_lower, 0.05)
            for j in range(6):
                if j != i and before[j]:
                    assert after[j]


class TestSignificanceReport:
    def test_identical_runs_no_rejections(self):
        scores = {"q1": 0.5, "q2": 0.6, "q3": 0.7}
        report = significance_report(
            {"base": scores, "same": dict(scores)}, baseline="base"
        )
        assert len(report.comparisons) == 1
        comp = report.comparisons[0]
        assert comp.p_value == 1.0 and not comp.reject

    def test_clear_improvement_rejected(self):
        rng = np.random.default_rng(2)
        base = {f"q{i}": float(v) for i, v in enumerate(rng.uniform(0.2, 0.4, size=50))}
        better = {q: v + 0.3 + rng.normal() * 0.01 for q, v in base.items()}
        report = significance_report({"base": base, "better": better}, "base")
        assert report.comparisons[0].reject

    def test_text_and_jsonl_forms(self):
        scores = {"q1": 0.5, "q2": 0.6}
        report = significance_report({"base": scores, "other": dict(scores)}, "base")
        assert "other" in report.to_text()
        assert '"system":"other"' in report.to_jsonl()

    def test_missing_baseline(self):
        with pytest.raises(ValueError):
            significance_report({"a": {"q": 1.0}}, baseline="nope")
