import math

import pytest

from ltrlab.rerank_sim import (
    CostEstimate,
    CostModel,
    StrategySpec,
    cost_report,
    cost_report_jsonl,
    estimate,
    pointwise,
    schedule,
    scoring_count,
    sliding_window,
)


class TestSchedule:
    def test_pointwise_single_window(self):
        assert schedule(100, pointwise()) == [(1, 100)]

    def test_canonical_sliding_schedule(self):
        windows = schedule(100, sliding_window(20, 10))
        assert windows == [
            (81, 100),
            (71, 90),
            (61, 80),
            (51, 70),
            (41, 60),
            (31, 50),
            (21, 40),
            (11, 30),
            (1, 20),
        ]

    def test_depth_equals_window(self):
        assert schedule(20, sliding_window(20, 10)) == [(1, 20)]
        assert schedule(20, sliding_window(20, 3)) == [(1, 20)]

    def test_window_larger_than_depth_rejected(self):
        with pytest.raises(ValueError):
            schedule(10, sliding_window(20, 10))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            StrategySpec("sliding_window", window=10, stride=11)
        with pytest.raises(ValueError):
            StrategySpec("sliding_window", window=10, stride=0)
        with pytest.raises(ValueError):
            StrategySpec("teleport")

    def test_every_index_covered(self):
        for n, w, s in [(100, 20, 10), (55, 20, 7), (37, 5, 5), (64, 9, 4), (21, 20, 1)]:
            covered = set()
            for lo, hi in schedule(n, sliding_window(w, s)):
                assert 1 <= lo <= hi <= n
                covered.update(range(lo, hi + 1))
            assert covered == set(range(1, n + 1))

    def test_interior_coverage_multiplicity(self):
        # With s < w, indices away from both ends fall in ceil(w/s) or
        # ceil(w/s) - 1 windows.
        for n, w, s in [(100, 20, 10), (90, 18, 5), (70, 12, 7)]:
            counts = {i: 0 for i in range(1, n + 1)}
            for lo, hi in schedule(n, sliding_window(w, s)):
                for i in range(lo, hi + 1):
                    counts[i] += 1
            expected = math.ceil(w / s)
            for i in range(w + 1, n - w):
                assert counts[i] in (expected, expected - 1)


class TestScoringCount:
    def test_pointwise(self):
        assert scoring_count(100, pointwise()) == 100

    def test_canonical_sliding(self):
        assert scoring_count(100, sliding_window(20, 10)) == 180

    def test_no_overlap_equals_depth(self):
        assert scoring_count(100, sliding_window(20, 20)) == 100

    def test_sliding_at_least_depth(self):
        for n, w, s in [(100, 20, 10), (64, 16, 4), (48, 12, 12)]:
            count = scoring_count(n, sliding_window(w, s))
            assert count >= n
            assert (count == n) == (s == w)


class TestEstimate:
    def test_latency_is_calls_times_per_call(self):
        est = estimate(100, sliding_window(20, 10), CostModel(2.0, 5.0))
        assert est.calls == 9
        assert est.latency_s == pytest.approx(18.0)
        assert est.memory_gb == 5.0

    def test_linear_in_per_call_latency(self):
        spec = sliding_window(20, 10)
        base = estimate(100, spec, CostModel(1.0, 1.0))
        scaled = estimate(100, spec, CostModel(3.5, 1.0))
        assert scaled.latency_s == pytest.approx(3.5 * base.latency_s)

    def test_ratios_vs_baseline(self):
        baseline = estimate(100, pointwise(), CostModel(0.5, 2.0))
        est = estimate(100, sliding_window(20, 10), CostModel(1.0, 10.0), baseline=baseline)
        assert est.latency_ratio_vs_baseline == pytest.approx(9.0 / 0.5)
        assert est.memory_ratio_vs_baseline == pytest.approx(5.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(-1.0, 0.0)

    @pytest.mark.parametrize("costs", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_cost_rejected(self, costs):
        with pytest.raises(ValueError, match="cost parameters must be finite and >= 0"):
            CostModel(*costs)

    def test_report_formats(self):
        baseline = estimate(100, pointwise(), CostModel(0.2, 2.0))
        rows = [
            ("fast", baseline),
            ("slow", estimate(100, sliding_window(20, 10), CostModel(2.0, 16.0), baseline)),
        ]
        text = cost_report(rows)
        assert "slow" in text and "scorings" in text
        jsonl = cost_report_jsonl(rows)
        assert jsonl.count("\n") == 2
        assert '"strategy":"slow"' in jsonl

    def test_zero_ratio_printed_as_number(self):
        baseline = estimate(100, pointwise(), CostModel(0.2, 2.0))
        free = estimate(100, pointwise(), CostModel(0.0, 0.0), baseline)
        assert free.latency_ratio_vs_baseline == 0.0
        row = cost_report([("base", baseline), ("free", free)]).splitlines()[2].split()
        assert row[0] == "free"
        assert row[-2:] == ["0.000", "0.000"]
        # Without a baseline there is no ratio to print.
        assert cost_report([("base", baseline)]).splitlines()[1].split()[-2:] == ["-", "-"]
