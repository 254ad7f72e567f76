"""The percentile rule, quartile spread, and the compare verdicts."""

import math

import pytest

from perf import stats


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert stats.percentile(samples, 50) == 50
        assert stats.percentile(samples, 90) == 90
        assert stats.percentile(samples, 99) == 99
        assert stats.percentile(samples, 100) == 100

    def test_order_does_not_matter(self):
        assert stats.percentile([5, 1, 4, 2, 3], 50) == 3

    def test_integral_rank_is_not_rounded_up(self):
        # 90% of 10 is rank 9 exactly; floating point must not make it 10.
        assert stats.percentile(list(range(1, 11)), 90) == 9

    def test_small_sample_is_its_extremes(self):
        assert stats.percentile([7.0], 99) == 7.0
        assert stats.percentile([1.0, 2.0], 1) == 1.0

    @pytest.mark.parametrize("q", [0, -1, 101])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            stats.percentile([1.0], q)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestTenBeyond:
    def test_p90_needs_a_hundred_samples(self):
        assert stats.beyond(100, 90) == 10
        assert stats.supported(100, 90)
        assert not stats.supported(99, 90)

    def test_p99_needs_a_thousand_samples(self):
        assert stats.supported(1000, 99)
        assert not stats.supported(999, 99)

    def test_median_of_twenty(self):
        assert stats.beyond(20, 50) == 10
        assert stats.supported(20, 50)
        assert not stats.supported(19, 50)


class TestSpread:
    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, median, q3 = stats.quartiles(values)
        assert (q1, median, q3) == (11.75, 14.5, 17.25)
        assert stats.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)

    def test_single_value_has_no_spread(self):
        assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert stats.spread([3.0]) == 0.0

    def test_zero_median(self):
        assert stats.spread([0.0, 0.0, 0.0]) == 0.0
        assert math.isinf(stats.spread([-1.0, 0.0, 0.0, 1.0]))


class TestVerdict:
    steady = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5]

    def test_within_bound_is_ok(self):
        change = [v * 1.05 for v in self.steady]
        assert stats.verdict("latency_p50_ms", self.steady, change, 0.10, "lower") == "ok"

    def test_beyond_bound_is_a_regression(self):
        change = [v * 1.15 for v in self.steady]
        assert stats.verdict("latency_p50_ms", self.steady, change, 0.10, "lower") == "regression"

    def test_direction_higher(self):
        slower = [v * 0.85 for v in self.steady]
        assert stats.verdict("latency_p50_ms", self.steady, slower, 0.10, "higher") == "regression"
        faster = [v * 1.15 for v in self.steady]
        assert stats.verdict("latency_p50_ms", self.steady, faster, 0.10, "higher") == "better"

    def test_every_run_better_wins_even_when_noisy(self):
        noisy = [50.0, 100.0, 150.0, 200.0]
        change = [10.0, 20.0, 30.0, 40.0]
        assert stats.verdict("latency_p50_ms", noisy, change, 0.10, "lower") == "better"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50.0, 100.0, 150.0, 200.0]
        change = [60.0, 110.0, 160.0, 210.0]
        assert stats.verdict("latency_p50_ms", noisy, change, 0.10, "lower") == "unresolved"

    def test_noisy_change_side_is_unresolved(self):
        change = [60.0, 100.0, 140.0, 180.0]
        assert stats.verdict("latency_p50_ms", self.steady, change, 0.10, "lower") == "unresolved"

    def test_setup_time_is_judged_by_its_median_alone(self):
        noisy = [50.0, 100.0, 150.0, 200.0]
        close = [60.0, 100.0, 140.0, 210.0]
        assert stats.verdict("setup_s", noisy, close, 0.10, "lower") == "ok"
        slower = [v * 1.5 for v in noisy]
        assert stats.verdict("setup_s", noisy, slower, 0.10, "lower") == "regression"

    def test_worsening_sign(self):
        assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
        with pytest.raises(ValueError):
            stats.worsening(1.0, 1.0, "sideways")
