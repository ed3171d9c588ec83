"""Unit tests for dynamics metrics (repro.core.metrics) and the frame's
δ/Δ kernels they summarise."""

from repro.analysis.dynamics import per_type_dynamics
from repro.core.metrics import BoxSummary, pairwise_differences

from conftest import make_series_frame
from test_avrank import series


class TestPooledDeltas:
    def test_adjacent_deltas_pooled(self):
        frame = make_series_frame([series([1, 3]), series([5, 5, 9])])
        assert sorted(frame.adjacent_deltas().tolist()) == [0, 2, 4]

    def test_overall_delta(self):
        frame = make_series_frame([series([1, 3]), series([5, 5, 9])])
        assert frame.delta_overall().tolist() == [2, 4]

    def test_by_file_type_grouping(self):
        pool = [
            series([1, 3], file_type="TXT"),
            series([2, 2], file_type="TXT"),
            series([0, 9], file_type="PDF"),
        ]
        dyn = per_type_dynamics(make_series_frame(pool))
        assert (dyn.adjacent["TXT"].count, dyn.adjacent["TXT"].mean) == (2, 1)
        assert (dyn.overall["PDF"].count, dyn.overall["PDF"].mean) == (1, 9)

    def test_summaries(self):
        # TXT's δ are 1, 2, 3; the single-scan PDF sample has none.
        pool = [series([0, 1, 3, 6], file_type="TXT"),
                series([4], file_type="PDF")]
        out = per_type_dynamics(make_series_frame(pool)).adjacent
        assert set(out) == {"TXT"}
        assert out["TXT"].mean == 2
        assert isinstance(out["TXT"], BoxSummary)


class TestPairwise:
    def test_all_pairs_for_small_series(self):
        s = series([0, 2, 6], times=(0, 1440, 4320))
        pairs = pairwise_differences(make_series_frame([s]))
        assert len(pairs) == 3
        assert sorted(pairs.rank_diffs) == [2, 4, 6]
        assert sorted(pairs.interval_days) == [1.0, 2.0, 3.0]

    def test_cap_limits_hot_samples(self):
        hot = make_series_frame([series(list(range(100)))])
        pairs = pairwise_differences(hot, max_pairs_per_sample=50)
        assert len(pairs) == 50

    def test_cap_is_deterministic(self):
        hot = make_series_frame([series(list(range(100)))])
        a = pairwise_differences(hot, max_pairs_per_sample=30)
        b = pairwise_differences(hot, max_pairs_per_sample=30)
        assert a.rank_diffs == b.rank_diffs

    def test_binning(self):
        s = series([0, 1, 5], times=(0, 1440 * 10, 1440 * 40))
        bins = pairwise_differences(make_series_frame([s])).binned(bin_days=30)
        assert set(bins) == {0, 1}
        assert sorted(bins[1]) == [4, 5]  # 30- and 40-day pairs

    def test_monotone_trend_detected(self):
        """A strongly growing trajectory yields high interval correlation."""
        days = (0, 3, 8, 15, 25, 40, 60, 90, 150, 250)
        # Rank grows linearly in time, so |rank_i - rank_j| is an exact
        # function of the interval and the trend must be perfect.
        pool = [
            series(
                [d // 5 for d in days],
                times=tuple(int(d * 1440) for d in days),
            )
            for _ in range(40)
        ]
        frame = make_series_frame(pool)
        result = pairwise_differences(frame).interval_correlation()
        assert result.rho > 0.95

    def test_raw_correlation_runs(self):
        s = series([0, 3, 6], times=(0, 1440, 2880))
        result = pairwise_differences(make_series_frame([s])).raw_correlation()
        assert -1.0 <= result.rho <= 1.0
