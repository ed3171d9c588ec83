"""Unit tests for stabilisation analysis (repro.core.stabilization)."""

import pytest

from repro.core.stabilization import (
    avrank_stabilization,
    label_stabilization,
    summarize_avrank_stabilization,
    summarize_label_stabilization,
)
from repro.errors import ConfigError

from conftest import make_series_frame
from test_avrank import series

DAY = 1440


class TestAVRankStabilization:
    def test_constant_series_stabilizes_immediately(self):
        out = avrank_stabilization(series([4, 4, 4]), 0)
        assert out.stabilized
        assert out.scan_index == 2  # confirmed at the second scan
        assert out.days == pytest.approx(1000 / DAY)

    def test_settles_after_growth(self):
        out = avrank_stabilization(series([1, 5, 9, 9, 9]), 0)
        assert out.stabilized
        assert out.scan_index == 4

    def test_change_at_last_scan_never_stabilizes(self):
        out = avrank_stabilization(series([3, 3, 7]), 0)
        assert not out.stabilized
        assert out.scan_index is None
        assert out.days is None

    def test_fluctuation_tolerance(self):
        s = series([5, 6, 5, 6])
        assert not avrank_stabilization(s, 0).stabilized
        assert avrank_stabilization(s, 1).stabilized
        assert avrank_stabilization(s, 1).scan_index == 2

    def test_wider_fluctuation_never_hurts(self):
        s = series([0, 10, 12, 11, 13])
        for r in range(5):
            low = avrank_stabilization(s, r)
            high = avrank_stabilization(s, r + 1)
            if low.stabilized:
                assert high.stabilized
                assert high.scan_index <= low.scan_index

    def test_single_report_never_stabilizes(self):
        assert not avrank_stabilization(series([3]), 0).stabilized

    def test_negative_fluctuation_rejected(self):
        with pytest.raises(ConfigError):
            avrank_stabilization(series([1, 1]), -1)

    def test_days_uses_confirmation_scan(self):
        s = series([2, 9, 9, 9], times=(0, 10 * DAY, 20 * DAY, 30 * DAY))
        out = avrank_stabilization(s, 0)
        assert out.scan_index == 3
        assert out.days == pytest.approx(20.0)


class TestLabelStabilization:
    def test_constant_labels(self):
        out = label_stabilization(series([1, 2, 3]), 10)
        assert out.stabilized
        assert out.final_label == "B"
        assert out.scan_index == 2

    def test_flip_then_settle(self):
        out = label_stabilization(series([1, 12, 13, 14]), 10)
        assert out.stabilized
        assert out.scan_index == 3
        assert out.final_label == "M"

    def test_flip_at_end_not_stable(self):
        out = label_stabilization(series([1, 1, 12]), 10)
        assert not out.stabilized
        assert out.final_label == "M"

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            label_stabilization(series([1, 1]), 0)

    def test_single_report(self):
        out = label_stabilization(series([5]), 3)
        assert not out.stabilized
        assert out.final_label == "M"


class TestSummaries:
    def _pool(self):
        return make_series_frame([
            series([4, 4, 4]),            # stable everywhere
            series([1, 5, 9]),            # never settles at r=0
            series([1, 9, 9]),            # settles late
            series([3]),                  # single report: skipped
        ])

    def test_avrank_summary_counts(self):
        summary = summarize_avrank_stabilization(self._pool(), 0)
        assert summary.n_samples == 3
        assert summary.n_stabilized == 2
        assert summary.stabilized_fraction == pytest.approx(2 / 3)

    def test_avrank_summary_within_days(self):
        pool = make_series_frame([series([2, 2], times=(0, 5 * DAY)),
                                  series([3, 3], times=(0, 60 * DAY))])
        summary = summarize_avrank_stabilization(pool, 0,
                                                 within_days=(30,))
        assert summary.fraction_within[30] == pytest.approx(0.5)

    def test_label_summary_excluding_two_scan(self):
        pool = make_series_frame([series([1, 1]), series([1, 1, 1])])
        full = summarize_label_stabilization(pool, 5)
        trimmed = summarize_label_stabilization(pool, 5,
                                                exclude_two_scan=True)
        assert full.n_samples == 2
        assert trimmed.n_samples == 1

    def test_empty_summary(self):
        summary = summarize_avrank_stabilization(make_series_frame([]), 0)
        assert summary.n_samples == 0
        assert summary.mean_scan_index is None
        assert summary.stabilized_fraction == 0.0
