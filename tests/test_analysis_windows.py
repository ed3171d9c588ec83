"""Tests for measurement-window sensitivity (repro.analysis.windows)."""

import pytest

from repro.analysis.windows import (
    gap_growth_curve,
    window_sensitivity,
)
from repro.errors import ConfigError

from conftest import make_series_frame
from test_avrank import series

DAY = 1440


def grower():
    """A sample whose Δ keeps growing past the 30-day mark."""
    return series([5, 10, 20, 30],
                  times=(0, 10 * DAY, 60 * DAY, 85 * DAY))


def early_settler():
    """All dynamics inside the first month."""
    return series([5, 12, 12], times=(0, 10 * DAY, 80 * DAY))


class TestWindowSensitivity:
    def test_growth_detected(self):
        result = window_sensitivity(make_series_frame([grower()]), 30, 90)
        assert result.n_comparable == 1
        assert result.n_grew == 1
        assert result.grew_fraction == 1.0
        assert result.mean_gap_long > result.mean_gap_short

    def test_settled_sample_does_not_grow(self):
        result = window_sensitivity(make_series_frame([early_settler()]),
                                    30, 90)
        assert result.n_grew == 0
        assert result.grew_fraction == 0.0

    def test_mixture(self):
        pool = make_series_frame([grower(), early_settler()])
        result = window_sensitivity(pool, 30, 90)
        assert result.n_comparable == 2
        assert result.grew_fraction == 0.5

    def test_single_scan_in_window_excluded(self):
        lonely = series([1, 9], times=(0, 200 * DAY))
        result = window_sensitivity(make_series_frame([lonely]), 30, 90)
        assert result.n_comparable == 0

    def test_first_month_restriction(self):
        late = series([0, 9, 9], times=(200 * DAY, 210 * DAY, 260 * DAY))
        restricted = window_sensitivity(make_series_frame([late]), 30, 90,
                                        first_month_only=True)
        assert restricted.n_comparable == 0
        unrestricted = window_sensitivity(make_series_frame([late]), 30, 90,
                                          first_month_only=False)
        assert unrestricted.n_comparable == 1

    def test_window_order_validated(self):
        with pytest.raises(ConfigError):
            window_sensitivity(make_series_frame([]), 90, 30)

    def test_experiment_gap_growth_exists(self, experiment):
        result = window_sensitivity(experiment.dataset_s,
                                    first_month_only=False)
        # Paper: 8.6 % of samples grew their gap from 1 to 3 months.
        assert 0.0 < result.grew_fraction < 0.5
        assert result.mean_gap_long >= result.mean_gap_short


class TestGapGrowthCurve:
    def test_monotone_for_growing_pool(self):
        pool = [grower() for _ in range(5)]
        curve = gap_growth_curve(make_series_frame(pool),
                                 windows_days=(30, 60, 90))
        gaps = [g for _, g in curve]
        assert gaps == sorted(gaps)

    def test_windows_without_data_skipped(self):
        lonely = series([1, 2], times=(0, 300 * DAY))
        curve = gap_growth_curve(make_series_frame([lonely]),
                                 windows_days=(30, 365))
        assert [w for w, _ in curve] == [365]

    def test_experiment_curve_increases_overall(self, experiment):
        curve = gap_growth_curve(experiment.dataset_s,
                                 first_month_only=False)
        assert len(curve) >= 3
        assert curve[-1][1] > curve[0][1]
