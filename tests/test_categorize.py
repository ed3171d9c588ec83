"""Unit tests for white/black/gray categorisation (repro.core.categorize)."""

import pytest

from repro.core.categorize import (
    BLACK,
    GRAY,
    WHITE,
    CategoryCounts,
    categorize,
    category_distribution,
)
from repro.errors import ConfigError

from conftest import make_series_frame
from test_avrank import series


class TestCategorize:
    def test_white_when_all_ranks_below_threshold(self):
        assert categorize(series([0, 2, 3]), 5) == WHITE

    def test_black_when_all_ranks_at_least_threshold(self):
        assert categorize(series([5, 7, 9]), 5) == BLACK

    def test_gray_when_crossing(self):
        assert categorize(series([3, 7]), 5) == GRAY

    def test_boundary_rank_equal_threshold_is_black(self):
        """rank >= t labels malicious, so p_min == t is black not white."""
        assert categorize(series([5, 5]), 5) == BLACK

    def test_boundary_pmax_just_below(self):
        assert categorize(series([4, 4]), 5) == WHITE

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigError):
            categorize(series([1, 2]), 0)


class TestDistribution:
    def test_counts_partition(self):
        pool = [series([0, 1]), series([9, 9]), series([3, 8])]
        (counts,) = category_distribution(make_series_frame(pool), [5])
        assert counts.white == 1
        assert counts.black == 1
        assert counts.gray == 1
        assert counts.total == 3

    def test_fractions(self):
        counts = CategoryCounts(threshold=5, white=1, black=1, gray=2)
        assert counts.gray_fraction == 0.5
        assert counts.white_fraction == 0.25
        assert counts.black_fraction == 0.25

    def test_empty_pool(self):
        (counts,) = category_distribution(make_series_frame([]), [3])
        assert counts.total == 0
        assert counts.gray_fraction == 0.0

    def test_multiple_thresholds_one_pass(self):
        pool = [series([2, 10])]
        results = category_distribution(make_series_frame(pool),
                                        range(1, 15))
        # crossing band is (2, 10]: gray for 3..10
        for counts in results:
            expected = GRAY if 3 <= counts.threshold <= 10 else (
                BLACK if counts.threshold <= 2 else WHITE
            )
            got = (GRAY if counts.gray else
                   BLACK if counts.black else WHITE)
            assert got == expected, counts.threshold

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigError):
            category_distribution(make_series_frame([series([1, 2])]), [0])
