"""Tests for the Section 6 pipelines (repro.analysis.stabilization)."""

import pytest

from repro.analysis.stabilization import (
    FLUCTUATION_RANGES,
    LABEL_THRESHOLDS,
    avrank_stabilization_profile,
    label_stabilization_profile,
)

from conftest import make_series_frame
from test_avrank import series


class TestAVRankProfile:
    def test_covers_requested_ranges(self):
        pool = [series([1, 1, 1]), series([1, 9, 1])]
        profile = avrank_stabilization_profile(make_series_frame(pool),
                                               ranges=(0, 2))
        assert set(profile.by_fluctuation) == {0, 2}

    def test_fraction_monotone_in_r(self):
        pool = [series([1, 3, 2, 3]), series([0, 8, 0, 9]),
                series([2, 2, 2])]
        profile = avrank_stabilization_profile(make_series_frame(pool))
        fractions = [profile.stabilized_fraction(r)
                     for r in FLUCTUATION_RANGES]
        assert all(b >= a for a, b in zip(fractions, fractions[1:], strict=False))

    def test_experiment_r0_is_minority(self, experiment):
        profile = avrank_stabilization_profile(experiment.dataset_s)
        # Observation 8: exact constancy is rare; small ranges common.
        assert profile.stabilized_fraction(0) < 0.45
        assert profile.stabilized_fraction(5) > 0.7
        assert (profile.stabilized_fraction(5)
                > profile.stabilized_fraction(0))


class TestLabelProfile:
    def test_covers_paper_thresholds(self):
        pool = [series([1, 1]), series([1, 50])]
        profile = label_stabilization_profile(make_series_frame(pool))
        assert set(profile.all_samples) == set(LABEL_THRESHOLDS)
        assert set(profile.exclude_two_scan) == set(LABEL_THRESHOLDS)

    def test_exclude_two_scan_smaller_pool(self):
        pool = [series([1, 1]), series([1, 1, 1])]
        profile = label_stabilization_profile(make_series_frame(pool),
                                              thresholds=(5,))
        assert profile.all_samples[5].n_samples == 2
        assert profile.exclude_two_scan[5].n_samples == 1

    def test_experiment_most_labels_stabilize(self, experiment):
        profile = label_stabilization_profile(experiment.dataset_s)
        lo, hi = profile.stabilized_fraction_range()
        # Paper: 93.14 %-98.04 %.
        assert lo > 0.80
        assert hi <= 1.0

    def test_experiment_within_30_days_majority(self, experiment):
        profile = label_stabilization_profile(experiment.dataset_s)
        lo, _ = profile.within_30_days_range()
        # Paper: 91.09 %-92.31 %.
        assert lo > 0.7

    def test_experiment_confirmation_scan_around_two(self, experiment):
        profile = label_stabilization_profile(experiment.dataset_s)
        summary = profile.all_samples[10]
        if summary.n_stabilized:
            # Paper Figure 9(a): stabilises at the 2nd-3rd report.
            assert 1.5 <= summary.mean_scan_index <= 4.0
