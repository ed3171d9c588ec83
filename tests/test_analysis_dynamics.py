"""Tests for the Section 5 pipelines (repro.analysis.dynamics)."""

import pytest

from repro.analysis.dynamics import (
    delta_distributions,
    interval_effect,
    per_type_dynamics,
    stable_dynamic_split,
    stable_sample_profile,
    threshold_impact,
)

from conftest import make_series_frame
from test_avrank import series


class TestStableDynamicSplit:
    def test_counts_and_fraction(self):
        pool = [series([1, 1]), series([1, 2]), series([9])]
        split = stable_dynamic_split(make_series_frame(pool))
        assert split.n_stable == 1
        assert split.n_dynamic == 1
        assert split.n_multi == 2
        assert split.dynamic_fraction == 0.5

    def test_two_report_shares(self):
        pool = [series([1, 1]), series([2, 2, 2]), series([1, 5])]
        split = stable_dynamic_split(make_series_frame(pool))
        assert split.stable_two_report_fraction == 0.5
        assert split.dynamic_two_report_fraction == 1.0

    def test_experiment_split_roughly_even(self, experiment):
        split = stable_dynamic_split(experiment.frame)
        # Paper: 50.10 % dynamic.  Allow scenario-scale noise.
        assert 0.35 < split.dynamic_fraction < 0.62


class TestStableProfile:
    def test_rank_zero_fraction(self):
        pool = [series([0, 0]), series([0, 0]), series([3, 3])]
        profile = stable_sample_profile(make_series_frame(pool))
        assert profile.rank_zero_fraction == pytest.approx(2 / 3)

    def test_span_grouping_caps_rank(self):
        pool = [series([50, 50]), series([0, 0])]
        profile = stable_sample_profile(make_series_frame(pool),
                                        rank_group_cap=10)
        assert set(profile.span_by_rank) == {0, 10}

    def test_experiment_benign_dominates_stable(self, experiment):
        profile = stable_sample_profile(experiment.frame)
        # Paper: 66.36 % of stable samples at AV-Rank 0.
        assert 0.5 < profile.rank_zero_fraction < 0.8
        assert profile.rank_at_most_5_fraction > profile.rank_zero_fraction


class TestDeltaDistributions:
    def test_landmark_properties(self):
        pool = [series([1, 1, 3]), series([0, 5])]
        dist = delta_distributions(make_series_frame(pool))
        assert dist.adjacent_zero_fraction == pytest.approx(1 / 3)
        assert dist.overall_above_2_fraction == pytest.approx(0.5)
        assert dist.overall_within_11_fraction == 1.0

    def test_experiment_variation_prevalent(self, experiment):
        dist = delta_distributions(experiment.dataset_s)
        # Observation 3: most adjacent pairs change (paper: 64.5 %).
        assert dist.adjacent_zero_fraction < 0.65
        assert dist.overall_within_11_fraction > 0.6


class TestPerType:
    def test_rankings(self):
        pool = [
            series([0, 10], file_type="Win32 EXE"),
            series([0, 1], file_type="JSON"),
        ]
        dyn = per_type_dynamics(make_series_frame(pool))
        assert dyn.ranked_by_overall_mean()[0][0] == "Win32 EXE"
        assert dyn.ranked_by_adjacent_mean()[-1][0] == "JSON"

    def test_experiment_pe_tops_delta(self, experiment):
        dyn = per_type_dynamics(experiment.dataset_s)
        ranked = dyn.ranked_by_overall_mean()
        top3 = {name for name, _ in ranked[:3]}
        assert top3 & {"Win32 EXE", "Win32 DLL", "Win64 EXE", "Win64 DLL"}


class TestIntervalEffect:
    def test_experiment_positive_correlation(self, experiment):
        effect = interval_effect(experiment.dataset_s)
        # Observation 5: longer intervals, larger differences.
        assert effect.correlation.rho > 0.3
        assert effect.correlation.p_value < 0.05

    def test_binned_boxes_keyed_by_bucket(self, experiment):
        effect = interval_effect(experiment.dataset_s, bin_days=30)
        assert all(isinstance(k, int) for k in effect.binned_boxes)


class TestThresholdImpact:
    def test_curves_have_requested_thresholds(self):
        pool = [series([0, 5]), series([10, 40], file_type="Win32 EXE")]
        impact = threshold_impact(make_series_frame(pool),
                                  thresholds=[1, 5, 10])
        assert [c.threshold for c in impact.overall] == [1, 5, 10]
        assert [c.threshold for c in impact.pe_only] == [1, 5, 10]

    def test_pe_subset_smaller(self):
        pool = [series([0, 5], file_type="TXT"),
                series([0, 5], file_type="Win32 EXE")]
        impact = threshold_impact(make_series_frame(pool), thresholds=[3])
        assert impact.overall[0].total == 2
        assert impact.pe_only[0].total == 1

    def test_experiment_gray_fraction_bounded(self, experiment):
        impact = threshold_impact(experiment.dataset_s)
        _, peak = impact.overall_peak
        # Paper peak: 14.92 %; shape tolerance at small scale.
        assert peak < 0.30

    def test_experiment_low_thresholds_mostly_safe(self, experiment):
        impact = threshold_impact(experiment.dataset_s)
        low_gray = [c.gray_fraction for c in impact.overall
                    if 3 <= c.threshold <= 11]
        assert max(low_gray) < 0.15
