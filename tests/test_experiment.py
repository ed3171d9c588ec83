"""Integration tests for the end-to-end runner (repro.analysis.experiment)."""

import pytest

from repro.analysis.experiment import run_experiment
from repro.vt.clock import WINDOW_MINUTES, month_index


class TestRun:
    def test_all_scheduled_events_executed(self, experiment):
        assert experiment.events_executed == experiment.store.report_count
        assert experiment.store.report_count > experiment.config.n_samples

    def test_sample_count_matches_population(self, experiment):
        assert experiment.store.sample_count == experiment.config.n_samples

    def test_series_cached(self, experiment):
        assert experiment.series() is experiment.series()

    def test_dataset_s_subset_of_series(self, experiment):
        series_ids = {s.sha256 for s in experiment.series()}
        assert set(experiment.dataset_s.sha256) <= series_ids

    def test_dataset_s_members_are_dynamic(self, experiment):
        assert (experiment.dataset_s.delta_overall() > 0).all()

    def test_store_sealed_after_run(self, experiment):
        assert experiment.store.closed

    def test_engine_names_are_fleet_order(self, experiment):
        assert experiment.engine_names == experiment.fleet.names
        assert len(experiment.engine_names) == 70

    def test_reports_in_window(self, experiment):
        for report in experiment.store.iter_reports():
            assert 0 <= report.scan_time < WINDOW_MINUTES

    def test_reports_sharded_correctly(self, experiment):
        for report in experiment.store.iter_reports():
            assert month_index(report.scan_time) in experiment.store.shards


class TestDeterminism:
    def test_same_seed_same_reports(self, tiny_config_factory):
        a = run_experiment(tiny_config_factory(n_samples=60, seed=13))
        b = run_experiment(tiny_config_factory(n_samples=60, seed=13))
        ra = [(r.sha256, r.scan_time, r.positives)
              for r in a.store.iter_reports()]
        rb = [(r.sha256, r.scan_time, r.positives)
              for r in b.store.iter_reports()]
        assert ra == rb

    def test_different_seed_differs(self, tiny_config_factory):
        a = run_experiment(tiny_config_factory(n_samples=60, seed=13))
        c = run_experiment(tiny_config_factory(n_samples=60, seed=14))
        ra = {r.sha256 for r in a.store.iter_reports()}
        rc = {r.sha256 for r in c.store.iter_reports()}
        assert ra != rc


class TestPaperMixRun:
    def test_fresh_fraction_near_paper(self, paper_mix_experiment):
        stats = paper_mix_experiment.store.stats()
        assert stats.fresh_fraction == pytest.approx(0.9176, abs=0.04)

    def test_monthly_volumes_cover_window(self, paper_mix_experiment):
        stats = paper_mix_experiment.store.stats()
        populated = [m for m in stats.months if m.report_count > 0]
        assert len(populated) >= 12

    def test_prewindow_samples_use_rescans(self, paper_mix_experiment):
        """Non-fresh samples keep their negative first_submission_date."""
        seen_prewindow = False
        for report in paper_mix_experiment.store.iter_reports():
            if report.first_submission_date < 0:
                seen_prewindow = True
                assert report.times_submitted >= 1
        assert seen_prewindow
