"""Tests for ASCII rendering (repro.analysis.rendering).

Rendering is exercised against real pipeline outputs from the shared
experiment fixture — every renderer must produce non-empty text containing
its headline landmarks.
"""

import pytest

from repro.analysis import dataset as dataset_mod
from repro.analysis import dynamics as dynamics_mod
from repro.analysis import engines as engines_mod
from repro.analysis import rendering
from repro.analysis import stabilization as stab_mod


class TestPrimitives:
    def test_ascii_table_alignment(self):
        out = rendering.ascii_table(["a", "bb"], [["1", "222"], ["33", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # fixed width

    def test_pct(self):
        assert rendering.pct(0.5) == "50.00%"
        assert rendering.pct(0.12345, 1) == "12.3%"

    def test_sparkline_shape(self):
        line = rendering.sparkline([0, 0.5, 1.0] * 30, width=30)
        assert 0 < len(line) <= 30

    def test_sparkline_empty(self):
        assert rendering.sparkline([]) == ""

    def test_render_cdf(self):
        from repro.stats.cdf import EmpiricalCDF

        out = rendering.render_cdf(EmpiricalCDF([1, 2, 3]), [1, 3], "title")
        assert "title" in out
        assert "100.00%" in out


class TestExperimentRenderers:
    def test_table2(self, experiment):
        out = rendering.render_table2(experiment.store.stats())
        assert "05/2021 Reports" in out
        assert "compression rate" in out

    def test_table3(self, experiment):
        dist = dataset_mod.file_type_distribution(experiment.store)
        out = rendering.render_table3(dist)
        assert "Win32 EXE" in out
        assert "Total" in out

    def test_fig1(self, paper_mix_experiment):
        result = dataset_mod.ReportsPerSample.from_store(
            paper_mix_experiment.store
        )
        out = rendering.render_fig1(result)
        assert "paper: 88.81%" in out

    def test_fig2(self, experiment):
        split = dynamics_mod.stable_dynamic_split(experiment.frame)
        out = rendering.render_fig2(split)
        assert "stable" in out and "dynamic" in out

    def test_fig3_fig4(self, experiment):
        profile = dynamics_mod.stable_sample_profile(experiment.frame)
        out = rendering.render_fig3_fig4(profile)
        assert "AV-Rank = 0" in out
        assert "rank" in out

    def test_fig5(self, experiment):
        out = rendering.render_fig5(
            dynamics_mod.delta_distributions(experiment.dataset_s)
        )
        assert "35.49%" in out  # the paper landmark annotation

    def test_fig6(self, experiment):
        out = rendering.render_fig6(
            dynamics_mod.per_type_dynamics(experiment.dataset_s)
        )
        assert "File Type" in out

    def test_fig7(self, experiment):
        out = rendering.render_fig7(
            dynamics_mod.interval_effect(experiment.dataset_s)
        )
        assert "Spearman rho" in out

    def test_fig8(self, experiment):
        out = rendering.render_fig8(
            dynamics_mod.threshold_impact(experiment.dataset_s)
        )
        assert "gray peak" in out

    def test_obs8(self, experiment):
        out = rendering.render_obs8(
            stab_mod.avrank_stabilization_profile(experiment.dataset_s)
        )
        assert "within 30d" in out

    def test_fig9(self, experiment):
        out = rendering.render_fig9(
            stab_mod.label_stabilization_profile(experiment.dataset_s)
        )
        assert "stabilised" in out

    def test_fig10(self, experiment):
        stability = engines_mod.engine_stability(
            experiment.dataset_s, experiment.engine_names
        )
        out = rendering.render_fig10(stability.flips,
                                     engines_mod.APPENDIX_FILE_TYPES)
        assert "flippiest engines" in out

    @pytest.fixture(scope="class")
    def correlation(self, experiment):
        return engines_mod.engine_correlation(
            experiment.frame, experiment.engine_names, min_scans=30
        )

    def test_fig11(self, correlation):
        out = rendering.render_fig11(correlation.overall)
        assert "groups:" in out

    def test_group_tables(self, correlation):
        out = rendering.render_group_tables(correlation.per_type)
        assert "Tables 4-8" in out
