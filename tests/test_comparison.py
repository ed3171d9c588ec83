"""Tests for the protocol comparison (repro.analysis.comparison)."""

import pytest

from repro.analysis.comparison import ProtocolView, compare_protocols
from repro.synth.scenario import dynamics_scenario


@pytest.fixture(scope="module")
def comparison():
    return compare_protocols(
        dynamics_scenario(600, seed=13),
        snapshot_samples=80,
        cadence_days=1.0,
        duration_days=90.0,
    )


class TestCompareProtocols:
    def test_views_labelled(self, comparison):
        assert comparison.organic.protocol == "organic"
        assert comparison.snapshot.protocol == "snapshot"

    def test_snapshot_roster_size(self, comparison):
        assert comparison.snapshot.n_samples <= 80
        assert comparison.snapshot.n_samples > 10

    def test_snapshot_report_density_much_higher(self, comparison):
        organic_density = (comparison.organic.n_reports
                           / comparison.organic.n_samples)
        snapshot_density = (comparison.snapshot.n_reports
                            / comparison.snapshot.n_samples)
        assert snapshot_density > 5 * organic_density

    def test_snapshot_sees_more_dynamics(self, comparison):
        """Watching every day reveals dynamics organic gaps miss.

        (Flips *per sample* is not a reliable discriminator at this
        scale — the organic mean is inflated by the heavy report-count
        tail — so the bench asserts it at 2000+ samples instead.)"""
        assert (comparison.snapshot.dynamic_fraction
                > comparison.organic.dynamic_fraction)

    def test_snapshot_sees_more_of_delta(self, comparison):
        assert (comparison.snapshot.mean_observed_delta
                > comparison.organic.mean_observed_delta)

    def test_render_mentions_both_columns(self, comparison):
        text = comparison.render()
        assert "organic" in text
        assert "snapshot" in text
        assert "hazards per 1000 samples" in text

    def test_views_pinned(self, comparison):
        """Both views, exactly.  The snapshot campaign rescans the
        organic run's samples, so each rescan must continue that
        sample's stream where the organic scans left it; a shifted
        stream moves these counts."""
        assert comparison.organic == ProtocolView(
            protocol="organic", n_samples=600, n_reports=3350,
            dynamic_fraction=289 / 600, flips_per_sample=2035 / 600,
            hazards_per_1000_samples=0.0, hazard_share_of_flips=0.0,
            mean_observed_delta=1692 / 600)
        assert comparison.snapshot == ProtocolView(
            protocol="snapshot", n_samples=26, n_reports=2366,
            dynamic_fraction=20 / 26, flips_per_sample=82 / 26,
            hazards_per_1000_samples=0.0, hazard_share_of_flips=0.0,
            mean_observed_delta=124 / 26)

    def test_view_fields_sane(self, comparison):
        for view in (comparison.organic, comparison.snapshot):
            assert isinstance(view, ProtocolView)
            assert 0.0 <= view.dynamic_fraction <= 1.0
            assert view.flips_per_sample >= 0.0
            assert view.hazard_share_of_flips < 0.2
