"""Tests for the daily-snapshot campaign (repro.vt.snapshots)."""

import pytest

from repro.core.avrank import AVRankSeries
from repro.analysis.experiment import run_experiment
from repro.errors import ConfigError
from repro.synth.population import PopulationGenerator
from repro.synth.scenario import dynamics_scenario
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.samples import Sample, sha256_of
from repro.vt.service import VirusTotalService
from repro.vt.snapshots import SnapshotCampaign


def _samples(n, malicious=True):
    return [
        Sample(
            sha256=sha256_of(f"snap{i}"),
            file_type="Win32 EXE",
            malicious=malicious,
            first_seen=MINUTES_PER_DAY,
        )
        for i in range(n)
    ]


@pytest.fixture()
def service():
    return VirusTotalService(seed=4)


class TestCampaign:
    def test_snapshot_counts(self, service):
        campaign = SnapshotCampaign(service, cadence_days=1.0,
                                    duration_days=9.5)
        store = campaign.run(_samples(4), start_day=1.0)
        assert campaign.snapshots_taken == 10
        assert store.report_count == 40

    def test_cadence_spacing(self, service):
        campaign = SnapshotCampaign(service, cadence_days=2.0,
                                    duration_days=10)
        store = campaign.run(_samples(1), start_day=0.0)
        times = [r.scan_time
                 for r in store.report_series(sha256_of("snap0"))]
        gaps = {b - a for a, b in zip(times, times[1:], strict=False)}
        assert gaps == {2 * MINUTES_PER_DAY}

    def test_first_round_uploads_then_rescans(self, service):
        campaign = SnapshotCampaign(service, duration_days=3)
        store = campaign.run(_samples(1), start_day=1.0)
        reports = store.report_series(sha256_of("snap0"))
        assert all(r.times_submitted == 1 for r in reports)
        assert len({r.last_submission_date for r in reports}) == 1

    def test_campaign_clipped_to_window(self, service):
        campaign = SnapshotCampaign(service, cadence_days=30,
                                    duration_days=10_000)
        store = campaign.run(_samples(1), start_day=400.0)
        # Only one snapshot fits before the window ends at day 426.
        assert 1 <= campaign.snapshots_taken <= 2
        assert store.report_count == campaign.snapshots_taken

    def test_validation(self, service):
        with pytest.raises(ConfigError):
            SnapshotCampaign(service, cadence_days=0)
        with pytest.raises(ConfigError):  # rounds under a minute apart
            SnapshotCampaign(service, cadence_days=0.0005)
        with pytest.raises(ConfigError):
            SnapshotCampaign(service, duration_days=-1)
        with pytest.raises(ConfigError):
            SnapshotCampaign(service, scan_minute=99999)
        with pytest.raises(ConfigError):
            SnapshotCampaign(service).run([])

    def test_store_pinned(self):
        """The store of ``compare_protocols(dynamics_scenario(600, seed=7),
        snapshot_samples=100, duration_days=60)``: its roster, daily
        rounds from day 30, reports in ingest order."""
        config = dynamics_scenario(600, seed=7)
        organic = run_experiment(config)
        roster = [organic.service.get_sample(spec.sample.sha256)
                  for spec in PopulationGenerator(config)
                  if 0 <= spec.sample.first_seen <= 30 * MINUTES_PER_DAY]
        assert len(roster) == 29
        campaign = SnapshotCampaign(organic.service, duration_days=60)
        store = campaign.run(roster, start_day=30.0)
        store.close()
        assert campaign.snapshots_taken == 61
        assert store.report_count == 1_769
        assert store.digest().startswith("2ada85e21259")

    def test_dense_snapshots_capture_growth(self, service):
        """Daily snapshots should see the AV-Rank climb of fresh malware
        in fine detail (many distinct values)."""
        campaign = SnapshotCampaign(service, cadence_days=1.0,
                                    duration_days=90)
        store = campaign.run(_samples(10), start_day=1.0)
        distinct_ranks = 0
        for _sha, reports in store.iter_sample_reports():
            series = AVRankSeries.from_reports(reports)
            distinct_ranks = max(distinct_ranks, len(set(series.ranks)))
        assert distinct_ranks >= 4
