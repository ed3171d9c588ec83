"""Edge-case tests sweeping smaller surfaces across the package."""

import pytest

from repro.store.stats import MonthStats, compute_store_stats
from repro.store.reportstore import ReportStore
from repro.vt.clock import COLLECTION_MONTHS

from conftest import make_report, make_sha


class TestMonthStats:
    def test_gb_conversions(self):
        stats = MonthStats(0, "05/2021", 10, 2_000_000_000, 150_000_000)
        assert stats.verbose_gb == pytest.approx(2.0)
        assert stats.compressed_gb == pytest.approx(0.15)

    def test_empty_months_filled(self):
        store = ReportStore()
        store.ingest(make_report(scan_time=1000))
        stats = compute_store_stats(store)
        assert len(stats.months) == COLLECTION_MONTHS
        assert stats.months[0].report_count == 1
        assert all(m.report_count == 0 for m in stats.months[1:])


class TestStoreEdges:
    def test_single_report_sample_round_trip(self):
        store = ReportStore(block_records=1)
        report = make_report()
        store.ingest(report)
        assert store.report_series(report.sha256) == [report]

    def test_duplicate_scan_times_preserved(self):
        store = ReportStore()
        sha = make_sha("dup")
        store.ingest(make_report(sha=sha, scan_time=500))
        store.ingest(make_report(sha=sha, scan_time=500))
        assert store.report_count_of(sha) == 2

    def test_iter_sample_reports_on_empty_store(self):
        assert list(ReportStore().iter_sample_reports()) == []


class TestRenderingEdges:
    def test_sparkline_respects_width(self):
        from repro.analysis.rendering import sparkline

        line = sparkline(list(range(500)), width=40)
        assert len(line) <= 40

    def test_ascii_table_empty_rows(self):
        from repro.analysis.rendering import ascii_table

        out = ascii_table(["a", "b"], [])
        assert out.splitlines()[0].strip().startswith("a")

    def test_pct_rounding(self):
        from repro.analysis.rendering import pct

        assert pct(1.0) == "100.00%"
        assert pct(0.0) == "0.00%"


class TestAggregatorLabels:
    def test_percentage_label_coding(self):
        from repro.core.aggregation import PercentageAggregator

        report = make_report(labels=[1, 1, 0, 0, 0])
        assert PercentageAggregator(0.4).label(report) == "M"
        assert PercentageAggregator(0.9).label(report) == "B"


class TestScenarioEdges:
    def test_forced_report_count_validation(self):
        from repro.errors import ConfigError
        from repro.synth.scenario import ScenarioConfig

        with pytest.raises(ConfigError):
            ScenarioConfig(forced_report_count=0)
        assert ScenarioConfig(forced_report_count=7).forced_report_count == 7

    def test_interval_sigma_validation(self):
        from repro.errors import ConfigError
        from repro.synth.scenario import ScenarioConfig

        with pytest.raises(ConfigError):
            ScenarioConfig(interval_sigma=0.0)


class TestCLIStorePath:
    def test_dynamics_from_saved_store(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "round.store"
        assert main(["--samples", "250", "--seed", "6",
                     "generate", str(path)]) == 0
        capsys.readouterr()
        assert main(["--store", str(path), "--seed", "6",
                     "stabilization"]) == 0
        out = capsys.readouterr().out
        assert "Observation 8" in out
