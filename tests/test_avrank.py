"""Unit tests for AV-Rank series (repro.core.avrank)."""

import pytest

from repro.core.avrank import (
    AVRankSeries,
    collect_series,
    split_stable_dynamic,
)
from repro.errors import InsufficientDataError

from conftest import make_report, make_series_frame, make_sha


def series(ranks, times=None, file_type="Win32 EXE", fresh=True,
           sha=None) -> AVRankSeries:
    times = times or tuple(range(0, len(ranks) * 1000, 1000))
    return AVRankSeries(
        sha256=sha or make_sha(str(ranks)),
        file_type=file_type,
        fresh=fresh,
        times=tuple(times),
        ranks=tuple(ranks),
    )


class TestSeriesGeometry:
    def test_delta_overall(self):
        assert series([3, 7, 5]).delta_overall == 4
        assert series([2, 2, 2]).delta_overall == 0

    def test_stable_iff_delta_zero(self):
        assert series([4, 4]).stable
        assert not series([4, 5]).stable

    def test_multi(self):
        assert not series([1]).multi
        assert series([1, 1]).multi

    def test_adjacent_deltas(self):
        assert series([1, 4, 2, 2]).adjacent_deltas() == [3, 2, 0]

    def test_span(self):
        s = series([0, 0], times=(0, 2880))
        assert s.span_minutes == 2880
        assert s.span_days == 2.0

    def test_labels_under_threshold(self):
        s = series([0, 5, 10])
        assert s.labels_under(5) == ["B", "M", "M"]
        assert s.labels_under(11) == ["B", "B", "B"]

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            series([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AVRankSeries("a" * 64, "TXT", True, (0, 1), (1,))

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            series([1, 2], times=(100, 50))


class TestFromReports:
    def test_builds_from_reports(self):
        sha = make_sha("x")
        reports = [
            make_report(sha=sha, scan_time=100, labels=[1, 0, 0, 0, 0]),
            make_report(sha=sha, scan_time=200, labels=[1, 1, 0, 0, 0]),
        ]
        s = AVRankSeries.from_reports(reports)
        assert s.ranks == (1, 2)
        assert s.times == (100, 200)
        assert s.fresh

    def test_pre_window_sample_not_fresh(self):
        report = make_report(first_submission=-5)
        assert not AVRankSeries.from_reports([report]).fresh

    def test_empty_reports_rejected(self):
        with pytest.raises(InsufficientDataError):
            AVRankSeries.from_reports([])

    def test_collect_series(self):
        sha = make_sha("y")
        grouped = [(sha, [make_report(sha=sha, scan_time=1)])]
        out = collect_series(grouped)
        assert len(out) == 1
        assert out[0].sha256 == sha


class TestSplit:
    def test_split_partitions_multi_only(self):
        pool = [
            series([1]),          # single-report: excluded
            series([2, 2]),       # stable
            series([2, 3]),       # dynamic
        ]
        stable, dynamic = split_stable_dynamic(pool)
        assert [s.ranks for s in stable] == [(2, 2)]
        assert [s.ranks for s in dynamic] == [(2, 3)]

    def test_multi_report_series_filter(self):
        frame = make_series_frame([series([1]), series([1, 1])])
        assert frame.counts()[frame.multi_mask()].tolist() == [2]


class TestDatasetS:
    def test_requires_dynamic_fresh_top20_multi(self):
        top20 = frozenset({"Win32 EXE"})
        pool = [
            series([1, 5]),                              # in S
            series([1, 1]),                              # stable: out
            series([1, 5], fresh=False),                 # not fresh: out
            series([1, 5], file_type="TYPE_021"),        # minor type: out
            series([5]),                                 # single: out
        ]
        frame = make_series_frame(pool)
        selected = frame.select(frame.dataset_s_mask(top20))
        assert selected.n_samples == 1
        assert selected.delta_overall().tolist() == [4]
