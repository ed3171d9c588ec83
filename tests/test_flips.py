"""Unit tests for per-engine flip analysis (repro.core.flips)."""

import math

import pytest

from repro.core.flips import analyze_flips

from conftest import make_frame, make_report, make_sha

NAMES = ("e0", "e1", "e2", "e3", "e4")


def _flips(grouped, names):
    """The kernel over grouped reports, streamed in group order."""
    reports = [report for _, group in grouped for report in group]
    return analyze_flips(make_frame(reports), names)


def _grouped(label_rows, versions_rows=None, file_type="TXT", sha="g"):
    """Build one sample's reports from per-scan label rows."""
    sha256 = make_sha(sha)
    reports = []
    for i, labels in enumerate(label_rows):
        versions = (versions_rows[i] if versions_rows
                    else [1] * len(labels))
        reports.append(make_report(
            sha=sha256, scan_time=1000 * (i + 1), labels=list(labels),
            versions=list(versions), file_type=file_type,
        ))
    return sha256, reports


class TestFlipCounting:
    def test_up_and_down_flips(self):
        grouped = [_grouped([
            [0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.total_flips_up == 1     # e0: 0 -> 1
        assert stats.total_flips_down == 1   # e1: 1 -> 0
        assert stats.total_flips == 2

    def test_no_flip_without_change(self):
        grouped = [_grouped([[1, 0, 0, 0, 0]] * 3)]
        stats = _flips(grouped, NAMES)
        assert stats.total_flips == 0
        assert stats.pairs[0] == 2

    def test_undetected_is_transparent(self):
        """1, -1, 1 is one valid pair and no flip (paper's framing)."""
        grouped = [_grouped([
            [1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.flips_up[0] == 0
        assert stats.flips_down[0] == 0
        assert stats.pairs[0] == 1

    def test_undetected_then_flip_counts_once(self):
        grouped = [_grouped([
            [0, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.flips_up[0] == 1

    def test_single_report_samples_skipped(self):
        grouped = [_grouped([[1, 1, 1, 1, 1]])]
        stats = _flips(grouped, NAMES)
        assert stats.total_flips == 0
        assert stats.report_count == 1
        assert stats.sample_count == 1


class TestHazards:
    def test_hazard_010(self):
        grouped = [_grouped([
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.hazards_010[0] == 1
        assert stats.hazards_101[0] == 0
        assert stats.total_hazards == 1

    def test_hazard_101(self):
        grouped = [_grouped([
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.hazards_101[0] == 1

    def test_hazard_across_undetected_gap(self):
        grouped = [_grouped([
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.hazards_010[0] == 1

    def test_monotone_sequences_have_no_hazards(self):
        grouped = [_grouped([
            [0, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
        ])]
        assert _flips(grouped, NAMES).total_hazards == 0


class TestUpdateCoincidence:
    def test_flip_with_version_change(self):
        grouped = [_grouped(
            [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
            versions_rows=[[1, 1, 1, 1, 1], [2, 1, 1, 1, 1]],
        )]
        stats = _flips(grouped, NAMES)
        assert stats.flips_with_update == 1
        assert stats.update_coincidence_rate == 1.0

    def test_flip_without_version_change(self):
        grouped = [_grouped(
            [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
            versions_rows=[[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]],
        )]
        stats = _flips(grouped, NAMES)
        assert stats.flips_with_update == 0

    def test_rate_nan_when_no_flips(self):
        grouped = [_grouped([[0, 0, 0, 0, 0]] * 2)]
        assert math.isnan(
            _flips(grouped, NAMES).update_coincidence_rate
        )


class TestRatios:
    def test_flip_ratio_per_engine(self):
        grouped = [_grouped([
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.flip_ratio("e0") == pytest.approx(0.5)
        assert stats.flip_ratio("e1") == 0.0

    def test_per_type_matrix(self):
        grouped = [
            _grouped([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
                     file_type="ELF executable", sha="elf"),
            _grouped([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
                     file_type="DEX", sha="dex"),
        ]
        stats = _flips(grouped, NAMES)
        types, matrix = stats.flip_ratio_matrix(["ELF executable", "DEX"])
        assert types == ["ELF executable", "DEX"]
        assert matrix[0][0] == pytest.approx(1.0)
        assert matrix[1][0] == pytest.approx(0.0)

    def test_flippiest_and_stablest(self):
        grouped = [_grouped([
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ])]
        stats = _flips(grouped, NAMES)
        assert stats.flippiest_engines(1)[0][0] == "e0"
        assert stats.stablest_engines(1)[0][0] != "e0"
