"""Unit tests for engine correlation analysis (repro.core.correlation)."""

import numpy as np
import pytest

from repro.core.correlation import (
    build_result_matrix,
    correlation_analysis,
    per_type_analyses,
)
from repro.errors import AnalysisError, InsufficientDataError

from conftest import make_frame, make_report

NAMES = ("leader", "copier", "indep", "noisy")


def _reports(n=200, copy_fidelity=1.0, seed=0, file_type="TXT"):
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(n):
        leader = int(rng.random() < 0.3)
        copier = leader if rng.random() < copy_fidelity else 1 - leader
        indep = int(rng.random() < 0.3)
        noisy = int(rng.random() < 0.5)
        reports.append(make_report(
            sha=f"{i:064x}", scan_time=i * 10, file_type=file_type,
            labels=[leader, copier, indep, noisy],
            versions=[1, 1, 1, 1],
        ))
    return reports


def _plane(reports):
    return make_frame(reports).labels


class TestResultMatrix:
    def test_values_in_paper_alphabet(self):
        reports = [make_report(labels=[1, 0, -1, 0, 1])]
        matrix = build_result_matrix(_plane(reports), 5)
        assert matrix.tolist() == [[1, 0, -1, 0, 1]]

    def test_row_per_scan(self):
        matrix = build_result_matrix(_plane(_reports(50)), 4)
        assert matrix.shape == (50, 4)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_result_matrix(_plane([]), 4)

    def test_engine_count_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            build_result_matrix(_plane(_reports(5)), 9)


class TestAnalysis:
    def test_copier_pair_is_strong(self):
        analysis = correlation_analysis(make_frame(_reports(400)), NAMES)
        assert analysis.rho_of("leader", "copier") > 0.95
        assert ("leader", "copier") in {
            (a, b) for a, b, _ in analysis.strong_pairs()
        }

    def test_independent_pair_is_weak(self):
        analysis = correlation_analysis(make_frame(_reports(400)), NAMES)
        assert abs(analysis.rho_of("leader", "indep")) < 0.3

    def test_imperfect_copier_below_perfect(self):
        perfect = correlation_analysis(make_frame(_reports(400, 1.0)), NAMES)
        sloppy = correlation_analysis(make_frame(_reports(400, 0.8, seed=1)), NAMES)
        assert (sloppy.rho_of("leader", "copier")
                < perfect.rho_of("leader", "copier"))

    def test_strong_pairs_sorted_desc(self):
        analysis = correlation_analysis(make_frame(_reports(400)), NAMES, threshold=0.1)
        values = [v for _, _, v in analysis.strong_pairs()]
        assert values == sorted(values, reverse=True)

    def test_groups_are_connected_components(self):
        analysis = correlation_analysis(make_frame(_reports(400)), NAMES)
        groups = analysis.groups()
        assert ["copier", "leader"] in groups

    def test_involved_engines(self):
        analysis = correlation_analysis(make_frame(_reports(400)), NAMES)
        assert analysis.involved_engines() >= {"leader", "copier"}

    def test_graph_carries_rho(self):
        analysis = correlation_analysis(make_frame(_reports(400)), NAMES)
        graph = analysis.graph()
        assert graph["leader"]["copier"]["rho"] > 0.95

    def test_n_scans_recorded(self):
        analysis = correlation_analysis(make_frame(_reports(123)), NAMES)
        assert analysis.n_scans == 123


class TestPerType:
    def test_groups_by_type_with_min_scans(self):
        reports = (_reports(100, file_type="TXT")
                   + _reports(10, file_type="PDF", seed=3))
        out = per_type_analyses(make_frame(reports), NAMES, ["TXT", "PDF"],
                                min_scans=50)
        assert "TXT" in out
        assert "PDF" not in out  # only 10 scans

    def test_unrequested_types_excluded(self):
        reports = _reports(100, file_type="TXT")
        out = per_type_analyses(make_frame(reports), NAMES, ["PDF"], min_scans=1)
        assert out == {}
