"""Unit tests for engine correlation analysis (repro.core.correlation)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlation import (
    STRONG_THRESHOLD,
    CorrelationAnalysis,
    correlation_analysis,
    per_type_analyses,
)
from repro.errors import AnalysisError, InsufficientDataError
from repro.stats.spearman import spearman

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


class TestInputChecks:
    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError) as info:
            correlation_analysis(make_frame([]), NAMES)
        assert (info.value.needed, info.value.got) == (1, 0)

    def test_two_scans_rejected(self):
        with pytest.raises(InsufficientDataError) as info:
            correlation_analysis(make_frame(_reports(2)), NAMES)
        assert (info.value.needed, info.value.got) == (3, 2)

    def test_engine_count_mismatch_rejected(self):
        names = NAMES + ("e4", "e5", "e6", "e7", "e8")
        with pytest.raises(AnalysisError, match="names 9 engines"):
            correlation_analysis(make_frame(_reports(5)), names)

    def test_verdicts_rank_in_paper_alphabet(self):
        # R's order is undetected (−1) < benign (0) < malicious (1); the
        # plane's bytes (benign 0, malicious 1, undetected 2) are not.
        columns = ([-1, 0, 1, 1, -1, 0], [0, 0, 1, 1, -1, 1],
                   [1, -1, -1, 0, 1, 0])
        reports = [make_report(sha=f"{i:064x}", scan_time=i, n_engines=3,
                               labels=[column[i] for column in columns])
                   for i in range(6)]
        analysis = correlation_analysis(make_frame(reports), ("a", "b", "c"))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            expected = spearman(columns[i], columns[j]).rho
            assert analysis.rho[i, j] == pytest.approx(expected, abs=1e-12)

    def test_sub_frame_counts_its_scans(self):
        frame = make_frame(_reports(40))
        sub = frame.select(np.arange(frame.n_samples) % 3 == 0)
        assert correlation_analysis(sub, NAMES).n_scans == sub.n_reports == 14


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

    def test_strong_pairs_carry_rho(self):
        analysis = correlation_analysis(make_frame(_reports(400)), NAMES)
        rho = {(a, b): value for a, b, value in analysis.strong_pairs()}
        assert rho[("leader", "copier")] > 0.95
        assert rho[("leader", "copier")] == analysis.rho_of("leader", "copier")

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


def _scipy_groups(analysis: CorrelationAnalysis) -> list[list[str]]:
    """The oracle: scipy's connected components of the strong graph,
    restricted to engines with at least one strong pair."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    upper = np.triu(analysis.rho, k=1)
    strong = np.isfinite(upper) & (upper > analysis.threshold)
    _, labels = connected_components(csr_matrix(strong), directed=False)
    involved = strong.any(axis=0) | strong.any(axis=1)
    members: dict[int, list[str]] = {}
    for i in np.flatnonzero(involved):
        members.setdefault(int(labels[i]), []).append(analysis.engine_names[i])
    return sorted((sorted(group) for group in members.values()),
                  key=lambda group: (-len(group), group))


#: ρ values: NaN (an engine that never varies), exactly the threshold
#: (not strong: the test is strict), its float neighbours, and the rest.
_RHO = st.one_of(
    st.just(float("nan")),
    st.just(STRONG_THRESHOLD),
    st.sampled_from([np.nextafter(STRONG_THRESHOLD, 1.0),
                     np.nextafter(STRONG_THRESHOLD, 0.0), 1.0]),
    st.floats(-1.0, 1.0),
)


@st.composite
def _analyses(draw):
    n = draw(st.integers(0, 12))
    rho = np.full((n, n), np.nan)
    for i in range(n):
        rho[i, i] = 1.0
        for j in range(i + 1, n):
            rho[i, j] = rho[j, i] = draw(_RHO)
    # Shuffled names, so sorting by name is not sorting by column.
    names = draw(st.permutations([f"engine{k:02d}" for k in range(n)]))
    return CorrelationAnalysis(engine_names=tuple(names), rho=rho,
                               threshold=STRONG_THRESHOLD, n_scans=100)


class TestGroupsDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_analyses())
    def test_groups_match_scipy_components(self, analysis):
        assert analysis.groups() == _scipy_groups(analysis)

    def test_value_at_threshold_is_not_an_edge(self):
        rho = np.array([[1.0, STRONG_THRESHOLD], [STRONG_THRESHOLD, 1.0]])
        analysis = CorrelationAnalysis(("a", "b"), rho, STRONG_THRESHOLD, 10)
        assert analysis.groups() == []
