"""Tests for the Section 7 pipelines (repro.analysis.engines)."""

import pytest

from repro.analysis.engines import (
    APPENDIX_FILE_TYPES,
    dataset_s_frame,
    engine_correlation,
    engine_stability,
)


@pytest.fixture(scope="module")
def stability(experiment):
    return engine_stability(experiment.frame, experiment.engine_names)


@pytest.fixture(scope="module")
def correlation(experiment):
    return engine_correlation(experiment.frame, experiment.engine_names,
                              min_scans=30)


class TestDatasetSFilter:
    def test_membership_rules(self, experiment):
        frame = dataset_s_frame(experiment.frame)
        assert frame.n_samples > 0
        for sha, offset, end in zip(frame.sha256, frame.offsets[:-1],
                                    frame.offsets[1:], strict=True):
            reports = experiment.store.report_series(sha)
            assert end - offset == len(reports) >= 2
            assert reports[0].first_submission_date >= 0
            ranks = [r.positives for r in reports]
            assert max(ranks) > min(ranks)
            assert frame.ranks[offset:end].tolist() == ranks


class TestEngineStability:
    def test_flips_exist(self, stability):
        assert stability.flips.total_flips > 100

    def test_up_flips_dominate(self, stability):
        # Paper §7.1.1: 0->1 flips outnumber 1->0 roughly 2.7:1.
        assert stability.up_down_ratio > 1.3

    def test_hazards_are_rare(self, stability):
        # The headline disagreement with Zhu et al.: hazard flips are a
        # vanishing share of flips in organic scan data.
        assert stability.hazard_share < 0.02

    def test_update_coincidence_near_paper(self, stability):
        # Paper §5.5: ~60 % of flips co-occur with an engine update.
        assert 0.40 < stability.flips.update_coincidence_rate < 0.85

    def test_stable_engines_flip_less(self, stability):
        flips = stability.flips
        jiangmin = flips.flip_ratio("Jiangmin")
        fsecure = flips.flip_ratio("F-Secure")
        assert jiangmin < fsecure

    def test_flip_matrix_covers_appendix_types(self, stability):
        types, matrix = stability.flips.flip_ratio_matrix(
            APPENDIX_FILE_TYPES
        )
        assert types == list(APPENDIX_FILE_TYPES)
        assert matrix.shape == (5, 70)


class TestEngineCorrelation:
    def test_known_pairs_recovered(self, correlation):
        overall = correlation.overall
        assert overall.rho_of("Avast", "AVG") > 0.9
        assert overall.rho_of("Paloalto", "APEX") > 0.9
        assert overall.rho_of("BitDefender", "FireEye") > 0.9

    def test_independent_pair_not_strong(self, correlation):
        assert correlation.overall.rho_of("Kaspersky", "DrWeb") < 0.8

    def test_oem_family_in_one_group(self, correlation):
        groups = correlation.overall_groups()
        bdf_group = next(g for g in groups if "BitDefender" in g)
        for member in ("FireEye", "MAX", "ALYac", "Ad-Aware"):
            assert member in bdf_group

    def test_involved_engine_count_near_paper(self, correlation):
        # Paper: 17 engines at the overall level.
        involved = correlation.overall.involved_engines()
        assert 10 <= len(involved) <= 32

    def test_per_type_analyses_present(self, correlation):
        assert "Win32 EXE" in correlation.per_type

    def test_groups_for_unanalysed_type_empty(self, correlation):
        assert correlation.groups_for("TYPE_300") == []

    def test_win32_exe_avast_avg_group(self, correlation):
        groups = correlation.groups_for("Win32 EXE")
        if groups:
            flattened = {name for group in groups for name in group}
            assert "Avast" in flattened or "BitDefender" in flattened
