"""Differential tests: the §7 array kernels against per-report oracles.

The flip oracle is the per-report loop the §7.1 analysis ran before it
read frame planes (``_accumulate_sample``, kept here unchanged); the
correlation oracle stacks every report's label row into R, as the §7.2
analysis used to.  Random grouped report streams go through row and
columnar stores, and the kernels over
:meth:`~repro.store.reportstore.ReportStore.series_frame` must reproduce
both oracles exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.analysis.engines import dataset_s_frame, engine_stability
from repro.core.correlation import correlation_analysis, per_type_analyses
from repro.core.flips import FlipStats, analyze_flips
from repro.errors import AnalysisError, InsufficientDataError
from repro.stats.spearman import spearman_matrix
from repro.store.columnar import SeriesFrame
from repro.store.reportstore import ReportStore
from repro.vt.clock import MONTH_STARTS
from repro.vt.filetypes import TOP20_FILE_TYPES
from repro.vt.reports import ScanReport

from conftest import make_frame, make_report, make_sha

NAMES = ("e0", "e1", "e2", "e3")
TYPES = ("Win32 EXE", "PDF", "TXT", "Unlisted")
_UNDETECTED_BYTE = 2


# ---------------------------------------------------------------------------
# Oracles


def oracle_flips(sample_reports, engine_names: Sequence[str]) -> FlipStats:
    """The §7.1 analysis as a per-sample, per-report loop."""
    n_engines = len(engine_names)
    stats = FlipStats(
        engine_names=tuple(engine_names),
        flips_up=np.zeros(n_engines, dtype=np.int64),
        flips_down=np.zeros(n_engines, dtype=np.int64),
        pairs=np.zeros(n_engines, dtype=np.int64),
        hazards_010=np.zeros(n_engines, dtype=np.int64),
        hazards_101=np.zeros(n_engines, dtype=np.int64),
    )
    for _, reports in sample_reports:
        stats.sample_count += 1
        stats.report_count += len(reports)
        if len(reports) < 2:
            continue
        _accumulate_sample(stats, reports, n_engines)
    return stats


def _accumulate_sample(
    stats: FlipStats, reports: Sequence[ScanReport], n_engines: int
) -> None:
    """Vectorised per-sample accumulation.

    Tracks, per engine, the last and second-to-last *responded* verdicts
    so undetected scans are transparent (a 1, -1, 1 run is one pair and
    no flip, matching the paper's sequence-of-valid-labels framing).
    """
    ftype = reports[0].file_type
    type_flips = stats.per_type_flips.get(ftype)
    if type_flips is None:
        type_flips = np.zeros(n_engines, dtype=np.int64)
        stats.per_type_flips[ftype] = type_flips
        stats.per_type_pairs[ftype] = np.zeros(n_engines, dtype=np.int64)
    type_pairs = stats.per_type_pairs[ftype]

    # Last two responded verdicts per engine; -1 marks "none yet".
    last = np.full(n_engines, -1, dtype=np.int8)
    second_last = np.full(n_engines, -1, dtype=np.int8)
    last_version = np.zeros(n_engines, dtype=np.int64)

    for report in reports:
        labels = np.frombuffer(report.labels, dtype=np.uint8).astype(np.int8)
        versions = np.asarray(report.versions, dtype=np.int64)
        responded = labels != _UNDETECTED_BYTE

        paired = responded & (last >= 0)
        flipped = paired & (labels != last)
        up = flipped & (labels == 1)
        down = flipped & (labels == 0)

        stats.pairs += paired
        stats.flips_up += up
        stats.flips_down += down
        type_pairs += paired
        type_flips += flipped

        if flipped.any():
            updated = flipped & (versions != last_version)
            stats.flips_with_update += int(updated.sum())
            # Hazards: the verdict two responses ago equals the new one.
            hazard = flipped & (second_last >= 0) & (second_last == labels)
            if hazard.any():
                stats.hazards_010 += hazard & (labels == 0)
                stats.hazards_101 += hazard & (labels == 1)

        second_last = np.where(responded, last, second_last)
        last = np.where(responded, labels, last)
        last_version = np.where(responded, versions, last_version)


def oracle_dataset_s(sample_reports):
    """Grouped reports of the paper's dataset S, filtered per report."""
    wanted = set(TOP20_FILE_TYPES)
    for sha, reports in sample_reports:
        ranks = [r.positives for r in reports]
        if (len(reports) >= 2 and reports[0].file_type in wanted
                and reports[0].first_submission_date >= 0
                and max(ranks) != min(ranks)):
            yield sha, reports


def oracle_rho(reports: Sequence[ScanReport]) -> np.ndarray:
    """Spearman ρ over R stacked from per-report label rows."""
    matrix = np.vstack([np.frombuffer(r.labels, dtype=np.uint8).astype(np.int8)
                        for r in reports])
    matrix[matrix == 2] = -1
    return spearman_matrix(matrix)


# ---------------------------------------------------------------------------
# Random grouped report streams

_M1 = MONTH_STARTS[1]

#: (arrival, scan time, labels, versions).  Reports are ingested in
#: arrival order, so samples interleave; the scan times repeat and
#: straddle a month boundary.
_scan = st.tuples(
    st.integers(0, 30),
    st.sampled_from([5, 60, 61, _M1 - 1, _M1, _M1 + 9]),
    st.lists(st.sampled_from([0, 1, -1]), min_size=len(NAMES),
             max_size=len(NAMES)),
    st.lists(st.integers(1, 3), min_size=len(NAMES), max_size=len(NAMES)),
)

#: (file type, first submission, scans).
_sample = st.tuples(
    st.sampled_from(TYPES),
    st.sampled_from([-1, 0, 40]),
    st.lists(_scan, min_size=1, max_size=7),
)

_streams = st.lists(_sample, min_size=1, max_size=8)

#: Hand-made stream with every case the kernels must get right: an
#: undetected run, both hazards, a version bump on a flip, equal scan
#: times, a single-report sample, an unlisted type and a stale sample.
_EDGE_STREAM = [
    ("Win32 EXE", 0, [
        (0, 5, [0, 1, 1, 0], [1, 1, 1, 1]),
        (1, 60, [1, 0, -1, 0], [2, 1, 1, 1]),
        (2, 60, [0, 1, -1, 1], [2, 1, 1, 1]),
        (5, _M1, [0, 1, 1, 1], [2, 1, 2, 1]),
    ]),
    ("PDF", 0, [(3, 61, [1, 1, 1, 1], [1, 1, 1, 1])]),
    ("Unlisted", 40, [
        (1, 5, [0, 0, 0, 0], [1, 1, 1, 1]),
        (4, _M1 + 9, [1, 0, 0, -1], [3, 1, 1, 1]),
    ]),
    ("TXT", -1, [
        (2, 61, [-1, -1, 0, 0], [1, 1, 1, 1]),
        (6, _M1 - 1, [-1, 1, 1, 0], [1, 1, 1, 1]),
        (7, _M1 + 9, [1, 0, 1, 0], [1, 1, 1, 1]),
    ]),
]


def _store(stream, block_format: str, block_records: int = 3,
           close: bool = True) -> ReportStore:
    arrivals = []
    for i, (file_type, first, scans) in enumerate(stream):
        for j, (arrival, when, labels, versions) in enumerate(scans):
            report = make_report(
                sha=make_sha(f"kernel-{i}"), file_type=file_type,
                scan_time=when, labels=labels, versions=versions,
                first_submission=first, n_engines=len(NAMES))
            arrivals.append(((arrival, i, j), report))
    arrivals.sort(key=lambda item: item[0])
    store = ReportStore(block_records=block_records,
                        block_format=block_format)
    store.ingest_batch(report for _, report in arrivals)
    if close:
        store.close()
    return store


def assert_same_flips(got: FlipStats, expected: FlipStats) -> None:
    for name in ("flips_up", "flips_down", "pairs", "hazards_010",
                 "hazards_101"):
        got_arr, exp_arr = getattr(got, name), getattr(expected, name)
        assert got_arr.dtype == exp_arr.dtype, name
        np.testing.assert_array_equal(got_arr, exp_arr, err_msg=name)
    for name in ("per_type_flips", "per_type_pairs"):
        got_map, exp_map = getattr(got, name), getattr(expected, name)
        assert list(got_map) == list(exp_map), name
        for ftype, exp_arr in exp_map.items():
            np.testing.assert_array_equal(got_map[ftype], exp_arr,
                                          err_msg=f"{name}[{ftype}]")
    assert (got.flips_with_update, got.report_count, got.sample_count) == (
        expected.flips_with_update, expected.report_count,
        expected.sample_count)


# ---------------------------------------------------------------------------
# Differentials


class TestFlipKernel:
    @settings(max_examples=60, deadline=None)
    @given(stream=_streams, block_records=st.integers(1, 5),
           close=st.booleans())
    @example(stream=_EDGE_STREAM, block_records=2, close=True)
    def test_every_sample_matches_oracle(self, store_block_format, stream,
                                         block_records, close):
        store = _store(stream, store_block_format, block_records, close)
        assert_same_flips(analyze_flips(store.series_frame(), NAMES),
                          oracle_flips(store.iter_sample_reports(), NAMES))

    @settings(max_examples=60, deadline=None)
    @given(stream=_streams, block_records=st.integers(1, 5))
    @example(stream=_EDGE_STREAM, block_records=2)
    def test_dataset_s_matches_oracle(self, store_block_format, stream,
                                      block_records):
        store = _store(stream, store_block_format, block_records)
        expected = oracle_flips(
            oracle_dataset_s(store.iter_sample_reports()), NAMES)
        assert_same_flips(engine_stability(store.series_frame(), NAMES).flips,
                          expected)

    def test_edge_stream_exercises_every_case(self, store_block_format):
        stats = analyze_flips(
            _store(_EDGE_STREAM, store_block_format).series_frame(), NAMES)
        assert stats.hazards_010.sum() and stats.hazards_101.sum()
        assert 0 < stats.flips_with_update < stats.total_flips
        assert set(stats.per_type_pairs) == {"Win32 EXE", "Unlisted", "TXT"}


class TestCorrelationKernel:
    @settings(max_examples=60, deadline=None)
    @given(stream=_streams, block_records=st.integers(1, 5))
    @example(stream=_EDGE_STREAM, block_records=2)
    def test_rho_matches_stacked_rows(self, store_block_format, stream,
                                      block_records):
        store = _store(stream, store_block_format, block_records)
        reports = list(store.iter_reports())
        assume(len(reports) >= 3)
        frame = store.series_frame()
        overall = correlation_analysis(frame, NAMES)
        np.testing.assert_array_equal(overall.rho, oracle_rho(reports))
        assert overall.n_scans == len(reports)

        # A selected sub-frame reads only its own scans, in stream order.
        dataset_s = dataset_s_frame(frame)
        members = set(dataset_s.sha256)
        in_s = [r for r in reports if r.sha256 in members]
        if len(in_s) >= 3:
            np.testing.assert_array_equal(
                correlation_analysis(dataset_s, NAMES).rho, oracle_rho(in_s))

        by_type: dict[str, list[ScanReport]] = {}
        for report in reports:
            by_type.setdefault(report.file_type, []).append(report)
        expected = {ftype: oracle_rho(group)
                    for ftype, group in by_type.items() if len(group) >= 3}
        got = per_type_analyses(frame, NAMES, TYPES, min_scans=3)
        assert list(got) == list(expected)
        for ftype, rho in expected.items():
            np.testing.assert_array_equal(got[ftype].rho, rho)


class TestFramePlanes:
    def test_rows_read_each_report_in_time_order(self, store_block_format):
        store = _store(_EDGE_STREAM, store_block_format, block_records=2)
        frame = store.series_frame()
        for s, (sha, reports) in enumerate(store.iter_sample_reports()):
            assert frame.sha256[s] == sha
            rows = frame.rows[frame.offsets[s]:frame.offsets[s + 1]]
            assert [frame.labels[r].tobytes() for r in rows] == \
                [r.labels for r in reports]
            assert [tuple(frame.versions[r].tolist()) for r in rows] == \
                [r.versions for r in reports]

    def test_width_mismatch_is_an_analysis_error(self):
        frame = make_frame(
            [make_report(sha=make_sha("w"), labels=[0, 1, 1], n_engines=3)])
        with pytest.raises(AnalysisError, match="carry 3 engine verdicts"):
            analyze_flips(frame, NAMES)
        with pytest.raises(AnalysisError, match="names 4 engines"):
            correlation_analysis(frame, NAMES)

    def test_mixed_widths_keep_no_planes(self):
        frame = make_frame([
            make_report(sha=make_sha("a"), labels=[0, 1, 1], n_engines=3),
            make_report(sha=make_sha("b"), labels=[0, 1, 1, 0], n_engines=4),
        ])
        assert frame.labels is None and frame.widths == (3, 4)
        with pytest.raises(AnalysisError, match="carry 3 and 4"):
            analyze_flips(frame, NAMES)
        assert frame.n_reports == 2  # the series side is unaffected

    def test_empty_stream(self):
        frame = make_frame([])
        assert analyze_flips(frame, NAMES).sample_count == 0
        with pytest.raises(InsufficientDataError):
            correlation_analysis(frame, NAMES)

    def test_metadata_only_batches_have_no_planes(self):
        store = _store(_EDGE_STREAM, "columnar")
        frame = SeriesFrame.from_batches(store.iter_batches(planes=False))
        assert frame.labels is None and frame.widths == (len(NAMES),)
        with pytest.raises(AnalysisError, match="without label planes"):
            analyze_flips(frame, NAMES)
