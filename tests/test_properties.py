"""Property-based tests (hypothesis) for core data structures and
invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.avrank import AVRankSeries
from repro.core.categorize import categorize, category_distribution
from repro.core.stabilization import avrank_stabilization, label_stabilization
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import boxplot_stats, quantile
from repro.stats.ranking import fractional_ranks
from repro.stats.spearman import spearman
from repro.store import codec
from repro.store.shard import CompressedBlock
from repro.vt.reports import ScanReport, decode_labels, encode_labels

from conftest import make_series_frame

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ranks_strategy = st.lists(st.integers(min_value=0, max_value=70),
                          min_size=1, max_size=30)
labels_strategy = st.lists(st.sampled_from([-1, 0, 1]),
                           min_size=1, max_size=70)


def _series(ranks: list[int]) -> AVRankSeries:
    return AVRankSeries(
        sha256="ab" * 32,
        file_type="TXT",
        fresh=True,
        times=tuple(range(0, len(ranks) * 1000, 1000)),
        ranks=tuple(ranks),
    )


# ---------------------------------------------------------------------------
# Report encoding
# ---------------------------------------------------------------------------


@given(labels_strategy)
def test_label_encoding_round_trips(labels):
    assert decode_labels(encode_labels(labels)) == labels


@given(
    labels=labels_strategy,
    scan_time=st.integers(min_value=0, max_value=10**7),
    first_sub=st.integers(min_value=-10**6, max_value=10**6),
)
def test_report_codec_round_trips(labels, scan_time, first_sub):
    report = ScanReport(
        sha256="cd" * 32,
        file_type="Win32 EXE",
        scan_time=scan_time,
        positives=sum(1 for v in labels if v == 1),
        total=sum(1 for v in labels if v != -1),
        labels=encode_labels(labels),
        versions=tuple(range(len(labels))),
        first_submission_date=first_sub,
        last_submission_date=max(first_sub, 0),
        last_analysis_date=scan_time,
        times_submitted=1,
    )
    assert codec.decode_report(codec.encode_report(report)) == report


@given(st.lists(st.tuples(labels_strategy,
                          st.integers(0, 10**9),
                          st.sampled_from(["Win32 EXE", "PDF", ""])),
                max_size=30))
def test_block_framing_round_trips(rows):
    records = [codec.encode_report(ScanReport(
        sha256=f"{i % 256:02x}" * 32,
        file_type=file_type,
        scan_time=scan_time,
        positives=sum(1 for v in labels if v == 1),
        total=sum(1 for v in labels if v != -1),
        labels=encode_labels(labels),
        versions=tuple(range(len(labels))),
        first_submission_date=0,
        last_submission_date=0,
        last_analysis_date=scan_time,
        times_submitted=1,
    )) for i, (labels, scan_time, file_type) in enumerate(rows)]
    batch = CompressedBlock.from_records(records).batch()
    assert batch.to_records() == records
    assert [batch.report(slot) for slot in range(len(batch))] == [
        codec.decode_report(record) for record in records]


# ---------------------------------------------------------------------------
# Statistics invariants
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=200))
def test_cdf_is_monotone_and_normalised(values):
    cdf = EmpiricalCDF(values)
    steps = list(cdf.steps())
    fractions = [f for _, f in steps]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    assert cdf.at(cdf.max) == 1.0
    assert cdf.at(cdf.min - 1) == 0.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
       st.floats(0.0, 1.0))
def test_quantile_within_data_range(values, q):
    data = sorted(values)
    result = quantile(data, q)
    assert data[0] <= result <= data[-1]


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=150))
def test_boxplot_geometry(values):
    stats = boxplot_stats(values)
    assert stats.q1 <= stats.median <= stats.q3
    assert stats.whisker_low <= stats.q1
    assert stats.q3 <= stats.whisker_high
    assert 0 <= stats.outlier_count < len(values) or len(values) == stats.outlier_count == 0


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=100))
def test_fractional_ranks_are_a_permutation_mean(values):
    ranks = fractional_ranks(values)
    n = len(values)
    assert sum(ranks) == (n * (n + 1)) / 2
    assert min(ranks) >= 1
    assert max(ranks) <= n


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=3, max_size=100))
def test_spearman_symmetry_and_bounds(pairs):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    rho_xy = spearman(x, y).rho
    rho_yx = spearman(y, x).rho
    if math.isnan(rho_xy):
        assert math.isnan(rho_yx)
    else:
        assert rho_xy == rho_yx
        assert -1.0 <= rho_xy <= 1.0


@given(st.lists(st.integers(-3, 3), min_size=3, max_size=80))
def test_spearman_self_correlation_is_one(values):
    result = spearman(values, values)
    if not math.isnan(result.rho):
        assert result.rho == 1.0


# ---------------------------------------------------------------------------
# AV-Rank analysis invariants
# ---------------------------------------------------------------------------


@given(ranks_strategy)
def test_delta_bounds(ranks):
    s = _series(ranks)
    assert 0 <= s.delta_overall <= 70
    for d in s.adjacent_deltas():
        assert 0 <= d <= s.delta_overall or s.delta_overall == 0


@given(ranks_strategy)
def test_adjacent_delta_never_exceeds_overall(ranks):
    s = _series(ranks)
    if s.multi:
        assert max(s.adjacent_deltas()) <= s.delta_overall


@given(ranks_strategy, st.integers(1, 70))
def test_categorize_consistent_with_label_rule(ranks, threshold):
    s = _series(ranks)
    category = categorize(s, threshold)
    labels = {rank >= threshold for rank in ranks}
    if category == "white":
        assert labels == {False}
    elif category == "black":
        assert labels == {True}
    else:
        assert labels == {True, False}


@settings(deadline=None)
@given(st.lists(ranks_strategy, min_size=1, max_size=20))
def test_category_counts_partition(pools):
    series_pool = [_series(r) for r in pools]
    frame = make_series_frame(series_pool)
    for counts in category_distribution(frame, [1, 5, 25, 50]):
        assert counts.white + counts.black + counts.gray == len(series_pool)


@given(ranks_strategy, st.integers(0, 5))
def test_stabilization_monotone_in_fluctuation(ranks, r):
    s = _series(ranks)
    narrow = avrank_stabilization(s, r)
    wide = avrank_stabilization(s, r + 1)
    if narrow.stabilized:
        assert wide.stabilized
        assert wide.scan_index <= narrow.scan_index


@given(ranks_strategy, st.integers(1, 70))
def test_label_stabilization_consistent(ranks, threshold):
    s = _series(ranks)
    out = label_stabilization(s, threshold)
    labels = s.labels_under(threshold)
    if out.stabilized:
        suffix = labels[out.scan_index - 2:]
        assert len(set(suffix)) == 1
        assert suffix[-1] == out.final_label
    elif s.multi:
        # Not stabilised means the last two labels differ.
        assert labels[-1] != labels[-2]


@given(ranks_strategy)
def test_stable_sample_never_has_positive_delta(ranks):
    s = _series(ranks)
    assert s.stable == (s.delta_overall == 0)


# ---------------------------------------------------------------------------
# Correlation matrix invariants
# ---------------------------------------------------------------------------


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_spearman_matrix_bounds(seed):
    from spearman_oracle import spearman_matrix

    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, 2, size=(30, 5))
    rho = spearman_matrix(matrix)
    finite = rho[np.isfinite(rho)]
    assert np.all(finite <= 1.0 + 1e-9)
    assert np.all(finite >= -1.0 - 1e-9)
