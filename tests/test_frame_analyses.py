"""Differential test: every dataset-level analysis over a SeriesFrame
equals the same analysis composed from the per-sample API.

The figure pipelines (Figures 2-9, Observation 8, the §8 window check)
read flat frame arrays.  Their oracle here is built from
:class:`~repro.core.avrank.AVRankSeries` objects and the per-sample
functions (:func:`split_stable_dynamic`, :func:`categorize`,
:func:`avrank_stabilization`, :func:`label_stabilization`), looping in
sample order the way a python pass over a series list would.  Results
must match exactly: same result types, same dict key order, bit-equal
floats, and the same exception type where the oracle raises (an empty
dataset, a bucket-less correlation, a negative r, a threshold below 1).

Figure 7's over-cap sampler keeps its ``random.Random`` draw order; the
oracle carries its own copy of that loop.
"""

from __future__ import annotations

import dataclasses
import random
import struct
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import dynamics, stabilization, windows
from repro.core.avrank import AVRankSeries, split_stable_dynamic
from repro.core.categorize import (
    BLACK,
    GRAY,
    WHITE,
    CategoryCounts,
    categorize,
    category_distribution,
)
from repro.core.metrics import (
    BoxSummary,
    PairwiseDifferences,
    pairwise_differences,
)
from repro.core.stabilization import (
    StabilizationSummary,
    avrank_stabilization,
    label_stabilization,
    summarize_avrank_stabilization,
    summarize_label_stabilization,
)
from repro.errors import ConfigError
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import boxplot_stats, mean
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.filetypes import PE_FILE_TYPES

from conftest import make_series_frame

DAY = MINUTES_PER_DAY

# ---------------------------------------------------------------------------
# Strategies: series lists with long, single-scan and tied trajectories
# ---------------------------------------------------------------------------

FILE_TYPES = ("Win32 EXE", "Win32 DLL", "PDF", "TXT", "HTML")


@st.composite
def series_strategy(draw) -> AVRankSeries:
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 30)))
    # A few distinct levels give ties; the odd jump gives spread.
    levels = draw(st.lists(st.integers(0, 70), min_size=1, max_size=4))
    ranks = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    first = draw(st.integers(0, 60 * DAY))
    gaps = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 3 * DAY),
                  st.integers(3 * DAY, 120 * DAY)),
        min_size=n - 1, max_size=n - 1))
    times = [first]
    for gap in gaps:
        times.append(times[-1] + gap)
    return AVRankSeries(
        sha256=f"{draw(st.integers(0, 2 ** 32)):064x}",
        file_type=draw(st.sampled_from(FILE_TYPES)),
        fresh=draw(st.booleans()),
        times=tuple(times),
        ranks=tuple(ranks),
    )


series_lists = st.lists(series_strategy(), min_size=0, max_size=25)

# ---------------------------------------------------------------------------
# Exact comparison
# ---------------------------------------------------------------------------


def assert_identical(got, want, path="result"):
    """Recursive equality that also checks types, key order and float
    bits."""
    assert type(got) is type(want), (path, type(got), type(want))
    if isinstance(want, EmpiricalCDF):
        assert_identical(got._sorted, want._sorted, f"{path}._sorted")
        assert got.n == want.n, path
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_identical(getattr(got, f.name), getattr(want, f.name),
                             f"{path}.{f.name}")
    elif isinstance(want, dict):
        assert_identical(list(got), list(want), f"{path} keys")
        for key in want:
            assert_identical(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), (path, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want, strict=True)):
            assert_identical(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), \
            (path, got, want)
    else:
        assert got == want, (path, got, want)


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", exception type)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the type is the outcome
        return "raised", type(exc)


def assert_same_outcome(frame_fn, oracle_fn, frame, series, *args,
                        **kwargs):
    got = outcome(frame_fn, frame, *args, **kwargs)
    want = outcome(oracle_fn, series, *args, **kwargs)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert_identical(got[1], want[1])
    else:
        assert got[1] is want[1]


# ---------------------------------------------------------------------------
# Oracles: the per-sample API looped over a series list
# ---------------------------------------------------------------------------


def oracle_stable_dynamic_split(series):
    stable, dynamic = split_stable_dynamic(series)
    return dynamics.StableDynamicSplit(
        n_stable=len(stable),
        n_dynamic=len(dynamic),
        stable_report_cdf=EmpiricalCDF([s.n for s in stable]),
        dynamic_report_cdf=EmpiricalCDF([s.n for s in dynamic]),
    )


def oracle_stable_sample_profile(series, rank_group_cap=10):
    stable, _ = split_stable_dynamic(series)
    spans: dict[int, list[float]] = defaultdict(list)
    for s in stable:
        spans[min(s.ranks[0], rank_group_cap)].append(s.span_days)
    all_spans = sorted(s.span_days for s in stable)
    benign = [s.span_days for s in stable if s.ranks[0] == 0]
    return dynamics.StableSampleProfile(
        rank_cdf=EmpiricalCDF([s.ranks[0] for s in stable]),
        span_by_rank={rank: boxplot_stats(values)
                      for rank, values in spans.items()},
        median_span_days=(all_spans[len(all_spans) // 2]
                          if all_spans else 0.0),
        benign_mean_span_days=sum(benign) / len(benign) if benign else 0.0,
    )


def oracle_delta_distributions(series):
    return dynamics.DeltaDistributions(
        delta_cdf=EmpiricalCDF([d for s in series
                                for d in s.adjacent_deltas()]),
        delta_overall_cdf=EmpiricalCDF([s.delta_overall for s in series]),
    )


def oracle_per_type_dynamics(series):
    adjacent: dict[str, list[int]] = defaultdict(list)
    overall: dict[str, list[int]] = defaultdict(list)
    for s in series:
        adjacent[s.file_type].extend(s.adjacent_deltas())
        overall[s.file_type].append(s.delta_overall)
    return dynamics.PerTypeDynamics(
        adjacent={t: BoxSummary.of(v) for t, v in adjacent.items() if v},
        overall={t: BoxSummary.of(v) for t, v in overall.items() if v},
    )


def oracle_pairwise_differences(series, max_pairs_per_sample=200, seed=0):
    """The all-pairs enumeration with its seeded over-cap sampler."""
    intervals: list[float] = []
    diffs: list[int] = []
    rng = random.Random(f"pairwise:{seed}")
    for s in series:
        n = s.n
        if n * (n - 1) // 2 <= max_pairs_per_sample:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            pairs = [tuple(sorted(rng.sample(range(n), 2)))
                     for _ in range(max_pairs_per_sample)]
        for i, j in pairs:
            intervals.append((s.times[j] - s.times[i]) / MINUTES_PER_DAY)
            diffs.append(abs(s.ranks[j] - s.ranks[i]))
    return PairwiseDifferences(tuple(intervals), tuple(diffs))


def oracle_interval_effect(series, bin_days=30.0, max_pairs_per_sample=200):
    pairs = oracle_pairwise_differences(series, max_pairs_per_sample)
    return dynamics.IntervalEffect(
        pairs=pairs,
        binned_boxes={bucket: boxplot_stats(values) for bucket, values
                      in sorted(pairs.binned(bin_days).items()) if values},
        correlation=pairs.interval_correlation(),
    )


def oracle_category_distribution(series, thresholds):
    out = []
    for t in thresholds:
        if t < 1:
            raise ConfigError(f"threshold must be >= 1, got {t}")
        tally = {WHITE: 0, BLACK: 0, GRAY: 0}
        for s in series:
            tally[categorize(s, t)] += 1
        out.append(CategoryCounts(t, tally[WHITE], tally[BLACK],
                                  tally[GRAY]))
    return out


def oracle_threshold_impact(series, thresholds):
    pe = [s for s in series if s.file_type in PE_FILE_TYPES]
    return dynamics.ThresholdImpact(
        overall=tuple(oracle_category_distribution(series, thresholds)),
        pe_only=tuple(oracle_category_distribution(pe, thresholds)),
    )


def _oracle_summary(parameter, outcomes, within_days):
    done = [o for o in outcomes if o.stabilized]
    return StabilizationSummary(
        parameter=parameter,
        n_samples=len(outcomes),
        n_stabilized=len(done),
        mean_scan_index=mean([o.scan_index for o in done]) if done else None,
        mean_days=mean([o.days for o in done]) if done else None,
        fraction_within={
            h: (sum(1 for o in done if o.days <= h) / len(done)
                if done else 0.0)
            for h in within_days},
    )


def oracle_avrank_summary(series, fluctuation, within_days=(10, 20, 30)):
    if fluctuation < 0:
        raise ConfigError("fluctuation must be >= 0")
    return _oracle_summary(
        fluctuation,
        [avrank_stabilization(s, fluctuation) for s in series if s.multi],
        within_days)


def oracle_label_summary(series, threshold, within_days=(15, 30),
                         exclude_two_scan=False):
    if threshold < 1:
        raise ConfigError("threshold must be >= 1")
    pool = [s for s in series
            if s.multi and not (exclude_two_scan and s.n == 2)]
    return _oracle_summary(
        threshold, [label_stabilization(s, threshold) for s in pool],
        within_days)


def oracle_avrank_profile(series, ranges=stabilization.FLUCTUATION_RANGES):
    return stabilization.AVRankStabilizationProfile(
        by_fluctuation={r: oracle_avrank_summary(series, r) for r in ranges})


def oracle_label_profile(series, thresholds=stabilization.LABEL_THRESHOLDS):
    return stabilization.LabelStabilizationProfile(
        all_samples={t: oracle_label_summary(series, t) for t in thresholds},
        exclude_two_scan={t: oracle_label_summary(series, t,
                                                  exclude_two_scan=True)
                          for t in thresholds},
    )


def _oracle_delta_within(s, window_days):
    horizon = s.times[0] + int(window_days * MINUTES_PER_DAY)
    ranks = [rank for t, rank in zip(s.times, s.ranks, strict=True)
             if t <= horizon]
    return max(ranks) - min(ranks) if len(ranks) >= 2 else None


def oracle_window_sensitivity(series, short_days=30.0, long_days=90.0,
                              first_month_only=True):
    if long_days <= short_days:
        raise ConfigError("long window must exceed the short window")
    short_gaps: list[int] = []
    long_gaps: list[int] = []
    for s in series:
        if first_month_only and s.times[0] > 30 * MINUTES_PER_DAY:
            continue
        short = _oracle_delta_within(s, short_days)
        long = _oracle_delta_within(s, long_days)
        if short is not None and long is not None:
            short_gaps.append(short)
            long_gaps.append(long)
    n = len(short_gaps)
    return windows.WindowComparison(
        short_days=short_days,
        long_days=long_days,
        n_comparable=n,
        n_grew=sum(1 for a, b in zip(short_gaps, long_gaps, strict=True)
                   if b > a),
        mean_gap_short=sum(short_gaps) / n if n else 0.0,
        mean_gap_long=sum(long_gaps) / n if n else 0.0,
    )


def oracle_gap_growth_curve(series, windows_days=(30, 60, 90, 180, 270, 365),
                            first_month_only=True):
    pool = [s for s in series
            if not first_month_only or s.times[0] <= 30 * MINUTES_PER_DAY]
    out = []
    for window in windows_days:
        gaps = [g for s in pool
                if (g := _oracle_delta_within(s, window)) is not None]
        if gaps:
            out.append((window, sum(gaps) / len(gaps)))
    return out


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------


class TestFrameMatchesPerSampleOracle:
    @settings(max_examples=60, deadline=None)
    @given(series=series_lists, cap=st.sampled_from([0, 3, 10, 200]),
           seed=st.integers(0, 3), rank_group_cap=st.integers(0, 12),
           thresholds=st.sampled_from([range(1, 72, 7), (5, 0)]))
    def test_section5_figures(self, series, cap, seed, rank_group_cap,
                              thresholds):
        frame = make_series_frame(series)
        assert_same_outcome(dynamics.stable_dynamic_split,
                            oracle_stable_dynamic_split, frame, series)
        assert_same_outcome(dynamics.stable_sample_profile,
                            oracle_stable_sample_profile, frame, series,
                            rank_group_cap)
        assert_same_outcome(dynamics.delta_distributions,
                            oracle_delta_distributions, frame, series)
        assert_same_outcome(dynamics.per_type_dynamics,
                            oracle_per_type_dynamics, frame, series)
        assert_same_outcome(pairwise_differences,
                            oracle_pairwise_differences, frame, series,
                            cap, seed)
        assert_same_outcome(dynamics.interval_effect,
                            oracle_interval_effect, frame, series,
                            max_pairs_per_sample=cap)
        assert_same_outcome(category_distribution,
                            oracle_category_distribution, frame, series,
                            thresholds)
        assert_same_outcome(dynamics.threshold_impact,
                            oracle_threshold_impact, frame, series,
                            thresholds)

    @settings(max_examples=60, deadline=None)
    @given(series=series_lists, within=st.sampled_from([(), (1, 30)]))
    def test_section6_stabilization(self, series, within):
        frame = make_series_frame(series)
        assert_same_outcome(stabilization.avrank_stabilization_profile,
                            oracle_avrank_profile, frame, series)
        assert_same_outcome(stabilization.label_stabilization_profile,
                            oracle_label_profile, frame, series)
        for r in (-1, 0, 2, 9):
            assert_same_outcome(summarize_avrank_stabilization,
                                oracle_avrank_summary, frame, series, r,
                                within)
        for t in (0, 1, 12, 40):
            assert_same_outcome(summarize_label_stabilization,
                                oracle_label_summary, frame, series, t,
                                within, exclude_two_scan=True)

    @settings(max_examples=60, deadline=None)
    @given(series=series_lists, first_month_only=st.booleans(),
           short=st.sampled_from([0, 1.5, 30.0]))
    def test_section8_windows(self, series, first_month_only, short):
        frame = make_series_frame(series)
        assert_same_outcome(windows.window_sensitivity,
                            oracle_window_sensitivity, frame, series,
                            short, 90.0, first_month_only)
        assert_same_outcome(windows.gap_growth_curve,
                            oracle_gap_growth_curve, frame, series,
                            (0.5, 30, 60.0, 400),
                            first_month_only=first_month_only)

    def test_empty_dataset_raises_like_the_oracle(self):
        frame = make_series_frame([])
        for frame_fn, oracle_fn in (
                (dynamics.stable_dynamic_split, oracle_stable_dynamic_split),
                (dynamics.stable_sample_profile,
                 oracle_stable_sample_profile),
                (dynamics.delta_distributions, oracle_delta_distributions),
                (dynamics.interval_effect, oracle_interval_effect)):
            got = outcome(frame_fn, frame)
            assert got[0] == "raised"
            assert got == outcome(oracle_fn, [])
