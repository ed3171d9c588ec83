"""Dynamics metrics over AV-Rank series (§5.3).

Figure 7 correlates |p_i − p_j| with the time interval |t_i − t_j| over
scan *pairs* (ρ = 0.9181 in the paper); :func:`pairwise_differences`
pools those pairs from a :class:`~repro.store.columnar.SeriesFrame`.
Figures 5-6's δ and Δ are the frame's own
:meth:`~repro.store.columnar.SeriesFrame.adjacent_deltas` and
:meth:`~repro.store.columnar.SeriesFrame.delta_overall`, summarised by
:class:`BoxSummary`.

Pairwise enumeration is quadratic per sample; a per-sample pair cap keeps
hot samples (thousands of scans) from dominating, with capped pairs drawn
deterministically.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.stats.descriptive import boxplot_stats, mean
from repro.stats.spearman import SpearmanResult, spearman
from repro.vt.clock import MINUTES_PER_DAY

if TYPE_CHECKING:
    from repro.store.columnar import SeriesFrame


@dataclass(frozen=True)
class PairwiseDifferences:
    """Scan-pair (interval, AV-Rank difference) observations (Figure 7)."""

    interval_days: tuple[float, ...]
    rank_diffs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rank_diffs)

    def binned(
        self, bin_days: float = 30.0
    ) -> dict[int, list[int]]:
        """Group differences into interval bins (the figure's boxes)."""
        bins: dict[int, list[int]] = defaultdict(list)
        for interval, diff in zip(self.interval_days, self.rank_diffs, strict=False):
            bins[int(interval // bin_days)].append(diff)
        return dict(bins)

    def interval_correlation(self) -> SpearmanResult:
        """Spearman correlation of difference vs interval (§5.3.5).

        The paper reports the correlation over the binned trend (its
        quoted ρ = 0.9181 with a boxplot per interval bucket); this
        correlates per-day bucket means, which reproduces that headline
        and is robust to the raw pairs' heavy within-bucket noise.
        """
        by_bucket: dict[int, list[int]] = defaultdict(list)
        for interval, diff in zip(self.interval_days, self.rank_diffs, strict=False):
            by_bucket[int(interval // 7)].append(diff)
        # Thin buckets (a handful of very long intervals) are pure noise;
        # require a minimum occupancy before a bucket enters the trend.
        buckets = sorted(b for b, v in by_bucket.items() if len(v) >= 20)
        means = [mean(by_bucket[b]) for b in buckets]
        return spearman([float(b) for b in buckets], means)

    def raw_correlation(self) -> SpearmanResult:
        """Spearman correlation over the raw (interval, diff) pairs."""
        return spearman(self.interval_days, [float(d) for d in self.rank_diffs])


def pairwise_differences(
    frame: SeriesFrame,
    max_pairs_per_sample: int = 200,
    seed: int = 0,
) -> PairwiseDifferences:
    """All-pairs AV-Rank differences vs scan intervals (§5.3.5).

    Pairs are pooled sample-major, each sample's in ``(i, j)`` order.
    Samples with more than ``max_pairs_per_sample`` pairs contribute a
    deterministic random subset instead, so hot samples cannot swamp the
    pool: one ``random.Random(f"pairwise:{seed}")`` stream draws each
    such sample's pairs in sample order.
    """
    counts = frame.counts()
    n_pairs = counts * (counts - 1) // 2
    small = n_pairs <= max_pairs_per_sample
    minutes, diffs = frame.select(small).pairwise_diffs()

    # Over-cap samples draw pair by pair: any vectorised draw would
    # change the sequence, and with it the figure.
    rng = random.Random(f"pairwise:{seed}")
    starts = frame.offsets[:-1].tolist()
    sizes = counts.tolist()
    hot: list[int] = []
    first: list[int] = []
    second: list[int] = []
    for s in np.flatnonzero(~small).tolist():
        for _ in range(max_pairs_per_sample):
            i, j = sorted(rng.sample(range(sizes[s]), 2))
            hot.append(s)
            first.append(starts[s] + i)
            second.append(starts[s] + j)
    first_at = np.asarray(first, np.int64)
    second_at = np.asarray(second, np.int64)
    minutes = np.concatenate(
        [minutes, frame.times[second_at] - frame.times[first_at]])
    diffs = np.concatenate(
        [diffs, np.abs(frame.ranks[second_at] - frame.ranks[first_at])])
    owner = np.concatenate([np.repeat(np.flatnonzero(small), n_pairs[small]),
                            np.asarray(hot, np.int64)])
    order = np.argsort(owner, kind="stable")  # back to sample-major
    return PairwiseDifferences(
        tuple((minutes[order] / MINUTES_PER_DAY).tolist()),
        tuple(diffs[order].tolist()))


@dataclass(frozen=True)
class BoxSummary:
    """Mean/median pair plus the box-plot geometry the figures draw."""

    count: int
    mean: float
    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[int | float]) -> "BoxSummary":
        stats = boxplot_stats(values)
        return cls(
            count=stats.count,
            mean=stats.mean,
            median=stats.median,
            q1=stats.q1,
            q3=stats.q3,
        )
