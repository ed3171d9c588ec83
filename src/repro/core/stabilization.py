"""Stabilisation of AV-Ranks and of aggregated labels (§6).

Two questions, two analyses:

* **AV-Rank stabilisation** (§6.1): does a sample's AV-Rank eventually
  settle, exactly (r = 0) or within a small fluctuation range r?  A
  sample *reaches stability at index k* when every AV-Rank from scan k
  onward spans at most r; we require the stable suffix to contain at
  least two scans (otherwise the last scan alone would trivially
  "stabilise" everything).
* **Label stabilisation** (§6.2): under a voting threshold t, each scan
  yields a "B"/"M" label; the sample's label stabilises at the first scan
  after which the label never changes — again requiring a suffix of at
  least two scans.

Both report the stabilisation scan index (1-based serial number, as in
Figure 9's left axis) and the days from first scan to stabilisation
(Figure 9's right axis).

:func:`avrank_stabilization` and :func:`label_stabilization` answer for
one :class:`~repro.core.avrank.AVRankSeries`; the dataset summaries
compute the same outcomes for every sample of a
:class:`~repro.store.columnar.SeriesFrame` with array kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.avrank import AVRankSeries
from repro.errors import ConfigError
from repro.stats.descriptive import mean
from repro.vt.clock import MINUTES_PER_DAY

if TYPE_CHECKING:
    from repro.store.columnar import SeriesFrame


@dataclass(frozen=True)
class AVRankStabilization:
    """Outcome of the §6.1 analysis for one sample at one fluctuation r."""

    sha256: str
    stabilized: bool
    #: 1-based serial number of the scan *confirming* stability — the
    #: second scan of the stable suffix (None when never stabilised).
    scan_index: int | None
    #: Days from the first scan to the confirming scan.
    days: float | None


@dataclass(frozen=True)
class LabelStabilization:
    """Outcome of the §6.2 analysis for one sample at one threshold."""

    sha256: str
    threshold: int
    stabilized: bool
    scan_index: int | None
    days: float | None
    final_label: str


def _suffix_start_within_range(ranks: Sequence[int], r: int) -> int:
    """Smallest k such that max(ranks[k:]) − min(ranks[k:]) <= r.

    Computed with suffix running extrema in one backward pass.
    """
    n = len(ranks)
    hi = ranks[-1]
    lo = ranks[-1]
    start = n - 1
    for k in range(n - 2, -1, -1):
        hi = max(hi, ranks[k])
        lo = min(lo, ranks[k])
        if hi - lo <= r:
            start = k
        else:
            break
    return start


def avrank_stabilization(
    series: AVRankSeries, fluctuation: int = 0
) -> AVRankStabilization:
    """§6.1 for one sample: does AV-Rank settle within ``fluctuation``?

    The stable suffix must contain at least two scans; a sample whose
    very last scan breaks the range never stabilised.
    """
    if fluctuation < 0:
        raise ConfigError("fluctuation must be >= 0")
    if not series.multi:
        return AVRankStabilization(series.sha256, False, None, None)
    k = _suffix_start_within_range(series.ranks, fluctuation)
    if k > series.n - 2:
        return AVRankStabilization(series.sha256, False, None, None)
    # Stability is *confirmed* at the second scan of the stable suffix —
    # a single closing scan can't witness a constant run.  Figure 9's
    # serial numbers and day counts use the confirmation scan.
    days = (series.times[k + 1] - series.times[0]) / MINUTES_PER_DAY
    return AVRankStabilization(series.sha256, True, k + 2, days)


def label_stabilization(
    series: AVRankSeries, threshold: int
) -> LabelStabilization:
    """§6.2 for one sample: when does the thresholded label settle?"""
    if threshold < 1:
        raise ConfigError("threshold must be >= 1")
    labels = series.labels_under(threshold)
    final = labels[-1]
    if not series.multi:
        return LabelStabilization(series.sha256, threshold, False, None,
                                  None, final)
    # Walk backwards to the start of the constant suffix.
    k = series.n - 1
    while k > 0 and labels[k - 1] == final:
        k -= 1
    if k > series.n - 2:
        return LabelStabilization(series.sha256, threshold, False, None,
                                  None, final)
    # As above: report the confirmation scan (second of the suffix).
    days = (series.times[k + 1] - series.times[0]) / MINUTES_PER_DAY
    return LabelStabilization(series.sha256, threshold, True, k + 2,
                              days, final)


@dataclass(frozen=True)
class StabilizationSummary:
    """Dataset-level stabilisation statistics (one Figure 9 x-position)."""

    parameter: int  # fluctuation r, or threshold t
    n_samples: int
    n_stabilized: int
    mean_scan_index: float | None
    mean_days: float | None
    fraction_within: dict[int, float]

    @property
    def stabilized_fraction(self) -> float:
        return self.n_stabilized / self.n_samples if self.n_samples else 0.0


def _suffix_starts(
    frame: SeriesFrame, values: np.ndarray, spread: int
) -> np.ndarray:
    """Per sample: the first scan (0-based) from which ``values`` span at
    most ``spread`` up to the sample's last scan.

    That is the number of the sample's scans whose suffix spans more, so
    one reversed running maximum and minimum over the whole frame count
    it for every sample; each sample is lifted above every later sample
    (and, negated, below), so the running extrema restart at each sample
    boundary.
    """
    step = int(values.max()) + 1 if len(values) else 1
    sample = np.repeat(np.arange(frame.n_samples, dtype=np.int64),
                       frame.counts())
    lift = (frame.n_samples - 1 - sample) * step
    hi = np.maximum.accumulate((values + lift)[::-1])[::-1] - lift
    lo = np.minimum.accumulate((values - lift)[::-1])[::-1] + lift
    return np.add.reduceat(hi - lo > spread, frame.offsets[:-1],
                           dtype=np.int64)


def summarize_avrank_stabilization(
    frame: SeriesFrame,
    fluctuation: int = 0,
    within_days: Sequence[int] = (10, 20, 30),
) -> StabilizationSummary:
    """§6.1 aggregate: stabilised share and timing at one fluctuation —
    the :func:`avrank_stabilization` outcome of every multi-report
    sample."""
    if fluctuation < 0:
        raise ConfigError("fluctuation must be >= 0")
    k = _suffix_starts(frame, frame.ranks, fluctuation)
    return _summarize(fluctuation, frame, frame.multi_mask(), k,
                      within_days)


def summarize_label_stabilization(
    frame: SeriesFrame,
    threshold: int,
    within_days: Sequence[int] = (15, 30),
    exclude_two_scan: bool = False,
) -> StabilizationSummary:
    """§6.2 aggregate at one threshold — the :func:`label_stabilization`
    outcome of every multi-report sample: its 0/1 label sequence settles
    where it stops spanning both labels.

    ``exclude_two_scan`` reproduces the paper's Figure 9(b), which drops
    samples with exactly two scans because they stabilise trivially.
    """
    if threshold < 1:
        raise ConfigError("threshold must be >= 1")
    malicious = (frame.ranks >= threshold).astype(np.int64)
    counts = frame.counts()
    pool = counts > 1
    if exclude_two_scan:
        pool &= counts != 2
    return _summarize(threshold, frame, pool,
                      _suffix_starts(frame, malicious, 0), within_days)


def _summarize(
    parameter: int,
    frame: SeriesFrame,
    pool: np.ndarray,
    k: np.ndarray,
    within_days: Sequence[int],
) -> StabilizationSummary:
    """Summarise the ``pool`` samples whose stable suffix starts at scan
    ``k`` (0-based; one entry per sample of ``frame``).

    A sample stabilised when the suffix holds at least two scans; it is
    confirmed at the suffix's second scan.  Means are python sums in
    sample order, as the per-sample outcomes would give.
    """
    first = frame.offsets[:-1]
    done = pool & (k <= frame.counts() - 2)
    confirm = first[done] + k[done] + 1
    days = ((frame.times[confirm] - frame.times[first[done]])
            / MINUTES_PER_DAY).tolist()
    scan_index = (k[done] + 2).tolist()
    fraction_within = {
        horizon: (sum(1 for d in days if d <= horizon) / len(days)
                  if days else 0.0)
        for horizon in within_days
    }
    return StabilizationSummary(
        parameter=parameter,
        n_samples=int(pool.sum()),
        n_stabilized=len(days),
        mean_scan_index=mean(scan_index) if days else None,
        mean_days=mean(days) if days else None,
        fraction_within=fraction_within,
    )
