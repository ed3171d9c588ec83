"""Measurement-window sensitivity (§8, "Measurement Time Window").

The paper closes with a methodological warning: conclusions drawn from a
short measurement window understate the dynamics.  Its concrete check:
take the samples first seen in the initial month and compare the AV-Rank
gap (Δ) measured with a 1-month observation window against a 3-month
window — 8.6 % of samples exhibited a *growing* gap, and the gap
distribution keeps shifting as the window lengthens.

:func:`window_sensitivity` reproduces that check for arbitrary window
lengths, and :func:`gap_growth_curve` sweeps the window to show the
distribution never quite freezes.  Both read a
:class:`~repro.store.columnar.SeriesFrame` and take each sample's
in-window scan count and extrema with one segmented reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.store.columnar import SeriesFrame
from repro.vt.clock import MINUTES_PER_DAY


def _gaps_within(
    frame: SeriesFrame, window_days: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample: Δ over the scans within ``window_days`` of its first
    scan, and whether that Δ is measurable (at least two such scans, as
    in the paper's setup)."""
    starts = frame.offsets[:-1]
    first = np.repeat(frame.times[starts], frame.counts())
    inside = frame.times <= first + int(window_days * MINUTES_PER_DAY)
    n_inside = np.add.reduceat(inside, starts, dtype=np.int64)
    # Ranks are >= 0, so 0 and the largest rank leave the extrema alone.
    ceiling = int(frame.ranks.max()) if frame.n_reports else 0
    hi = np.maximum.reduceat(np.where(inside, frame.ranks, 0), starts)
    lo = np.minimum.reduceat(np.where(inside, frame.ranks, ceiling), starts)
    return hi - lo, n_inside >= 2


def _first_month(frame: SeriesFrame) -> np.ndarray:
    """Samples first scanned within the collection's first 30 days."""
    return frame.times[frame.offsets[:-1]] <= 30 * MINUTES_PER_DAY


@dataclass(frozen=True)
class WindowComparison:
    """Gap growth between a short and an extended observation window."""

    short_days: float
    long_days: float
    n_comparable: int
    n_grew: int
    mean_gap_short: float
    mean_gap_long: float

    @property
    def grew_fraction(self) -> float:
        """Share of samples whose Δ grew with the longer window
        (paper: 8.6 % from one to three months)."""
        return self.n_grew / self.n_comparable if self.n_comparable else 0.0


def window_sensitivity(
    frame: SeriesFrame,
    short_days: float = 30.0,
    long_days: float = 90.0,
    first_month_only: bool = True,
) -> WindowComparison:
    """The paper's §8 check: does extending the window grow the gaps?

    ``first_month_only`` restricts to samples first scanned in the first
    30 days of the collection window, as the paper did, so every sample
    has the full long window available.
    """
    if long_days <= short_days:
        raise ConfigError("long window must exceed the short window")
    short_gaps, short_ok = _gaps_within(frame, short_days)
    long_gaps, long_ok = _gaps_within(frame, long_days)
    comparable = short_ok & long_ok
    if first_month_only:
        comparable &= _first_month(frame)
    short_gaps, long_gaps = short_gaps[comparable], long_gaps[comparable]
    n_comparable = len(short_gaps)
    return WindowComparison(
        short_days=short_days,
        long_days=long_days,
        n_comparable=n_comparable,
        n_grew=int((long_gaps > short_gaps).sum()),
        mean_gap_short=(int(short_gaps.sum()) / n_comparable
                        if n_comparable else 0.0),
        mean_gap_long=(int(long_gaps.sum()) / n_comparable
                       if n_comparable else 0.0),
    )


def gap_growth_curve(
    frame: SeriesFrame,
    windows_days: Sequence[float] = (30, 60, 90, 180, 270, 365),
    first_month_only: bool = True,
) -> list[tuple[float, float]]:
    """Mean measurable Δ as the observation window lengthens.

    A monotone-ish increasing curve is the paper's argument for long
    measurement windows: "the resulting AV-Rank gap distribution of the
    samples is always variable".
    """
    out: list[tuple[float, float]] = []
    pool = (_first_month(frame) if first_month_only
            else np.ones(frame.n_samples, bool))
    for window in windows_days:
        gaps, measurable = _gaps_within(frame, window)
        gaps = gaps[measurable & pool]
        if len(gaps):
            out.append((window, int(gaps.sum()) / len(gaps)))
    return out
