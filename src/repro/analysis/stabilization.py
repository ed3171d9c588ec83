"""Section 6 pipelines: AV-Rank and label stabilisation (Figure 9).

Aggregates :mod:`repro.core.stabilization` over dataset *S*, given as a
:class:`~repro.store.columnar.SeriesFrame`:

* :func:`avrank_stabilization_profile` — Observation 8's table: stabilised
  fraction and within-30-days share for fluctuation ranges r = 0..5;
* :func:`label_stabilization_profile` — Figure 9: per threshold, the mean
  stabilisation scan index and days, with and without two-scan samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.stabilization import (
    StabilizationSummary,
    summarize_avrank_stabilization,
    summarize_label_stabilization,
)
from repro.store.columnar import SeriesFrame

#: The paper's fluctuation ranges (§6.1).
FLUCTUATION_RANGES: tuple[int, ...] = (0, 1, 2, 3, 4, 5)

#: The paper's threshold grid for label stabilisation (§6.2).
LABEL_THRESHOLDS: tuple[int, ...] = (2, 5, 10, 15, 20, 25, 30, 35, 40)


@dataclass(frozen=True)
class AVRankStabilizationProfile:
    """Observation 8: stabilisation across fluctuation ranges."""

    by_fluctuation: dict[int, StabilizationSummary]

    def stabilized_fraction(self, r: int) -> float:
        """Paper: 10.9 % (r=0), 55.1 / 69.6 / 77.8 / 83.5 / 88.1 % (r=1..5)."""
        return self.by_fluctuation[r].stabilized_fraction

    def within_30_days(self, r: int) -> float:
        """Paper: >90 % of stabilising samples do so within 30 days."""
        return self.by_fluctuation[r].fraction_within[30]


def avrank_stabilization_profile(
    dataset_s: SeriesFrame,
    ranges: Sequence[int] = FLUCTUATION_RANGES,
) -> AVRankStabilizationProfile:
    return AVRankStabilizationProfile(
        by_fluctuation={
            r: summarize_avrank_stabilization(dataset_s, r) for r in ranges
        }
    )


@dataclass(frozen=True)
class LabelStabilizationProfile:
    """Figure 9: label stabilisation across thresholds."""

    #: Figure 9(a): all samples in S.
    all_samples: dict[int, StabilizationSummary]
    #: Figure 9(b): samples with more than two scans.
    exclude_two_scan: dict[int, StabilizationSummary]

    def stabilized_fraction_range(self) -> tuple[float, float]:
        """Paper: 93.14 %-98.04 % of labels eventually stabilise."""
        values = [s.stabilized_fraction for s in self.all_samples.values()]
        return min(values), max(values)

    def within_30_days_range(self) -> tuple[float, float]:
        """Paper: 91.09 %-92.31 % stable within 30 days."""
        values = [s.fraction_within[30] for s in self.all_samples.values()]
        return min(values), max(values)


def label_stabilization_profile(
    dataset_s: SeriesFrame,
    thresholds: Sequence[int] = LABEL_THRESHOLDS,
) -> LabelStabilizationProfile:
    return LabelStabilizationProfile(
        all_samples={
            t: summarize_label_stabilization(dataset_s, t)
            for t in thresholds
        },
        exclude_two_scan={
            t: summarize_label_stabilization(dataset_s, t,
                                             exclude_two_scan=True)
            for t in thresholds
        },
    )
