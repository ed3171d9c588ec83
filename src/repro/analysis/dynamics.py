"""Section 5 pipelines: Figures 2-8 and Observations 1-7.

Each function takes a :class:`~repro.store.columnar.SeriesFrame` — the
whole store (Figures 2-4) or dataset *S* (Figures 5-8), see
:class:`repro.analysis.experiment.ExperimentData` — and returns a result
dataclass carrying both the full curves and the headline landmarks the
paper quotes, so benchmarks can print tables and tests can assert shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.categorize import CategoryCounts, category_distribution
from repro.core.metrics import (
    BoxSummary,
    PairwiseDifferences,
    pairwise_differences,
)
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import BoxplotStats, boxplot_stats, mean
from repro.stats.kstest import KSResult, ks_two_sample
from repro.stats.spearman import SpearmanResult
from repro.store.columnar import SeriesFrame
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.filetypes import PE_FILE_TYPES


# ---------------------------------------------------------------------------
# Figure 2 / Observation 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableDynamicSplit:
    """§5.1: the stable/dynamic landscape over multi-report samples."""

    n_stable: int
    n_dynamic: int
    stable_report_cdf: EmpiricalCDF
    dynamic_report_cdf: EmpiricalCDF

    @property
    def n_multi(self) -> int:
        return self.n_stable + self.n_dynamic

    @property
    def dynamic_fraction(self) -> float:
        """Paper: 50.10 %."""
        return self.n_dynamic / self.n_multi if self.n_multi else 0.0

    @property
    def stable_two_report_fraction(self) -> float:
        """Paper: 67.09 % of stable samples have exactly two reports."""
        return self.stable_report_cdf.at(2)

    @property
    def dynamic_two_report_fraction(self) -> float:
        """Paper: 71.3 %."""
        return self.dynamic_report_cdf.at(2)

    def report_count_ks(self) -> KSResult:
        """KS test of the two classes' report-count distributions —
        quantifying Figure 2's "striking similarity" claim."""
        return ks_two_sample(self.stable_report_cdf._sorted,
                             self.dynamic_report_cdf._sorted)


def stable_dynamic_split(frame: SeriesFrame) -> StableDynamicSplit:
    counts = frame.counts()
    stable, dynamic = frame.stable_mask(), frame.dynamic_mask()
    return StableDynamicSplit(
        n_stable=int(stable.sum()),
        n_dynamic=int(dynamic.sum()),
        stable_report_cdf=EmpiricalCDF(counts[stable].tolist()),
        dynamic_report_cdf=EmpiricalCDF(counts[dynamic].tolist()),
    )


# ---------------------------------------------------------------------------
# Figures 3-4 / Observation 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableSampleProfile:
    """§5.2: AV-Rank distribution and time spans of stable samples."""

    rank_cdf: EmpiricalCDF
    span_by_rank: dict[int, BoxplotStats]
    median_span_days: float
    benign_mean_span_days: float

    @property
    def rank_zero_fraction(self) -> float:
        """Paper: 66.36 % of stable samples hold AV-Rank 0."""
        return self.rank_cdf.at(0)

    @property
    def rank_at_most_5_fraction(self) -> float:
        """Paper: over 80 % of stable samples have AV-Rank <= 5."""
        return self.rank_cdf.at(5)


def stable_sample_profile(
    frame: SeriesFrame, rank_group_cap: int = 10
) -> StableSampleProfile:
    """Figures 3-4 over the stable multi-report samples.

    ``rank_group_cap`` pools every rank above the cap into one box group,
    as ranks get sparse quickly.  Groups appear in the order their first
    sample does.
    """
    stable = frame.stable_mask()
    ranks = frame.ranks[frame.offsets[:-1][stable]]
    span_days = frame.span_minutes()[stable] / MINUTES_PER_DAY
    groups = np.minimum(ranks, rank_group_cap)
    all_spans = sorted(span_days.tolist())
    benign_spans = span_days[ranks == 0].tolist()
    return StableSampleProfile(
        rank_cdf=EmpiricalCDF(ranks.tolist()),
        span_by_rank={
            rank: boxplot_stats(span_days[groups == rank].tolist())
            for rank in dict.fromkeys(groups.tolist())
        },
        median_span_days=(all_spans[len(all_spans) // 2] if all_spans else 0.0),
        benign_mean_span_days=mean(benign_spans) if benign_spans else 0.0,
    )


# ---------------------------------------------------------------------------
# Figure 5 / Observation 3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaDistributions:
    """§5.3.3: the pooled δ and per-sample Δ distributions over S."""

    delta_cdf: EmpiricalCDF  # adjacent-scan δ
    delta_overall_cdf: EmpiricalCDF  # per-sample Δ

    @property
    def adjacent_zero_fraction(self) -> float:
        """Paper: 35.49 % of adjacent pairs show no change."""
        return self.delta_cdf.at(0)

    @property
    def overall_above_2_fraction(self) -> float:
        """Paper: roughly half of samples have Δ > 2."""
        return 1.0 - self.delta_overall_cdf.at(2)

    @property
    def overall_within_11_fraction(self) -> float:
        """Paper: 90 % of samples have Δ <= 11."""
        return self.delta_overall_cdf.at(11)


def delta_distributions(dataset_s: SeriesFrame) -> DeltaDistributions:
    return DeltaDistributions(
        delta_cdf=EmpiricalCDF(dataset_s.adjacent_deltas().tolist()),
        delta_overall_cdf=EmpiricalCDF(dataset_s.delta_overall().tolist()),
    )


# ---------------------------------------------------------------------------
# Figure 6 / Observation 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerTypeDynamics:
    """§5.3.4: δ/Δ box summaries per file type."""

    adjacent: dict[str, BoxSummary]
    overall: dict[str, BoxSummary]

    def ranked_by_overall_mean(self) -> list[tuple[str, float]]:
        """File types by mean Δ, most dynamic first (paper: PE on top)."""
        return sorted(
            ((ftype, box.mean) for ftype, box in self.overall.items()),
            key=lambda item: -item[1],
        )

    def ranked_by_adjacent_mean(self) -> list[tuple[str, float]]:
        """File types by mean δ (paper: Win32 DLL on top, JSON at bottom)."""
        return sorted(
            ((ftype, box.mean) for ftype, box in self.adjacent.items()),
            key=lambda item: -item[1],
        )


def per_type_dynamics(dataset_s: SeriesFrame) -> PerTypeDynamics:
    """Figure 6: δ and Δ box summaries per file type, types in the order
    their first sample appears (the rankings break ties by it)."""
    file_types = np.asarray(dataset_s.file_types)
    adjacent: dict[str, BoxSummary] = {}
    overall: dict[str, BoxSummary] = {}
    for name in dict.fromkeys(dataset_s.file_types):
        of_type = dataset_s.select(file_types == name)
        deltas = of_type.adjacent_deltas()
        if len(deltas):
            adjacent[name] = BoxSummary.of(deltas.tolist())
        overall[name] = BoxSummary.of(of_type.delta_overall().tolist())
    return PerTypeDynamics(adjacent=adjacent, overall=overall)


# ---------------------------------------------------------------------------
# Figure 7 / Observation 5
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalEffect:
    """§5.3.5: AV-Rank difference vs scan interval."""

    pairs: PairwiseDifferences
    binned_boxes: dict[int, BoxplotStats]
    correlation: SpearmanResult

    @property
    def max_interval_days(self) -> float:
        return max(self.pairs.interval_days) if len(self.pairs) else 0.0


def interval_effect(
    dataset_s: SeriesFrame,
    bin_days: float = 30.0,
    max_pairs_per_sample: int = 200,
) -> IntervalEffect:
    pairs = pairwise_differences(dataset_s, max_pairs_per_sample)
    boxes = {
        bucket: boxplot_stats(values)
        for bucket, values in sorted(pairs.binned(bin_days).items())
        if values
    }
    return IntervalEffect(
        pairs=pairs,
        binned_boxes=boxes,
        correlation=pairs.interval_correlation(),
    )


# ---------------------------------------------------------------------------
# Figure 8 / Observation 6
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdImpact:
    """§5.4: white/black/gray fractions over thresholds, overall and PE."""

    overall: tuple[CategoryCounts, ...]
    pe_only: tuple[CategoryCounts, ...]

    def gray_curve(self, pe: bool = False) -> list[tuple[int, float]]:
        counts = self.pe_only if pe else self.overall
        return [(c.threshold, c.gray_fraction) for c in counts]

    @property
    def overall_peak(self) -> tuple[int, float]:
        best = max(self.overall, key=lambda c: c.gray_fraction)
        return best.threshold, best.gray_fraction

    @property
    def pe_peak(self) -> tuple[int, float]:
        best = max(self.pe_only, key=lambda c: c.gray_fraction)
        return best.threshold, best.gray_fraction


#: Detection-count thresholds swept by Figure 8 (1..50).
DEFAULT_THRESHOLDS: tuple[int, ...] = tuple(range(1, 51))


def threshold_impact(
    dataset_s: SeriesFrame,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
) -> ThresholdImpact:
    pe = np.asarray([ft in PE_FILE_TYPES for ft in dataset_s.file_types],
                    bool)
    return ThresholdImpact(
        overall=tuple(category_distribution(dataset_s, thresholds)),
        pe_only=tuple(category_distribution(dataset_s.select(pe),
                                            thresholds)),
    )
