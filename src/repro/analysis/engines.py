"""Section 7 pipelines: engine flips (Figure 10) and correlation
(Figures 11-12, Tables 4-8).

These are the only pipelines that read per-engine verdicts rather than
AV-Rank series, so they take a :class:`~repro.store.columnar.SeriesFrame`
grouped with its label planes plus the fleet's engine-name order:
Figure 10 reads dataset S (``ExperimentData.dataset_s``), Figures 11-12
the whole frame (``ExperimentData.frame``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.correlation import (
    CorrelationAnalysis,
    correlation_analysis,
    per_type_analyses,
)
from repro.core.flips import FlipStats, analyze_flips
from repro.store.columnar import SeriesFrame

#: The file types the paper's appendix tabulates (Tables 4-8).
APPENDIX_FILE_TYPES: tuple[str, ...] = ("Win32 EXE", "TXT", "HTML", "ZIP", "PDF")


@dataclass(frozen=True)
class EngineStabilityResult:
    """Figure 10 plus §7.1.1's headline flip counts."""

    flips: FlipStats

    @property
    def up_down_ratio(self) -> float:
        """Paper: 12.27 M 0→1 vs 4.57 M 1→0 (≈2.7×)."""
        down = self.flips.total_flips_down
        return self.flips.total_flips_up / down if down else float("inf")

    @property
    def hazard_share(self) -> float:
        """Hazards per flip — the paper found this effectively zero,
        contradicting Zhu et al.'s >50 % under daily rescans."""
        total = self.flips.total_flips
        return self.flips.total_hazards / total if total else 0.0


def engine_stability(
    dataset_s: SeriesFrame, engine_names: Sequence[str]
) -> EngineStabilityResult:
    """Run the §7.1 flip analysis (Figure 10) over the dataset-S frame."""
    return EngineStabilityResult(
        flips=analyze_flips(dataset_s, engine_names))


@dataclass(frozen=True)
class EngineCorrelationResult:
    """Figures 11-12 and Tables 4-8."""

    overall: CorrelationAnalysis
    per_type: dict[str, CorrelationAnalysis]

    def overall_groups(self) -> list[list[str]]:
        """Figure 11's strongly-correlated engine groups."""
        return self.overall.groups()

    def groups_for(self, file_type: str) -> list[list[str]]:
        """Tables 4-8: groups for one file type (empty if not analysed)."""
        analysis = self.per_type.get(file_type)
        return analysis.groups() if analysis is not None else []


def engine_correlation(
    frame: SeriesFrame,
    engine_names: Sequence[str],
    file_types: Sequence[str] = APPENDIX_FILE_TYPES,
    threshold: float = 0.8,
    min_scans: int = 50,
) -> EngineCorrelationResult:
    """Run the §7.2 correlation analysis overall and per file type."""
    return EngineCorrelationResult(
        overall=correlation_analysis(frame, engine_names, threshold),
        per_type=per_type_analyses(frame, engine_names, file_types,
                                   threshold, min_scans),
    )
