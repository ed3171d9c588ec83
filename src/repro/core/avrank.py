"""AV-Rank trajectories and the stable/dynamic sample split (§5.1-5.2).

The paper's central object is the **AV-Rank** of a sample at a scan — the
number of engines answering "malicious" (VT's ``positives``).  An
:class:`AVRankSeries` is one sample's time-ordered sequence of AV-Ranks,
the per-sample API; the dataset-level analyses read every sample's
trajectory at once from a :class:`~repro.store.columnar.SeriesFrame`.

The paper's stable/dynamic split (§5.1): a sample with more than one
report is *stable* when Δ = p_max − p_min = 0 over all its scans, and
*dynamic* otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InsufficientDataError
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.reports import ScanReport


@dataclass(frozen=True)
class AVRankSeries:
    """One sample's AV-Rank trajectory over its scans."""

    sha256: str
    file_type: str
    fresh: bool
    times: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.ranks):
            raise ValueError("times/ranks length mismatch")
        if not self.times:
            raise InsufficientDataError(1, 0, "reports in series")
        if any(b < a for a, b in zip(self.times, self.times[1:], strict=False)):
            raise ValueError("series times must be non-decreasing")

    @classmethod
    def from_reports(cls, reports: Sequence[ScanReport]) -> "AVRankSeries":
        """Build a series from one sample's time-sorted reports."""
        if not reports:
            raise InsufficientDataError(1, 0, "reports")
        first = reports[0]
        return cls(
            sha256=first.sha256,
            file_type=first.file_type,
            fresh=first.first_submission_date >= 0,
            times=tuple(r.scan_time for r in reports),
            ranks=tuple(r.positives for r in reports),
        )

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of scans."""
        return len(self.ranks)

    @property
    def multi(self) -> bool:
        """Whether dynamics are measurable (more than one scan, §5.1)."""
        return self.n > 1

    @property
    def p_max(self) -> int:
        return max(self.ranks)

    @property
    def p_min(self) -> int:
        return min(self.ranks)

    @property
    def delta_overall(self) -> int:
        """Δ = p_max − p_min over the whole series (§5.1)."""
        return self.p_max - self.p_min

    @property
    def stable(self) -> bool:
        """The paper's stable-sample criterion: Δ = 0."""
        return self.delta_overall == 0

    @property
    def span_minutes(self) -> int:
        """Time between the first and last scan."""
        return self.times[-1] - self.times[0]

    @property
    def span_days(self) -> float:
        return self.span_minutes / MINUTES_PER_DAY

    def adjacent_deltas(self) -> list[int]:
        """δ_i = |p_i − p_{i−1}| for consecutive scans (§5.3.2)."""
        return [abs(b - a) for a, b in zip(self.ranks, self.ranks[1:], strict=False)]

    def labels_under(self, threshold: int) -> list[str]:
        """The "B"/"M" sequence under a voting threshold (§6.2)."""
        return ["M" if rank >= threshold else "B" for rank in self.ranks]


def collect_series(
    sample_reports: Iterable[tuple[str, Sequence[ScanReport]]],
) -> list[AVRankSeries]:
    """Build series for every sample from grouped, time-sorted reports.

    ``sample_reports`` is what
    :meth:`repro.store.ReportStore.iter_sample_reports` yields.
    """
    return [AVRankSeries.from_reports(reports)
            for _, reports in sample_reports]


def split_stable_dynamic(
    series: Iterable[AVRankSeries],
) -> tuple[list[AVRankSeries], list[AVRankSeries]]:
    """Partition multi-report series into (stable, dynamic) per §5.1.

    Single-report series are excluded entirely, as in the paper ("the
    evolutionary trajectory ... could not be captured for the sample with
    only one report").
    """
    stable: list[AVRankSeries] = []
    dynamic: list[AVRankSeries] = []
    for s in series:
        if not s.multi:
            continue
        (stable if s.stable else dynamic).append(s)
    return stable, dynamic
