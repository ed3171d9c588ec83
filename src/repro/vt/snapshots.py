"""Daily-snapshot collection — the Zhu et al. comparator methodology.

The paper's main prior work (Zhu et al., USENIX Security 2020) built its
dataset by **rescanning a fixed sample set every day for a year** rather
than observing organic submissions.  The paper attributes several of its
disagreements (notably the prevalence of hazard flips) to that protocol
difference.  :class:`SnapshotCampaign` reproduces the protocol against
the simulator so the two methodologies can be compared on identical
ground truth — which is exactly what the rescan-cadence ablation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.store.reportstore import ReportStore
from repro.vt.clock import MINUTES_PER_DAY, WINDOW_MINUTES
from repro.vt.samples import Sample
from repro.vt.service import VirusTotalService


@dataclass
class SnapshotCampaign:
    """A fixed-set, fixed-cadence rescan campaign.

    Parameters
    ----------
    service:
        The VirusTotal service to scan against.
    cadence_days:
        Days between snapshots (Zhu et al.: 1.0).
    duration_days:
        Campaign length (Zhu et al.: ~365).
    scan_minute:
        Minute-of-day at which the daily batch runs.
    """

    service: VirusTotalService
    cadence_days: float = 1.0
    duration_days: float = 365.0
    scan_minute: int = 120
    store: ReportStore = field(default_factory=ReportStore)
    snapshots_taken: int = 0

    def __post_init__(self) -> None:
        # Rounds are whole minutes apart: a shorter cadence would round
        # to no step at all.
        if int(self.cadence_days * MINUTES_PER_DAY) < 1:
            raise ConfigError(
                f"cadence_days must be at least one minute, got "
                f"{self.cadence_days}")
        if self.duration_days <= 0:
            raise ConfigError("duration_days must be positive")
        if not 0 <= self.scan_minute < MINUTES_PER_DAY:
            raise ConfigError("scan_minute must be within a day")

    def run(
        self, samples: Iterable[Sample], start_day: float = 0.0
    ) -> ReportStore:
        """Upload every sample at the campaign start, then rescan the
        whole set on the configured cadence.

        Returns the (open) snapshot store; callers close it when done.
        """
        roster: Sequence[Sample] = list(samples)
        if not roster:
            raise ConfigError("campaign needs at least one sample")
        start = int(start_day * MINUTES_PER_DAY) + self.scan_minute
        for sample in roster:
            if not self.service.known(sample.sha256):
                self.service.register(sample)

        end = start + int(self.duration_days * MINUTES_PER_DAY)
        rounds = range(start, min(end, WINDOW_MINUTES - 1) + 1,
                       int(self.cadence_days * MINUTES_PER_DAY))
        # One schedule per sample, its first scan an upload: in event
        # order the records come round by round, in roster order.
        for _, batch, _ in self.service.scan_by_month(
                roster, [len(rounds)] * len(roster), list(rounds) * len(roster),
                [True] * len(roster)):
            self.store.ingest_arrays(batch)
        self.snapshots_taken += len(rounds)
        return self.store

    @property
    def reports_collected(self) -> int:
        return self.store.report_count
