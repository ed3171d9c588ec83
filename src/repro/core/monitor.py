"""Stability notification — the paper's suggested VirusTotal feature (§8).

The discussion section proposes that VirusTotal "implement a feature
notifying users when a sample's AV-Rank has stabilized", with
user-customisable criteria.  :class:`StabilityMonitor` is that feature as
a library: it consumes a sample's reports as they arrive and fires a
callback (or flips its ``stable`` flag) once the configured criteria
hold.  It also emits the inverse alert the paper suggests — significant
AV-Rank variation within a short interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError
from repro.vt.clock import MINUTES_PER_DAY
from repro.vt.reports import ScanReport


@dataclass(frozen=True)
class StabilityCriteria:
    """User-customisable definition of "stable" (§8: "allowing users to
    set their own criteria")."""

    #: Maximum AV-Rank fluctuation tolerated within the stable window.
    fluctuation: int = 1
    #: The stable window must contain at least this many scans.
    min_reports: int = 2
    #: ... and span at least this many days.
    min_days: float = 7.0
    #: Variation alert: rank jump at least this large ...
    alert_jump: int = 5
    #: ... within at most this many days.
    alert_within_days: float = 3.0

    def __post_init__(self) -> None:
        if self.fluctuation < 0:
            raise ConfigError("fluctuation must be >= 0")
        if self.min_reports < 2:
            raise ConfigError("min_reports must be >= 2")
        if self.min_days < 0 or self.alert_within_days <= 0:
            raise ConfigError("day horizons must be positive")
        if self.alert_jump < 1:
            raise ConfigError("alert_jump must be >= 1")


@dataclass
class StabilityMonitor:
    """Streaming stability tracker for one sample."""

    criteria: StabilityCriteria = field(default_factory=StabilityCriteria)
    #: Called once, with (sha256, scan_time), when stability is reached.
    on_stable: Callable[[str, int], None] | None = None
    #: Called on every short-interval variation alert with
    #: (sha256, scan_time, jump).
    on_variation: Callable[[str, int, int], None] | None = None

    _sha256: str | None = field(default=None, repr=False)
    _times: list[int] = field(default_factory=list, repr=False)
    _ranks: list[int] = field(default_factory=list, repr=False)
    stable: bool = False
    stable_since: int | None = None
    alerts: int = 0

    def observe(self, report: ScanReport) -> bool:
        """Feed the next report; returns the current stability verdict.

        Reports must belong to one sample and arrive in time order.
        """
        if self._sha256 is None:
            self._sha256 = report.sha256
        elif report.sha256 != self._sha256:
            raise ConfigError(
                f"monitor bound to {self._sha256}, got {report.sha256}"
            )
        if self._times and report.scan_time < self._times[-1]:
            raise ConfigError("reports must arrive in time order")
        self._check_variation(report)
        self._times.append(report.scan_time)
        self._ranks.append(report.positives)
        self._update_stability(report)
        return self.stable

    def _check_variation(self, report: ScanReport) -> None:
        if not self._ranks:
            return
        jump = abs(report.positives - self._ranks[-1])
        interval_days = (report.scan_time - self._times[-1]) / MINUTES_PER_DAY
        if (jump >= self.criteria.alert_jump
                and interval_days <= self.criteria.alert_within_days):
            self.alerts += 1
            if self.on_variation is not None:
                self.on_variation(self._sha256, report.scan_time, jump)

    def _update_stability(self, report: ScanReport) -> None:
        """Find the longest suffix within the fluctuation bound and test
        the window criteria against it."""
        criteria = self.criteria
        hi = lo = self._ranks[-1]
        start = len(self._ranks) - 1
        for k in range(len(self._ranks) - 2, -1, -1):
            hi = max(hi, self._ranks[k])
            lo = min(lo, self._ranks[k])
            if hi - lo > criteria.fluctuation:
                break
            start = k
        window = len(self._ranks) - start
        span_days = (self._times[-1] - self._times[start]) / MINUTES_PER_DAY
        now_stable = (window >= criteria.min_reports
                      and span_days >= criteria.min_days)
        if now_stable and not self.stable:
            self.stable = True
            self.stable_since = self._times[start]
            if self.on_stable is not None:
                self.on_stable(self._sha256, report.scan_time)
        elif not now_stable and self.stable:
            # Stability was broken by a new excursion.
            self.stable = False
            self.stable_since = None
