"""The premium per-minute report feed.

The paper's dataset was collected by polling VirusTotal's premium feed
endpoint once per minute; each poll returns every report the service
generated in that minute (§4.1).  :class:`PremiumFeed` reproduces that
interface: the party that runs the service publishes each minute's
reports to it (:meth:`PremiumFeed.publish`), and a collector drains them
as per-minute polls.  The collection driver (:mod:`repro.collect`)
publishes the reports of :meth:`~repro.vt.service.VirusTotalService.scan_by_month`
minute by minute, in event order.

:class:`FeedArchive` models the real feed's bounded catch-up window: the
service keeps every per-minute batch for a retention period (the real
endpoint serves the last 7 days), so a collector that missed minutes —
an outage, a crash — can re-fetch exactly what it lost.  The archive is
*server-side* state: it survives a collector crash and is never touched
by the delivery-path fault injection in :mod:`repro.faults`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import ArchiveExpiredError, PermissionError_
from repro.vt.clock import DEFAULT_ARCHIVE_RETENTION_MINUTES
from repro.vt.reports import ScanReport


class PremiumFeed:
    """A per-minute batch view over the reports published to it."""

    def __init__(self, premium: bool = True) -> None:
        if not premium:
            raise PermissionError_("premium feed")
        self._buffer: deque[ScanReport] = deque()
        self.batches_served = 0
        self.reports_served = 0
        #: Minute cursor: the exclusive upper bound of the last bounded
        #: poll — i.e. every report scanned strictly before ``cursor``
        #: has been delivered (or deliberately dropped).  Collectors use
        #: it to detect gaps between polls.
        self.cursor = 0

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def publish(self, reports: Iterable[ScanReport]) -> None:
        """Buffer newly generated reports, in scan-time order, for polls."""
        self._buffer.extend(reports)

    def drop_before(self, minute: int) -> int:
        """Discard buffered reports scanned strictly before ``minute``.

        The outage hook: an outage loses exactly the reports the feed
        would otherwise have served, and the fault layer expresses that
        loss through this method.  Returns the number of reports
        dropped.
        """
        dropped = 0
        while self._buffer and self._buffer[0].scan_time < minute:
            self._buffer.popleft()
            dropped += 1
        self.cursor = max(self.cursor, minute)
        return dropped

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Number of buffered reports not yet served."""
        return len(self._buffer)

    def poll(self, until_minute: int | None = None) -> list[ScanReport]:
        """Drain buffered reports, optionally only up to a minute bound.

        With ``until_minute`` set, only reports scanned strictly before
        that minute are returned — the caller is emulating the authors'
        minute-by-minute polling loop.
        """
        batch: list[ScanReport] = []
        while self._buffer:
            if (until_minute is not None
                    and self._buffer[0].scan_time >= until_minute):
                break
            batch.append(self._buffer.popleft())
        self.batches_served += 1
        self.reports_served += len(batch)
        if until_minute is not None:
            self.cursor = max(self.cursor, until_minute)
        return batch


class FeedArchive:
    """Server-side retention of per-minute feed batches.

    Takes published reports like a feed, but groups them by scan minute
    and retains them for a bounded window.  :meth:`batch` serves a
    past minute's reports for gap backfill; minutes that have aged out
    raise :class:`~repro.errors.ArchiveExpiredError`, forcing the
    collector onto its best-effort latest-report fallback.

    The retention boundary is a *closed* interval and single-sourced:
    both pruning and serving derive from :attr:`oldest_available`, so a
    request for exactly ``oldest_available`` is always **served** (its
    batch may be empty if nothing scanned that minute) and only minutes
    strictly below it raise.  An earlier revision computed the pruning
    floor and the serving floor independently, leaving the behaviour at
    the exact boundary to coincidence; ``tests/test_feed.py`` now pins
    every edge (floor−1, floor, floor+1, horizon).

    An archive can also be rebuilt from a frozen
    :class:`~repro.store.ReportStore` (:meth:`from_store`) — the backing
    the ``repro.serve`` front-end uses for ``GET /feeds/files/{minute}``
    over saved stores.
    """

    def __init__(
        self,
        retention_minutes: int = DEFAULT_ARCHIVE_RETENTION_MINUTES,
    ) -> None:
        self.retention_minutes = retention_minutes
        self._minutes: dict[int, list[ScanReport]] = {}
        self._order: deque[int] = deque()
        #: Highest scan minute observed — the archive's notion of "now".
        self.horizon = 0

    @classmethod
    def from_store(
        cls,
        store,
        retention_minutes: int = DEFAULT_ARCHIVE_RETENTION_MINUTES,
    ) -> "FeedArchive":
        """Rebuild the archive a service *would* hold from a saved store.

        Replays every stored report grouped by scan minute, in minute
        order (stores reopened for backfill may hold records slightly
        out of time order, so the replay sorts first).  Retention prunes
        exactly as it would have live: only the last
        ``retention_minutes`` below the store's highest scan minute
        survive.
        """
        by_minute: dict[int, list[ScanReport]] = {}
        for report in store.iter_reports():
            by_minute.setdefault(report.scan_time, []).append(report)
        archive = cls(retention_minutes=retention_minutes)
        for minute in sorted(by_minute):
            archive.publish(by_minute[minute])
        return archive

    def publish(self, reports: Iterable[ScanReport]) -> None:
        """Retain newly generated reports, in scan-time order."""
        for report in reports:
            minute = report.scan_time
            if minute not in self._minutes:
                self._minutes[minute] = []
                self._order.append(minute)
            self._minutes[minute].append(report)
            if minute > self.horizon:
                self.horizon = minute
                # Prune strictly below the same boundary batch() serves
                # from — the minute at oldest_available itself is retained.
                floor = self.oldest_available
                while self._order and self._order[0] < floor:
                    del self._minutes[self._order.popleft()]

    @property
    def oldest_available(self) -> int:
        """The oldest minute still fetchable (inclusive boundary).

        ``batch(oldest_available)`` is always served — possibly as an
        empty batch — never raised on.  The window is the closed
        interval ``[oldest_available, horizon]``; this property is the
        single source of truth for both pruning and serving.
        """
        return max(0, self.horizon - self.retention_minutes)

    def minutes_retained(self) -> int:
        """Number of distinct minutes currently held."""
        return len(self._minutes)

    def batch(self, minute: int) -> list[ScanReport]:
        """The per-minute batch for ``minute`` (a copy; possibly empty).

        Raises :class:`~repro.errors.ArchiveExpiredError` only for
        minutes *strictly below* :attr:`oldest_available`; the boundary
        minute itself is inside the retention window and is served.
        """
        if minute < self.oldest_available:
            raise ArchiveExpiredError(minute, self.oldest_available)
        return list(self._minutes.get(minute, ()))
