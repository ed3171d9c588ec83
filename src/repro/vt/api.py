"""Client-facing API layer mirroring VirusTotal's v3 endpoints.

The paper (§2.1, §3) distinguishes three endpoints by their side effects on
report metadata — the behaviour its Table 1 summarises and which this
module reproduces verbatim:

* :class:`UploadAPI`  — ``POST /api/v3/files`` — submit + analyse;
* :class:`RescanAPI`  — ``POST /api/v3/files/{id}/analyse`` — re-analyse;
* :class:`ReportAPI`  — ``GET  /api/v3/files/{id}`` — fetch latest report.

:class:`FeedBatchAPI` — ``GET /api/v3/feeds/files/{minute}`` — re-fetches
a past per-minute feed batch from the service-side
:class:`~repro.vt.feed.FeedArchive` (premium only, bounded retention);
it is the sanctioned backfill path for collectors that missed minutes.

:class:`VTClient` bundles the endpoints behind an API key with the real
service's quota model (free keys: small per-day quota; premium keys:
effectively unlimited plus feed access).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError, PermissionError_, QuotaExceededError
from repro.vt.reports import ScanReport
from repro.vt.samples import Sample
from repro.vt.service import VirusTotalService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (feed imports api-level errors)
    from repro.vt.feed import FeedArchive

#: Requests per day allowed on a free API key (the real public quota).
FREE_DAILY_QUOTA = 500


@dataclass
class APIKey:
    """An API key with a daily quota, as enforced by the real service."""

    key: str
    premium: bool = False
    daily_quota: int = FREE_DAILY_QUOTA
    _usage: dict[int, int] = field(default_factory=dict, repr=False)

    def charge(self, day: int) -> None:
        """Consume one request for ``day``; premium keys are uncapped."""
        if self.premium:
            return
        used = self._usage.get(day, 0)
        if used >= self.daily_quota:
            raise QuotaExceededError(used, self.daily_quota)
        self._usage[day] = used + 1

    def used_on(self, day: int) -> int:
        """Requests already consumed on ``day``."""
        return self._usage.get(day, 0)


class _Endpoint:
    """Common plumbing: quota charging against the simulation clock."""

    def __init__(self, service: VirusTotalService, key: APIKey) -> None:
        self._service = service
        self._key = key

    def _charge(self, timestamp: int) -> None:
        self._key.charge(timestamp // (24 * 60))


class UploadAPI(_Endpoint):
    """``POST /files``: submit a file for analysis.

    Updates all three Table 1 fields: ``last_analysis_date``,
    ``last_submission_date`` and ``times_submitted``.
    """

    def __call__(self, sample: Sample | str, timestamp: int) -> ScanReport:
        self._charge(timestamp)
        return self._service.upload(sample, timestamp)


class RescanAPI(_Endpoint):
    """``POST /files/{id}/analyse``: re-analyse an already-known file.

    Updates only ``last_analysis_date``; submission metadata is untouched.
    """

    def __call__(self, sha256: str, timestamp: int) -> ScanReport:
        self._charge(timestamp)
        return self._service.rescan(sha256, timestamp)


class ReportAPI(_Endpoint):
    """``GET /files/{id}``: fetch the latest report as of ``timestamp``.

    Generates no new analysis; none of the Table 1 fields move.
    """

    def __call__(self, sha256: str, timestamp: int) -> ScanReport:
        self._charge(timestamp)
        return self._service.report(sha256, timestamp)


class FeedBatchAPI(_Endpoint):
    """``GET /feeds/files/{minute}``: re-fetch a past per-minute batch.

    Premium-only, like the live feed itself, and bounded by the archive's
    retention window — a request past the window raises
    :class:`~repro.errors.ArchiveExpiredError`, mirroring the real
    endpoint's 7-day catch-up limit.
    """

    def __init__(
        self,
        service: VirusTotalService,
        key: APIKey,
        archive: "FeedArchive | None",
    ) -> None:
        super().__init__(service, key)
        self._archive = archive

    def __call__(self, minute: int, timestamp: int) -> list[ScanReport]:
        if not self._key.premium:
            raise PermissionError_("feed batch")
        if self._archive is None:
            raise ConfigError(
                "client has no feed archive bound; pass archive= to VTClient"
            )
        self._charge(timestamp)
        return self._archive.batch(minute)


class VTClient:
    """A VirusTotal API client bound to one key.

    >>> service = VirusTotalService(seed=1)
    >>> client = VTClient(service, premium=True)
    >>> # report = client.upload(sample, timestamp)
    """

    def __init__(
        self,
        service: VirusTotalService,
        key: str = "test-key",
        premium: bool = False,
        daily_quota: int = FREE_DAILY_QUOTA,
        archive: "FeedArchive | None" = None,
    ) -> None:
        self.service = service
        self.api_key = APIKey(key, premium=premium, daily_quota=daily_quota)
        self.upload = UploadAPI(service, self.api_key)
        self.rescan = RescanAPI(service, self.api_key)
        self.report = ReportAPI(service, self.api_key)
        self.feed_batch = FeedBatchAPI(service, self.api_key, archive)

    def require_premium(self, endpoint: str) -> None:
        """Gate premium-only functionality (the feed) on the key."""
        if not self.api_key.premium:
            raise PermissionError_(endpoint)
