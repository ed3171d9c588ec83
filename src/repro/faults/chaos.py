"""Chaos wrappers: fault interposition around feed, store and client.

Each wrapper composes over the real object, consults the
:class:`~repro.faults.plan.FaultPlan` for keyed, deterministic decisions,
and counts everything it injects so tests can reconcile losses exactly.

The wrappers sit on the *delivery* side only.  Server-side state — the
service's registry, the :class:`~repro.vt.feed.FeedArchive` — is never
perturbed: an outage loses the collector's copy of a minute, not the
service's, which is precisely why archive backfill can recover it.

:func:`chaos_wrap` is the single entry point.  With no plan (or a plan
that can never fire) it returns the *original* objects — the disabled
fault layer is structurally zero-overhead, which
``benchmarks/bench_collector_resilience.py`` asserts.
"""

from __future__ import annotations

from repro.errors import ServiceUnavailableError, TransientError
from repro.faults.injectors import corrupt_report
from repro.faults.plan import FaultPlan
from repro.obs.registry import NULL_REGISTRY
from repro.store.reportstore import ReportStore
from repro.vt.api import VTClient
from repro.vt.feed import PremiumFeed
from repro.vt.reports import ScanReport

#: What a chaos feed poll yields: intact reports, or corrupted wire bytes
#: the consumer must decode (and dead-letter when undecodable).
Delivery = "ScanReport | bytes"


class ChaosFeed:
    """A premium feed whose delivery path misbehaves on plan.

    Mirrors the :class:`~repro.vt.feed.PremiumFeed` surface; ``poll``
    returns a mixed batch of :class:`ScanReport` and corrupted ``bytes``.
    """

    def __init__(self, feed: PremiumFeed, plan: FaultPlan,
                 metrics=None) -> None:
        self._feed = feed
        self.plan = plan
        self._attempts: dict[int, int] = {}
        self.reports_dropped = 0
        self.reports_duplicated = 0
        self.reports_corrupted = 0
        self.reports_lost_to_outage = 0
        self.transient_failures = 0
        self.outage_polls = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_drop = metrics.counter("faults.injected.total", kind="drop")
        self._m_dup = metrics.counter(
            "faults.injected.total", kind="duplicate")
        self._m_corrupt = metrics.counter(
            "faults.injected.total", kind="corrupt")
        self._m_outage = metrics.counter(
            "faults.injected.total", kind="outage_poll")
        self._m_transient = metrics.counter(
            "faults.injected.total", kind="transient")

    # Passthrough ------------------------------------------------------

    def pending(self) -> int:
        return self._feed.pending()

    @property
    def cursor(self) -> int:
        return self._feed.cursor

    @property
    def batches_served(self) -> int:
        return self._feed.batches_served

    @property
    def reports_served(self) -> int:
        return self._feed.reports_served

    # Consumption ------------------------------------------------------

    def poll(self, until_minute: int | None = None) -> list:
        """Poll the wrapped feed through the fault plan.

        During an outage minute the buffered reports up to the bound are
        *lost* and the poll raises
        :class:`~repro.errors.ServiceUnavailableError`; a transient
        failure raises :class:`~repro.errors.TransientError` without
        draining anything.
        """
        if until_minute is None:
            return self._mangle(self._feed.poll())
        minute = until_minute - 1
        if self.plan.in_outage(minute):
            self.reports_lost_to_outage += self._feed.drop_before(until_minute)
            self.outage_polls += 1
            self._m_outage.inc()
            raise ServiceUnavailableError(f"feed outage at minute {minute}")
        attempt = self._attempts.get(minute, 0)
        if self.plan.poll_fails(minute, attempt):
            self._attempts[minute] = attempt + 1
            self.transient_failures += 1
            self._m_transient.inc()
            raise TransientError(f"feed poll failed at minute {minute}",
                                 status=429 if attempt == 0 else 500)
        self._attempts.pop(minute, None)
        return self._mangle(self._feed.poll(until_minute))

    def _mangle(self, batch: list[ScanReport]) -> list:
        out: list = []
        for report in batch:
            sha, when = report.sha256, report.scan_time
            if self.plan.drops(sha, when):
                self.reports_dropped += 1
                self._m_drop.inc()
                continue
            if self.plan.corrupts(sha, when):
                self.reports_corrupted += 1
                self._m_corrupt.inc()
                out.append(corrupt_report(
                    report, self.plan.corruption_rng(sha, when)))
            else:
                out.append(report)
            if self.plan.duplicates(sha, when):
                self.reports_duplicated += 1
                self._m_dup.inc()
                out.append(report)
        return out


class ChaosStore:
    """A report store whose writes fail transiently on plan.

    Only :meth:`ingest_unique` (the collector's write path) is
    interposed; every other attribute delegates to the wrapped store.
    """

    def __init__(self, store: ReportStore, plan: FaultPlan,
                 metrics=None) -> None:
        self._store = store
        self.plan = plan
        self._attempts: dict[tuple[str, int], int] = {}
        self.write_failures = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_write_fail = metrics.counter(
            "faults.injected.total", kind="store_write")

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    @property
    def wrapped(self) -> ReportStore:
        return self._store

    def ingest_unique(self, report: ScanReport) -> bool:
        key = (report.sha256, report.scan_time)
        attempt = self._attempts.get(key, 0)
        if self.plan.store_write_fails(report.sha256, report.scan_time,
                                       attempt):
            self._attempts[key] = attempt + 1
            self.write_failures += 1
            self._m_write_fail.inc()
            raise TransientError(
                f"store write failed for {report.sha256[:12]}@{report.scan_time}",
                status=503,
            )
        self._attempts.pop(key, None)
        return self._store.ingest_unique(report)


class ChaosEndpoint:
    """One API endpoint with keyed transient failures in front of it."""

    def __init__(self, endpoint, plan: FaultPlan, kind: str,
                 metrics=None) -> None:
        self._endpoint = endpoint
        self.plan = plan
        self.kind = kind
        self._attempts: dict[object, int] = {}
        self.transient_failures = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_fail = metrics.counter(
            "faults.injected.total",
            kind=f"api:{kind}")  # reprolint: disable=RPL105 - kind is one of the two wired endpoint names (report, feed_batch)

    def __call__(self, *args, **kwargs):
        key = args[0] if args else None
        attempt = self._attempts.get(key, 0)
        if self.plan.api_fails(self.kind, key, attempt):
            self._attempts[key] = attempt + 1
            self.transient_failures += 1
            self._m_fail.inc()
            raise TransientError(f"{self.kind} call failed for {key!r}",
                                 status=500)
        self._attempts.pop(key, None)
        return self._endpoint(*args, **kwargs)


class ChaosClient:
    """A VT client whose read endpoints fail transiently on plan.

    ``upload``/``rescan`` pass through untouched — the chaos layer models
    the *collector's* failure domain, and the collector never submits.
    """

    def __init__(self, client: VTClient, plan: FaultPlan,
                 metrics=None) -> None:
        self._client = client
        self.plan = plan
        self.report = ChaosEndpoint(client.report, plan, "report",
                                    metrics=metrics)
        self.feed_batch = ChaosEndpoint(client.feed_batch, plan, "feed_batch",
                                        metrics=metrics)
        self.upload = client.upload
        self.rescan = client.rescan

    def __getattr__(self, name: str):
        return getattr(self._client, name)


def chaos_wrap(
    feed: PremiumFeed,
    store: ReportStore,
    client: VTClient | None,
    plan: FaultPlan | None,
    metrics=None,
):
    """Interpose a fault plan, or return the originals untouched.

    Returns ``(feed, store, client)``.  A ``None`` or fully-disabled plan
    short-circuits to the unwrapped objects: no indirection, no per-call
    checks — disabled fault injection costs nothing.  ``metrics`` feeds
    every injection into ``faults.injected.total{kind=...}``.
    """
    if plan is None or plan.disabled:
        return feed, store, client
    return (
        ChaosFeed(feed, plan, metrics=metrics),
        ChaosStore(store, plan, metrics=metrics),
        ChaosClient(client, plan, metrics=metrics)
        if client is not None else None,
    )
