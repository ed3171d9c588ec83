"""The resilient minute-by-minute feed collector.

The paper's dataset exists because a pipeline polled the premium feed
once per minute, unattended, for 14 months (§4.1).  :class:`FeedCollector`
is that loop built to survive what a real 14-month run throws at it:

* **transient failures** — polls and API calls that raise
  :class:`~repro.errors.TransientError` are retried under exponential
  backoff with keyed jitter;
* **outages** — a :class:`~repro.errors.ServiceUnavailableError` (or an
  exhausted retry budget) records the missing minutes as a *gap* in the
  checkpoint instead of losing them silently;
* **gap backfill** — once the feed is healthy again, gaps are re-fetched
  through the premium catch-up endpoint
  (:class:`~repro.vt.api.FeedBatchAPI`); minutes past the archive's
  retention fall back to best-effort latest-report recovery through
  :class:`~repro.vt.api.ReportAPI`;
* **corrupt deliveries** — payloads that fail
  :func:`repro.store.codec.decode_report` validation go to the
  dead-letter queue and their poll window is marked for re-fetch;
* **duplicates and replays** — every write goes through
  :meth:`ReportStore.ingest_unique`, so retries, duplicated deliveries
  and backfill overlap can never double-count a report;
* **crashes** — a persisted checkpoint names the last minute that is in
  the saved store snapshot; a restarted collector resumes from it and
  backfills the minutes the dead process lost.

``stats()`` exposes the same kind of health surface ``store.stats()``
does for storage: every retry, gap, dead letter and recovery is counted.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.collect.backoff import BackoffPolicy
from repro.collect.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.collect.deadletter import DeadLetterQueue
from repro.errors import (
    ArchiveExpiredError,
    CheckpointError,
    CollectError,
    CorruptRecordError,
    NotFoundError,
    ServiceUnavailableError,
    TransientError,
)
from repro.obs.registry import NULL_REGISTRY
from repro.store import codec
from repro.vt.reports import ScanReport


@dataclass
class CollectorStats:
    """Health counters for one collection run (see ``stats()``)."""

    minutes_processed: int = 0
    minutes_skipped: int = 0
    polls_ok: int = 0
    transient_errors: int = 0
    polls_abandoned: int = 0
    outage_minutes: int = 0
    reports_ingested: int = 0
    duplicates_skipped: int = 0
    dead_letters: int = 0
    store_retries: int = 0
    backoff_minutes: float = 0.0
    gaps_detected: int = 0
    gap_minutes_detected: int = 0
    backfill_calls: int = 0
    minutes_backfilled: int = 0
    reports_backfilled: int = 0
    minutes_expired: int = 0
    report_fallback_calls: int = 0
    reports_recovered_latest: int = 0
    checkpoint_saves: int = 0
    resumes: int = 0
    #: Snapshot field, filled by ``stats()``: minutes still missing.
    pending_gap_minutes: int = 0

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


class FeedCollector:
    """Drives a premium feed into a report store, resiliently."""

    def __init__(
        self,
        feed,
        store,
        client=None,
        *,
        checkpoint_path: str | Path | None = None,
        store_path: str | Path | None = None,
        deadletter_path: str | Path | None = None,
        backoff: BackoffPolicy | None = None,
        persist_every: int | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] | None = None,
        metrics=None,
    ) -> None:
        self.feed = feed
        self.store = store
        self.client = client
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.store_path = Path(store_path) if store_path else None
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.persist_every = persist_every
        self.seed = seed
        self._sleep = sleep
        self._stats = CollectorStats()
        # Observability: pre-bound handles (no-ops on the null registry),
        # mirroring the CollectorStats counters that matter operationally.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_minutes = self.metrics.counter(
            "collect.minutes", outcome="processed")
        self._m_skipped = self.metrics.counter(
            "collect.minutes", outcome="skipped")
        self._m_poll_ok = self.metrics.counter("collect.polls", outcome="ok")
        self._m_poll_outage = self.metrics.counter(
            "collect.polls", outcome="outage")
        self._m_poll_abandoned = self.metrics.counter(
            "collect.polls", outcome="abandoned")
        self._m_transient = self.metrics.counter("collect.transient.total")
        self._m_ingested = self.metrics.counter("collect.ingest.reports")
        self._m_duplicates = self.metrics.counter("collect.ingest.duplicates")
        self._m_deadletters = self.metrics.counter("collect.deadletter.total")
        self._m_gap_minutes = self.metrics.counter(
            "collect.gap.minutes_detected")
        self._m_backfill_minutes = self.metrics.counter(
            "collect.backfill.minutes")
        self._m_backfill_reports = self.metrics.counter(
            "collect.backfill.reports")
        self._m_backoff = self.metrics.counter("collect.backoff.minutes")
        self._m_ckpt_saves = self.metrics.counter("collect.checkpoint.saves")
        self.deadletters = DeadLetterQueue(deadletter_path)
        self.checkpoint = Checkpoint()
        self._feed_healthy = True
        self._last_persist_minute: int | None = None
        if self.checkpoint_path is not None and self.checkpoint_path.exists():
            self._resume()
        #: Exclusive upper bound of the last successful poll: the window
        #: a corrupt delivery must have come from.
        self._poll_floor = self.checkpoint.last_minute + 1

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def _resume(self) -> None:
        self.checkpoint = load_checkpoint(self.checkpoint_path)
        if self.checkpoint.report_count != self.store.report_count:
            raise CheckpointError(
                f"checkpoint describes a store with "
                f"{self.checkpoint.report_count} reports but the loaded "
                f"store holds {self.store.report_count}"
            )
        for name, value in self.checkpoint.counters.items():
            if name == "pending_gap_minutes" or not hasattr(self._stats, name):
                continue
            kind = type(getattr(self._stats, name))
            setattr(self._stats, name, kind(value))
        self._stats.resumes += 1

    # ------------------------------------------------------------------
    # The per-minute loop
    # ------------------------------------------------------------------

    def step(self, minute: int) -> None:
        """Collect one simulated minute: poll, validate, ingest, backfill.

        Idempotent across restarts: minutes at or before the checkpoint
        are skipped.  A jump past ``last_minute + 1`` (the driver resumed
        later than the checkpoint) registers the un-polled interval as a
        gap for backfill.
        """
        ckpt = self.checkpoint
        if minute <= ckpt.last_minute:
            self._stats.minutes_skipped += 1
            self._m_skipped.inc()
            return
        if minute > ckpt.last_minute + 1:
            self._register_gap(ckpt.last_minute + 1, minute)
            self._poll_floor = minute
        batch = self._poll(minute)
        if batch is not None:
            self._stats.polls_ok += 1
            self._m_poll_ok.inc()
            self._feed_healthy = True
            self._consume(batch, minute)
            self._poll_floor = minute + 1
        ckpt.last_minute = minute
        self._stats.minutes_processed += 1
        self._m_minutes.inc()
        if self._feed_healthy and self.client is not None and ckpt.gaps:
            self.backfill(minute)
        self._maybe_persist(minute)

    def run(self, minutes: Iterable[int]) -> None:
        """Step through a sequence of minutes, then finalize."""
        for minute in minutes:
            self.step(minute)
        self.finalize()

    def finalize(self) -> None:
        """Last-chance backfill of every pending gap, then persist."""
        if self.client is not None and self.checkpoint.gaps:
            self.backfill(self.checkpoint.last_minute + 1, force=True)
        self.persist()

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    def _poll(self, minute: int) -> list | None:
        """One minute's poll under retry; ``None`` means the minute is a gap."""
        rng = random.Random(f"{self.seed}:pollwait:{minute}")
        attempt = 0
        with self.metrics.span("collect.poll.seconds"):
            while True:
                try:
                    return self.feed.poll(until_minute=minute + 1)
                except ServiceUnavailableError:
                    self._stats.outage_minutes += 1
                    self._m_poll_outage.inc()
                    self._register_gap(minute, minute + 1)
                    self._feed_healthy = False
                    return None
                except TransientError:
                    self._stats.transient_errors += 1
                    self._m_transient.inc()
                    attempt += 1
                    if attempt >= self.backoff.max_attempts:
                        self._stats.polls_abandoned += 1
                        self._m_poll_abandoned.inc()
                        self._register_gap(minute, minute + 1)
                        self._feed_healthy = False
                        return None
                    self._wait(self.backoff.delay(attempt - 1, rng))

    # ------------------------------------------------------------------
    # Validation + ingest
    # ------------------------------------------------------------------

    def _consume(self, batch: list, minute: int) -> None:
        """Validate one polled batch and ingest the healthy reports."""
        reports: list[ScanReport] = []
        for item in batch:
            if isinstance(item, (bytes, bytearray, memoryview)):
                payload = bytes(item)
                try:
                    reports.append(codec.decode_report(payload))
                except CorruptRecordError as exc:
                    self.deadletters.add(payload, str(exc), minute)
                    self._stats.dead_letters += 1
                    self._m_deadletters.inc()
                    # The intact copy still exists server-side: mark the
                    # whole un-acknowledged poll window for re-fetch.
                    self._register_gap(self._poll_floor, minute + 1)
            else:
                reports.append(item)
        self._ingest(reports, minute)

    def _ingest(self, reports: list[ScanReport], minute: int) -> tuple[int, int]:
        """Idempotent ingest with whole-batch retry on write failures."""
        ingested = duplicates = 0
        unique: dict[tuple[str, int], ScanReport] = {}
        for report in reports:
            key = (report.sha256, report.scan_time)
            if key in unique:
                duplicates += 1  # delivered twice within one batch
            else:
                unique[key] = report
        rng = random.Random(f"{self.seed}:storewait:{minute}")
        done: set[tuple[str, int]] = set()
        attempt = 0
        while True:
            try:
                for key, report in unique.items():
                    if key in done:
                        continue
                    if self.store.ingest_unique(report):
                        ingested += 1
                    else:
                        duplicates += 1
                    done.add(key)
                break
            except TransientError as exc:
                self._stats.store_retries += 1
                attempt += 1
                if attempt >= self.backoff.max_attempts:
                    raise CollectError(
                        f"store writes kept failing after "
                        f"{attempt} attempts at minute {minute}"
                    ) from exc
                self._wait(self.backoff.delay(attempt - 1, rng))
        self._stats.reports_ingested += ingested
        self._stats.duplicates_skipped += duplicates
        self._m_ingested.inc(ingested)
        self._m_duplicates.inc(duplicates)
        return ingested, duplicates

    # ------------------------------------------------------------------
    # Gap bookkeeping + backfill
    # ------------------------------------------------------------------

    def _register_gap(self, start: int, end: int) -> None:
        before = self.checkpoint.gap_minutes
        self.checkpoint.add_gap(start, end)
        grew = self.checkpoint.gap_minutes - before
        if grew > 0:
            self._stats.gaps_detected += 1
            self._stats.gap_minutes_detected += grew
            self._m_gap_minutes.inc(grew)

    def backfill(self, now: int, force: bool = False) -> None:
        """Re-fetch pending gaps through the catch-up feed endpoint.

        Only gaps that lie fully in the past are attempted (the current
        minute may still be mid-outage) unless ``force``.  Expired
        minutes fall back to latest-report recovery; minutes whose
        fetch keeps failing stay in the checkpoint for the next attempt.
        """
        expired: list[int] = []
        for start, end in list(self.checkpoint.gaps):
            if end > now and not force:
                continue
            for g in range(start, end):
                try:
                    batch = self._call_api(
                        self.client.feed_batch, "feed_batch", g, now)
                except ArchiveExpiredError:
                    self._stats.minutes_expired += 1
                    expired.append(g)
                    self.checkpoint.remove_gap(g, g + 1)
                    continue
                except TransientError:
                    continue  # still in the gap list; retried next round
                self._stats.backfill_calls += 1
                ingested, _ = self._ingest(batch, now)
                self._stats.minutes_backfilled += 1
                self._stats.reports_backfilled += ingested
                self._m_backfill_minutes.inc()
                self._m_backfill_reports.inc(ingested)
                self.checkpoint.remove_gap(g, g + 1)
        if expired:
            self._recover_latest(expired, now)

    def _recover_latest(self, minutes: list[int], now: int) -> None:
        """Best-effort recovery of expired gap minutes via ReportAPI.

        Only a sample whose *latest* analysis landed in the lost minutes
        can be recovered this way — exactly the limitation that makes the
        archive's retention window matter.
        """
        lost = set(minutes)
        for sha256 in list(self.store.samples()):
            try:
                report = self._call_api(self.client.report, "report",
                                        sha256, now)
            except (TransientError, NotFoundError):
                continue
            self._stats.report_fallback_calls += 1
            if report.scan_time in lost:
                if self.store.ingest_unique(report):
                    self._stats.reports_recovered_latest += 1
                    self._stats.reports_ingested += 1
                    self._m_ingested.inc()

    def _call_api(self, endpoint, kind: str, arg, now: int):
        """Call one API endpoint under transient-retry."""
        rng = random.Random(f"{self.seed}:apiwait:{kind}:{arg}")
        attempt = 0
        while True:
            try:
                return endpoint(arg, now)
            except TransientError:
                self._stats.transient_errors += 1
                self._m_transient.inc()
                attempt += 1
                if attempt >= self.backoff.max_attempts:
                    raise
                self._wait(self.backoff.delay(attempt - 1, rng))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _maybe_persist(self, minute: int) -> None:
        if self.persist_every is None or self.checkpoint_path is None:
            return
        if (self._last_persist_minute is None
                or minute - self._last_persist_minute >= self.persist_every):
            self.persist()
            self._last_persist_minute = minute

    def persist(self) -> None:
        """Snapshot the store, then the checkpoint describing it.

        Ordering is the durability contract: the checkpoint on disk
        always refers to a store snapshot that was fully written first.
        """
        if self.store_path is not None:
            self.store.save(self.store_path)
        if self.checkpoint_path is not None:
            self.checkpoint.report_count = self.store.report_count
            counters = self._stats.as_dict()
            counters.pop("pending_gap_minutes", None)
            self.checkpoint.counters = counters
            save_checkpoint(self.checkpoint, self.checkpoint_path)
            self._stats.checkpoint_saves += 1
            self._m_ckpt_saves.inc()

    # ------------------------------------------------------------------
    # Health surface
    # ------------------------------------------------------------------

    def _wait(self, minutes: float) -> None:
        self._stats.backoff_minutes += minutes
        self._m_backoff.inc(minutes)
        if self._sleep is not None:
            self._sleep(minutes)

    def stats(self) -> CollectorStats:
        """A snapshot of the collector's health counters."""
        return dataclasses.replace(
            self._stats, pending_gap_minutes=self.checkpoint.gap_minutes
        )
