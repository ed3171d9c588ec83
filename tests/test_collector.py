"""Tests for the resilient collection pipeline (repro.collect)."""

import json
import random

import pytest

from repro.collect import (
    BackoffPolicy,
    Checkpoint,
    DeadLetterQueue,
    FeedCollector,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import CheckpointError, CollectError, ConfigError, TransientError
from repro.faults.chaos import ChaosFeed
from repro.faults.plan import FaultPlan
from repro.store import codec
from repro.store.reportstore import ReportStore
from repro.vt.api import VTClient
from repro.vt.feed import FeedArchive, PremiumFeed
from repro.vt.samples import Sample, sha256_of
from repro.vt.service import VirusTotalService

from conftest import make_report


@pytest.fixture()
def service():
    return VirusTotalService(seed=8)


def _upload(service, token, when, *sinks):
    """Upload a new sample and publish its report to each feed/archive."""
    s = Sample(sha256=sha256_of(token), file_type="TXT",
               malicious=False, first_seen=when)
    report = service.upload(s, when)
    for sink in sinks:
        sink.publish([report])
    return report


class TestBackoffPolicy:
    def test_exponential_growth_capped(self):
        policy = BackoffPolicy(base_minutes=1, factor=2, max_minutes=8,
                               jitter=0.0)
        rng = random.Random(0)
        assert [policy.delay(a, rng) for a in range(5)] == [1, 2, 4, 8, 8]

    def test_jitter_bounds(self):
        policy = BackoffPolicy(base_minutes=4, factor=1, jitter=0.25)
        rng = random.Random(1)
        for _ in range(200):
            assert 3.0 <= policy.delay(0, rng) <= 5.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(base_minutes=0)
        with pytest.raises(ConfigError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            BackoffPolicy(jitter=1.0)


class TestCheckpoint:
    def test_add_gap_merges_adjacent(self):
        ckpt = Checkpoint()
        ckpt.add_gap(10, 11)
        ckpt.add_gap(11, 12)
        ckpt.add_gap(20, 25)
        assert ckpt.gaps == [(10, 12), (20, 25)]
        assert ckpt.gap_minutes == 7

    def test_add_gap_merges_overlap(self):
        ckpt = Checkpoint()
        ckpt.add_gap(10, 20)
        ckpt.add_gap(15, 30)
        assert ckpt.gaps == [(10, 30)]

    def test_empty_gap_ignored(self):
        ckpt = Checkpoint()
        ckpt.add_gap(10, 10)
        assert ckpt.gaps == []

    def test_remove_gap_splits(self):
        ckpt = Checkpoint()
        ckpt.add_gap(10, 30)
        ckpt.remove_gap(15, 20)
        assert ckpt.gaps == [(10, 15), (20, 30)]

    def test_remove_gap_edges(self):
        ckpt = Checkpoint()
        ckpt.add_gap(10, 30)
        ckpt.remove_gap(10, 15)
        ckpt.remove_gap(25, 30)
        assert ckpt.gaps == [(15, 25)]
        ckpt.remove_gap(0, 100)
        assert ckpt.gaps == []

    def test_save_load_round_trip(self, tmp_path):
        ckpt = Checkpoint(last_minute=999, report_count=42,
                          counters={"reports_ingested": 42.0})
        ckpt.add_gap(100, 200)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded == ckpt
        assert not list(tmp_path.glob("*.tmp"))  # atomic write cleaned up

    def test_unwritable_path_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot write checkpoint"):
            save_checkpoint(Checkpoint(), tmp_path / "missing" / "ckpt.json")

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_missing_fields_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 1}), encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_wrong_version_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99, "last_minute": 0,
                                    "gaps": [], "report_count": 0}),
                        encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestDeadLetterQueue:
    def test_in_memory(self):
        dlq = DeadLetterQueue()
        dlq.add(b"\x00\x01", "truncated", 50)
        dlq.add(b"\x02", "truncated", 51)
        dlq.add(b"\x03", "bad magic", 52)
        assert len(dlq) == 3
        assert dlq.errors_by_kind() == {"truncated": 2, "bad magic": 1}

    def test_file_backed_round_trip(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        dlq = DeadLetterQueue(path)
        dlq.add(b"\xde\xad", "err", 9)
        reloaded = DeadLetterQueue(path)
        assert len(reloaded) == 1
        entry = reloaded.entries()[0]
        assert (entry.payload, entry.error, entry.minute) == (b"\xde\xad", "err", 9)


class _FixedFeed:
    """A feed stub that serves scripted batches per minute."""

    def __init__(self, batches):
        self.batches = batches

    def poll(self, until_minute=None):
        return self.batches.pop(0) if self.batches else []


class TestFeedCollector:
    def _pipeline(self, service):
        archive = FeedArchive()
        feed = PremiumFeed()
        store = ReportStore()
        client = VTClient(service, premium=True, archive=archive)
        return feed, store, client, archive

    def test_minute_loop_ingests(self, service):
        feed, store, client, archive = self._pipeline(service)
        collector = FeedCollector(feed, store, client)
        _upload(service, "a", 0, archive, feed)
        _upload(service, "b", 2, archive, feed)
        for minute in range(4):
            collector.step(minute)
        assert store.report_count == 2
        stats = collector.stats()
        assert stats.minutes_processed == 4
        assert stats.reports_ingested == 2
        assert stats.pending_gap_minutes == 0

    def test_already_collected_minutes_skipped(self, service):
        feed, store, client, archive = self._pipeline(service)
        collector = FeedCollector(feed, store, client)
        collector.step(5)
        collector.step(3)
        assert collector.stats().minutes_skipped == 1

    def test_jump_gap_is_backfilled_from_archive(self, service):
        feed, store, client, archive = self._pipeline(service)
        collector = FeedCollector(feed, store, client)
        collector.step(0)
        # The collector is down while minute 5's report is published:
        # only the archive holds it.
        _upload(service, "a", 5, archive)
        collector.step(10)
        assert collector.stats().gaps_detected == 1
        assert collector.stats().reports_backfilled == 1
        assert store.report_count == 1
        assert collector.stats().pending_gap_minutes == 0

    def test_corrupt_delivery_dead_letters_and_recovers(self, service):
        feed, store, client, archive = self._pipeline(service)
        # Only the archive holds the intact copy; the feed delivers a
        # corrupt one.
        report = _upload(service, "a", 0, archive)
        fixed = _FixedFeed([[codec.encode_report(report)[:10]]])
        collector = FeedCollector(fixed, store, client)
        collector.step(0)
        collector.step(1)
        stats = collector.stats()
        assert stats.dead_letters == 1
        assert len(collector.deadletters) == 1
        # The poll window was re-fetched from the archive: nothing lost.
        assert store.report_count == 1
        assert store.report_series(report.sha256)[0] == report
        assert stats.pending_gap_minutes == 0

    def test_duplicate_deliveries_are_idempotent(self, service):
        feed, store, client, archive = self._pipeline(service)
        report = _upload(service, "a", 0, archive)
        fixed = _FixedFeed([[report, report], [report]])
        collector = FeedCollector(fixed, store, client)
        collector.step(0)
        collector.step(1)
        assert store.report_count == 1
        assert collector.stats().duplicates_skipped == 2

    def test_store_failures_exhaust_retry_budget(self, service):
        feed, store, client, archive = self._pipeline(service)
        _upload(service, "a", 0, archive, feed)

        class _BrokenStore:
            def __getattr__(self, name):
                return getattr(store, name)

            def ingest_unique(self, report):
                raise TransientError("disk on fire", status=503)

        collector = FeedCollector(feed, _BrokenStore(), client,
                                  backoff=BackoffPolicy(max_attempts=3))
        with pytest.raises(CollectError):
            collector.step(0)
        assert collector.stats().store_retries == 3  # every attempt failed

    def test_injected_transients_can_abandon_a_poll(self, service):
        # A retry fails at the configured rate too, so a two-attempt
        # budget abandons about rate² of the polls; finalize backfills
        # every abandoned minute from the archive.
        feed, store, client, archive = self._pipeline(service)
        for minute in range(0, 500, 5):
            _upload(service, f"s{minute}", minute, archive, feed)
        chaos = ChaosFeed(feed, FaultPlan(seed=3, transient_rate=0.2))
        collector = FeedCollector(chaos, store, client,
                                  backoff=BackoffPolicy(max_attempts=2))
        collector.run(range(500))
        stats = collector.stats()
        assert 0 < stats.polls_abandoned < 50  # 500 × 0.2² = 20 expected
        assert stats.pending_gap_minutes == 0
        assert store.report_count == 100

    def test_persist_and_resume(self, service, tmp_path):
        feed, store, client, archive = self._pipeline(service)
        ckpt_path = tmp_path / "ckpt.json"
        store_path = tmp_path / "store.rpr"
        collector = FeedCollector(feed, store, client,
                                  checkpoint_path=ckpt_path,
                                  store_path=store_path, persist_every=1)
        _upload(service, "a", 0, archive, feed)
        _upload(service, "b", 1, archive, feed)
        collector.step(0)
        collector.step(1)
        assert ckpt_path.exists() and store_path.exists()

        resumed_store = ReportStore.load(store_path, reopen=True)
        resumed = FeedCollector(feed, resumed_store, client,
                                checkpoint_path=ckpt_path,
                                store_path=store_path)
        stats = resumed.stats()
        assert stats.resumes == 1
        assert stats.reports_ingested == 2  # counters restored
        assert resumed.checkpoint.last_minute == 1
        resumed.step(1)  # replay is a no-op
        assert resumed_store.report_count == 2

    def test_persist_makes_the_store_durable_first(self, service, tmp_path,
                                                   sync_log):
        feed, store, client, archive = self._pipeline(service)
        collector = FeedCollector(feed, store, client,
                                  checkpoint_path=tmp_path / "ckpt.json",
                                  store_path=tmp_path / "store.rpr")
        _upload(service, "a", 0, archive, feed)
        collector.step(0)
        collector.persist()
        assert sync_log == ["fsync file", "replace store.rpr", "fsync dir",
                            "fsync file", "replace ckpt.json", "fsync dir"]

    def test_resume_with_mismatched_store_raises(self, service, tmp_path):
        feed, store, client, archive = self._pipeline(service)
        ckpt = Checkpoint(last_minute=10, report_count=999)
        ckpt_path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, ckpt_path)
        with pytest.raises(CheckpointError):
            FeedCollector(feed, store, client, checkpoint_path=ckpt_path)

    def test_finalize_backfills_pending_gaps(self, service):
        feed, store, client, archive = self._pipeline(service)
        collector = FeedCollector(feed, store, client)
        _upload(service, "a", 0, archive, feed)
        feed.drop_before(1)  # lose the delivery, as an outage would
        collector.step(0)
        collector.checkpoint.add_gap(0, 1)
        collector.finalize()
        assert store.report_count == 1
        assert collector.stats().pending_gap_minutes == 0
