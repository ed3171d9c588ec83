"""Unit tests for the premium feed (repro.vt.feed)."""

import pytest

from repro.errors import ArchiveExpiredError, PermissionError_
from repro.vt.feed import FeedArchive, PremiumFeed
from repro.vt.samples import Sample, sha256_of
from repro.vt.service import VirusTotalService


@pytest.fixture()
def service():
    return VirusTotalService(seed=8)


def _upload(service, token, when, *sinks):
    """Upload a new sample and publish its report to each feed/archive."""
    s = Sample(
        sha256=sha256_of(token),
        file_type="TXT",
        malicious=False,
        first_seen=when,
    )
    report = service.upload(s, when)
    for sink in sinks:
        sink.publish([report])
    return report


class TestLifecycle:
    def test_feed_requires_premium(self):
        with pytest.raises(PermissionError_):
            PremiumFeed(premium=False)

    def test_detached_feed_sees_nothing(self, service):
        # The service delivers to nobody: a feed holds only what is
        # published to it.
        feed = PremiumFeed()
        _upload(service, "a", 100)
        assert feed.pending() == 0


class TestPolling:
    def test_poll_drains_buffer(self, service):
        feed = PremiumFeed()
        _upload(service, "a", 100, feed)
        _upload(service, "b", 150, feed)
        batch = feed.poll()
        assert len(batch) == 2
        assert feed.pending() == 0

    def test_poll_with_minute_bound(self, service):
        feed = PremiumFeed()
        _upload(service, "a", 100, feed)
        _upload(service, "b", 200, feed)
        early = feed.poll(until_minute=150)
        assert [r.scan_time for r in early] == [100]
        assert feed.pending() == 1

    def test_counters(self, service):
        feed = PremiumFeed()
        _upload(service, "a", 100, feed)
        feed.poll()
        assert feed.batches_served == 1
        assert feed.reports_served == 1

    def test_bound_exactly_at_report_minute_excludes_it(self, service):
        feed = PremiumFeed()
        _upload(service, "a", 100, feed)
        assert feed.poll(until_minute=100) == []
        assert feed.pending() == 1
        assert [r.scan_time for r in feed.poll(until_minute=101)] == [100]

    def test_poll_zero_bound(self, service):
        feed = PremiumFeed()
        _upload(service, "a", 0, feed)
        assert [r.scan_time for r in feed.poll(until_minute=1)] == [0]

    def test_cursor_advances_with_bounded_polls(self, service):
        feed = PremiumFeed()
        assert feed.cursor == 0
        feed.poll(until_minute=50)
        assert feed.cursor == 50
        feed.poll(until_minute=30)  # never regresses
        assert feed.cursor == 50
        feed.poll()  # unbounded drains don't move the minute cursor
        assert feed.cursor == 50

    def test_drop_before_discards_and_counts(self, service):
        feed = PremiumFeed()
        _upload(service, "a", 10, feed)
        _upload(service, "b", 20, feed)
        _upload(service, "c", 30, feed)
        assert feed.drop_before(25) == 2
        assert feed.cursor == 25
        assert [r.scan_time for r in feed.poll()] == [30]


class TestFeedArchive:
    def test_records_per_minute_batches(self, service):
        archive = FeedArchive()
        _upload(service, "a", 100, archive)
        _upload(service, "b", 100, archive)
        _upload(service, "c", 105, archive)
        assert len(archive.batch(100)) == 2
        assert len(archive.batch(105)) == 1
        assert archive.batch(101) == []
        assert archive.minutes_retained() == 2

    def test_batch_returns_a_copy(self, service):
        archive = FeedArchive()
        _upload(service, "a", 100, archive)
        archive.batch(100).clear()
        assert len(archive.batch(100)) == 1

    def test_retention_evicts_old_minutes(self, service):
        archive = FeedArchive(retention_minutes=50)
        _upload(service, "a", 10, archive)
        _upload(service, "b", 100, archive)
        assert archive.horizon == 100
        assert archive.oldest_available == 50
        with pytest.raises(ArchiveExpiredError):
            archive.batch(10)
        assert len(archive.batch(100)) == 1

    def test_expiry_error_carries_bounds(self, service):
        archive = FeedArchive(retention_minutes=50)
        _upload(service, "a", 100, archive)
        with pytest.raises(ArchiveExpiredError) as excinfo:
            archive.batch(0)
        assert excinfo.value.minute == 0
        assert excinfo.value.horizon == 50

    def test_boundary_minute_is_served_not_raised(self, service):
        """The retention interval is closed: ``batch(oldest_available)``
        must succeed (regression — pruning and serving once derived the
        floor independently, leaving the exact boundary to luck)."""
        archive = FeedArchive(retention_minutes=50)
        _upload(service, "a", 50, archive)
        _upload(service, "b", 100, archive)
        assert archive.oldest_available == 50
        assert [r.scan_time for r in archive.batch(50)] == [50]

    def test_boundary_edges(self, service):
        """Every edge of the window: floor−1 raises, floor and floor+1
        and the horizon itself are served."""
        archive = FeedArchive(retention_minutes=50)
        _upload(service, "a", 49, archive)
        _upload(service, "b", 50, archive)
        _upload(service, "c", 51, archive)
        _upload(service, "d", 100, archive)
        floor = archive.oldest_available
        assert floor == 50
        with pytest.raises(ArchiveExpiredError) as excinfo:
            archive.batch(floor - 1)
        assert excinfo.value.minute == floor - 1
        assert excinfo.value.horizon == floor
        assert len(archive.batch(floor)) == 1
        assert len(archive.batch(floor + 1)) == 1
        assert len(archive.batch(archive.horizon)) == 1

    def test_boundary_minute_pruning_matches_serving(self, service):
        """A batch recorded at what later becomes exactly the floor is
        retained, and everything strictly below it is pruned."""
        archive = FeedArchive(retention_minutes=50)
        for minute in range(0, 101, 10):
            _upload(service, str(minute), minute, archive)
        assert archive.oldest_available == 50
        retained = {m for m in range(0, 101, 10)
                    if m >= archive.oldest_available}
        assert archive.minutes_retained() == len(retained)
        for minute in sorted(retained):
            assert len(archive.batch(minute)) == 1

    def test_from_store_replays_frozen_reports(self, service):
        from repro.store import ReportStore

        store = ReportStore()
        live = FeedArchive()
        _upload(service, "a", 100, live)
        _upload(service, "b", 100, live)
        _upload(service, "c", 105, live)
        for minute in (100, 105):
            store.ingest_batch(live.batch(minute))
        rebuilt = FeedArchive.from_store(store)
        assert rebuilt.horizon == live.horizon
        assert rebuilt.oldest_available == live.oldest_available
        assert len(rebuilt.batch(100)) == 2
        assert len(rebuilt.batch(105)) == 1

    def test_from_store_applies_retention(self, service):
        from repro.store import ReportStore

        store = ReportStore()
        live = FeedArchive()
        _upload(service, "a", 10, live)
        _upload(service, "b", 100, live)
        for minute in (10, 100):
            store.ingest_batch(live.batch(minute))
        rebuilt = FeedArchive.from_store(store, retention_minutes=50)
        assert rebuilt.oldest_available == 50
        with pytest.raises(ArchiveExpiredError):
            rebuilt.batch(10)
        assert len(rebuilt.batch(100)) == 1

    def test_detached_archive_records_nothing(self, service):
        archive = FeedArchive()
        _upload(service, "a", 100)
        assert archive.minutes_retained() == 0

    def test_archive_and_feed_coexist(self, service):
        archive = FeedArchive()
        feed = PremiumFeed()
        _upload(service, "a", 100, archive, feed)
        assert feed.pending() == 1
        assert len(feed.poll()) == 1
        assert len(archive.batch(100)) == 1
