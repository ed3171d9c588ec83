"""Unit and integration tests for ReportStore (repro.store.reportstore)."""

import struct

import pytest

from repro.errors import CorruptRecordError, ShardClosedError, UnknownSampleError
from repro.store.reportstore import ReportStore
from repro.vt import clock

from conftest import make_report, make_sha


def _month_time(month: int, offset: int = 1000) -> int:
    return clock.MONTH_STARTS[month] + offset


@pytest.fixture()
def store():
    return ReportStore(block_records=4)


def _fill(store: ReportStore, n_samples: int = 3, scans_each: int = 3):
    reports = []
    for i in range(n_samples):
        sha = make_sha(f"s{i}")
        for k in range(scans_each):
            report = make_report(
                sha=sha,
                scan_time=_month_time(k, offset=100 * i + k),
                labels=[1, 0, 0, 0, 0],
                first_submission=0 if i % 2 == 0 else -50,
            )
            reports.append(report)
            store.ingest(report)
    return reports


class TestIngest:
    def test_counts(self, store):
        _fill(store)
        assert store.report_count == 9
        assert store.sample_count == 3

    def test_monthly_sharding(self, store):
        _fill(store, scans_each=3)
        assert sorted(store.shards) == [0, 1, 2]

    def test_fresh_sample_accounting(self, store):
        _fill(store, n_samples=4)
        assert store.fresh_sample_count == 2  # i = 0 and 2

    def test_ingest_batch_returns_count(self, store):
        batch = [make_report(sha=make_sha("b"), scan_time=10),
                 make_report(sha=make_sha("b"), scan_time=20)]
        assert store.ingest_batch(batch) == 2

    def test_closed_store_rejects_ingest(self, store):
        _fill(store)
        store.close()
        with pytest.raises(ShardClosedError):
            store.ingest(make_report())


class TestRetrieval:
    def test_contains(self, store):
        _fill(store)
        assert make_sha("s0") in store
        assert make_sha("ghost") not in store

    def test_reports_for_sorted_by_time(self, store):
        _fill(store)
        reports = store.reports_for(make_sha("s1"))
        assert len(reports) == 3
        times = [r.scan_time for r in reports]
        assert times == sorted(times)

    def test_reports_for_unknown_raises(self, store):
        with pytest.raises(UnknownSampleError):
            store.reports_for(make_sha("ghost"))

    def test_sample_metadata(self, store):
        _fill(store)
        assert store.sample_file_type(make_sha("s0")) == "Win32 EXE"
        assert store.sample_is_fresh(make_sha("s0"))
        assert not store.sample_is_fresh(make_sha("s1"))

    def test_metadata_unknown_raises(self, store):
        with pytest.raises(UnknownSampleError):
            store.sample_file_type(make_sha("ghost"))
        with pytest.raises(UnknownSampleError):
            store.report_count_of(make_sha("ghost"))

    def test_iter_reports_visits_everything(self, store):
        ingested = _fill(store)
        assert sorted(r.sha256 + str(r.scan_time)
                      for r in store.iter_reports()) == sorted(
            r.sha256 + str(r.scan_time) for r in ingested
        )

    def test_iter_sample_reports_groups(self, store):
        _fill(store)
        grouped = dict(store.iter_sample_reports())
        assert set(grouped) == {make_sha(f"s{i}") for i in range(3)}
        for reports in grouped.values():
            assert len(reports) == 3

    def test_report_count_of(self, store):
        _fill(store)
        assert store.report_count_of(make_sha("s2")) == 3

    def test_block_cache_consistency(self, store):
        # Read the same sample repeatedly; the block cache must not
        # corrupt results.
        _fill(store, n_samples=6, scans_each=2)
        first = store.reports_for(make_sha("s3"))
        for _ in range(10):
            assert store.reports_for(make_sha("s3")) == first


class TestInterleavedIngestRead:
    """Regression: the block cache used to snapshot the open buffer.

    Any read followed by more ingests into the same month then served
    stale data — an IndexError once the index pointed past the snapshot,
    or silently dropped reports once the buffer froze into a real block
    under the same cache key.
    """

    def test_read_ingest_read_same_month(self, store):
        sha = make_sha("victim")
        times = list(range(1000, 1009))
        for t in times[:5]:  # past one block boundary: block 0 + open buffer
            store.ingest(make_report(sha=sha, scan_time=t))
        assert [r.scan_time for r in store.reports_for(sha)] == times[:5]
        for t in times[5:]:  # freezes block 1 under the cached key
            store.ingest(make_report(sha=sha, scan_time=t))
        assert [r.scan_time for r in store.reports_for(sha)] == times

    def test_read_survives_flush_and_close(self, store):
        sha = make_sha("victim")
        times = list(range(2000, 2009))
        for t in times[:5]:
            store.ingest(make_report(sha=sha, scan_time=t))
        before = store.reports_for(sha)
        assert len(before) == 5
        for t in times[5:]:
            store.ingest(make_report(sha=sha, scan_time=t))
        store.flush()
        assert [r.scan_time for r in store.reports_for(sha)] == times
        store.close()
        assert [r.scan_time for r in store.reports_for(sha)] == times

    def test_open_buffer_reads_are_live_not_snapshots(self, store):
        sha_a, sha_b = make_sha("a"), make_sha("b")
        store.ingest(make_report(sha=sha_a, scan_time=100))
        # This read touches the open buffer; it must not pin a snapshot.
        assert len(store.reports_for(sha_a)) == 1
        store.ingest(make_report(sha=sha_b, scan_time=101))
        assert len(store.reports_for(sha_b)) == 1
        assert store.cache_stats().open_reads >= 2

    def test_interleaved_streaming_grouping(self, store):
        shas = [make_sha(f"x{i}") for i in range(3)]
        for t in range(12):
            store.ingest(make_report(sha=shas[t % 3], scan_time=1000 + t))
        grouped = dict(store.iter_sample_reports())
        assert {s: len(r) for s, r in grouped.items()} == {s: 4 for s in shas}
        store.ingest(make_report(sha=shas[0], scan_time=2000))
        grouped = dict(store.iter_sample_reports())
        assert len(grouped[shas[0]]) == 5


class TestStreaming:
    def test_groups_complete_and_time_sorted(self, store):
        _fill(store, n_samples=5, scans_each=3)
        store.close()
        grouped = dict(store.iter_sample_reports())
        assert set(grouped) == {make_sha(f"s{i}") for i in range(5)}
        for reports in grouped.values():
            times = [r.scan_time for r in reports]
            assert times == sorted(times)

    def test_matches_random_access(self, store):
        _fill(store, n_samples=8, scans_each=3)
        store.close()
        for sha, reports in store.iter_sample_reports():
            assert reports == store.reports_for(sha)

    def test_peak_resident_bounded_by_live_window(self):
        # Samples with contiguous reports complete block by block, so the
        # pass never holds more than ~one block's worth of reports — far
        # below the store total.
        store = ReportStore(block_records=8)
        n_samples, scans_each = 100, 4
        for i in range(n_samples):
            sha = make_sha(f"seq{i}")
            for k in range(scans_each):
                store.ingest(make_report(
                    sha=sha, scan_time=1000 + i * scans_each + k))
        store.close()
        for _ in store.iter_sample_reports():
            pass
        peak = store.cache_stats().peak_stream_reports
        total = n_samples * scans_each
        assert peak <= 2 * 8  # ≤ two block windows of live samples
        assert peak < total / 10

    def test_decodes_each_block_once(self, store):
        _fill(store, n_samples=6, scans_each=2)
        store.close()
        n_blocks = sum(len(s.blocks) for s in store.shards.values())
        before = store.cache_stats().blocks_decoded
        list(store.iter_sample_reports())
        assert store.cache_stats().blocks_decoded - before == n_blocks


class TestCacheInstrumentation:
    def test_counters_via_store_stats(self, store):
        _fill(store, n_samples=6, scans_each=2)
        store.close()
        store.reports_for(make_sha("s1"))
        store.reports_for(make_sha("s1"))
        cache = store.stats().cache
        assert cache.hits > 0
        assert cache.misses > 0
        assert cache.blocks_decoded > 0
        assert cache.bytes_resident > 0
        assert cache.entries > 0
        assert 0.0 < cache.hit_rate <= 1.0

    def test_bytes_bounded_eviction(self):
        # A tiny budget forces evictions while results stay correct.
        store = ReportStore(block_records=2, cache_bytes=1200)
        shas = [make_sha(f"e{i}") for i in range(12)]
        for t, sha in enumerate(shas):
            store.ingest(make_report(sha=sha, scan_time=1000 + t))
        store.close()
        for sha in shas:
            assert len(store.reports_for(sha)) == 1
        cache = store.cache_stats()
        assert cache.evictions > 0
        assert cache.bytes_resident <= cache.bytes_limit

    def test_drop_caches(self, store):
        _fill(store)
        store.close()
        store.reports_for(make_sha("s0"))
        assert store.cache_stats().entries > 0
        store.drop_caches()
        after = store.cache_stats()
        assert after.entries == 0
        assert after.bytes_resident == 0
        assert after.misses > 0  # counters survive

    def test_open_buffer_never_cached(self, store):
        sha = make_sha("live")
        store.ingest(make_report(sha=sha, scan_time=1000))
        for _ in range(5):
            store.reports_for(sha)
        cache = store.cache_stats()
        assert cache.entries == 0
        assert cache.open_reads == 5


class TestStats:
    def test_table2_months(self, store):
        _fill(store)
        stats = store.stats()
        assert len(stats.months) == clock.COLLECTION_MONTHS
        assert stats.months[0].label == "05/2021"
        assert stats.total_reports == 9

    def test_compression_rate_positive(self, store):
        _fill(store, n_samples=10)
        store.close()
        assert store.stats().compression_rate > 1.0

    def test_fresh_fraction(self, store):
        _fill(store, n_samples=4)
        assert store.stats().fresh_fraction == pytest.approx(0.5)

    def test_empty_store_stats(self):
        stats = ReportStore().stats()
        assert stats.total_reports == 0
        assert stats.compression_rate == 0.0
        assert stats.fresh_fraction == 0.0


class TestPersistence:
    def test_save_load_round_trip(self, store, tmp_path):
        ingested = _fill(store, n_samples=5, scans_each=2)
        store.close()
        path = tmp_path / "reports.store"
        store.save(path)
        loaded = ReportStore.load(path)
        assert loaded.report_count == store.report_count
        assert loaded.sample_count == store.sample_count
        assert loaded.fresh_sample_count == store.fresh_sample_count
        for i in range(5):
            sha = make_sha(f"s{i}")
            assert loaded.reports_for(sha) == store.reports_for(sha)
        del ingested

    def test_loaded_store_is_sealed(self, store, tmp_path):
        _fill(store)
        path = tmp_path / "x.store"
        store.save(path)
        loaded = ReportStore.load(path)
        with pytest.raises(ShardClosedError):
            loaded.ingest(make_report())

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"this is not a store")
        with pytest.raises(CorruptRecordError):
            ReportStore.load(path)

    def test_truncated_file_raises_corrupt_record_error(self, store,
                                                        tmp_path):
        # Wherever the cut lands — magic, header, shard table, block
        # payload, index — the decode error crossing the store boundary
        # is CorruptRecordError, never raw struct.error/ValueError.
        _fill(store)
        path = tmp_path / "trunc.store"
        store.save(path)
        blob = path.read_bytes()
        for cut in (3, 9, len(blob) // 3, len(blob) // 2, len(blob) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptRecordError):
                ReportStore.load(path)

    def test_damaged_month_report_count_spares_the_frame(self, store,
                                                         tmp_path):
        # The shard table's per-month report count is trusted for the
        # store totals only; the analysis frame counts the blocks' own
        # records, so a damaged count cannot break it.
        _fill(store)
        store.close()
        path = tmp_path / "count.store"
        store.save(path)
        month = min(store.shards)
        shard = store.shards[month]
        entry = struct.pack("<iIq", month, len(shard.blocks),
                            shard.report_count)
        blob = path.read_bytes()
        assert blob.count(entry) == 1
        path.write_bytes(blob.replace(entry, struct.pack(
            "<iIq", month, len(shard.blocks), shard.report_count + 5)))
        loaded = ReportStore.load(path)
        assert loaded.report_count == store.report_count + 5
        frame = loaded.series_frame()
        assert frame.n_reports == len(frame.labels) == store.report_count
        assert frame.to_series() == store.series_frame().to_series()

    def test_corrupt_mmap_load_releases_the_mapping(self, store, tmp_path,
                                                    monkeypatch):
        from repro.store import reportstore as rs

        _fill(store)
        path = tmp_path / "trunc.store"
        store.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        real = rs._mmap
        created = []

        class _Shim:
            ACCESS_READ = real.ACCESS_READ

            @staticmethod
            def mmap(fileno, length, access=None):
                mapping = real.mmap(fileno, length, access=access)
                created.append(mapping)
                return mapping

        monkeypatch.setattr(rs, "_mmap", _Shim())
        with pytest.raises(CorruptRecordError):
            ReportStore.load(path, use_mmap=True)
        assert created and all(m.closed for m in created)

    def test_save_preserves_accounting(self, store, tmp_path):
        _fill(store, n_samples=6)
        path = tmp_path / "acct.store"
        store.save(path)
        loaded = ReportStore.load(path)
        original = store.stats()
        reloaded = loaded.stats()
        assert reloaded.total_reports == original.total_reports
        assert reloaded.verbose_bytes == original.verbose_bytes

    def test_reopen_carries_retrieval_counters(self, store, tmp_path):
        # Regression: a save()+reopen cycle used to zero the cache
        # counters, making collector restarts look like cold caches.
        _fill(store, n_samples=6, scans_each=2)
        store.close()
        store.reports_for(make_sha("s1"))  # miss + decode
        store.reports_for(make_sha("s1"))  # hit
        list(store.iter_sample_reports())  # streaming high-water mark
        before = store.cache_stats()
        assert before.hits > 0 and before.misses > 0
        assert before.blocks_decoded > 0
        assert before.peak_stream_reports > 0

        path = tmp_path / "carry.store"
        store.save(path)
        reopened = ReportStore.load(path, reopen=True)
        after = reopened.cache_stats()
        assert after.hits == before.hits
        assert after.misses == before.misses
        assert after.evictions == before.evictions
        assert after.invalidations == before.invalidations
        assert after.blocks_decoded == before.blocks_decoded
        assert after.open_reads == before.open_reads
        assert after.peak_stream_reports == before.peak_stream_reports

    def test_sealed_load_also_carries_counters(self, store, tmp_path):
        _fill(store)
        store.close()
        store.reports_for(make_sha("s0"))
        before = store.cache_stats()
        path = tmp_path / "sealed.store"
        store.save(path)
        loaded = ReportStore.load(path)
        assert loaded.cache_stats().misses == before.misses
        assert loaded.cache_stats().blocks_decoded == before.blocks_decoded

    def test_load_tolerates_missing_counter_header(self, store, tmp_path,
                                                   monkeypatch):
        # Files written before the counters existed must still load
        # (header key absent → counters start at zero).
        import json as json_mod

        import repro.store.reportstore as rs_mod

        real_dumps = json_mod.dumps

        def strip_counters(obj, *args, **kwargs):
            if isinstance(obj, dict) and "retrieval_counters" in obj:
                obj = {k: v for k, v in obj.items()
                       if k != "retrieval_counters"}
            return real_dumps(obj, *args, **kwargs)

        _fill(store)
        path = tmp_path / "old.store"
        monkeypatch.setattr(rs_mod.json, "dumps", strip_counters)
        store.save(path)
        monkeypatch.undo()
        loaded = ReportStore.load(path)
        assert loaded.report_count == store.report_count
        assert loaded.cache_stats().hits == 0
        assert loaded.cache_stats().blocks_decoded == 0

    def test_save_on_open_store_is_non_mutating(self, store, tmp_path):
        # Saving a live store must not flush its buffers: block layout,
        # buffered records and ingestability are all preserved.
        _fill(store, n_samples=3, scans_each=3)  # block_records=4: open buffers
        layout_before = {m: (len(s.blocks), s.open_record_count)
                         for m, s in store.shards.items()}
        assert any(open_count for _, open_count in layout_before.values())
        store.save(tmp_path / "live.store")
        layout_after = {m: (len(s.blocks), s.open_record_count)
                        for m, s in store.shards.items()}
        assert layout_after == layout_before
        assert not store.closed
        store.ingest(make_report(sha=make_sha("s0"), scan_time=_month_time(0)))

    def test_save_before_close_round_trips(self, store, tmp_path):
        ingested = _fill(store, n_samples=5, scans_each=2)
        path = tmp_path / "open.store"
        store.save(path)  # store still open — buffers serialised as a snapshot
        loaded = ReportStore.load(path)
        assert loaded.report_count == len(ingested)
        for i in range(5):
            sha = make_sha(f"s{i}")
            assert loaded.reports_for(sha) == store.reports_for(sha)

    def test_live_store_usable_after_save(self, store, tmp_path):
        sha = make_sha("s0")
        _fill(store, n_samples=2, scans_each=2)
        store.save(tmp_path / "snap.store")
        store.ingest(make_report(sha=sha, scan_time=_month_time(0, offset=9999)))
        reports = store.reports_for(sha)
        assert len(reports) == 3
        assert _month_time(0, offset=9999) in [r.scan_time for r in reports]


class TestIdempotentIngest:
    def test_has_report_keyed_on_sample_and_minute(self, store):
        report = make_report(sha=make_sha("s"), scan_time=1000)
        store.ingest(report)
        assert store.has_report(report.sha256, 1000)
        assert not store.has_report(report.sha256, 1001)
        assert not store.has_report(make_sha("other"), 1000)

    def test_ingest_unique_skips_duplicates(self, store):
        report = make_report(sha=make_sha("s"), scan_time=1000)
        assert store.ingest_unique(report) is True
        assert store.ingest_unique(report) is False
        assert store.report_count == 1

    def test_ingest_unique_allows_other_minutes(self, store):
        sha = make_sha("s")
        assert store.ingest_unique(make_report(sha=sha, scan_time=1000))
        assert store.ingest_unique(make_report(sha=sha, scan_time=2000))
        assert store.report_count == 2

    def test_scan_index_survives_save_load(self, store, tmp_path):
        report = make_report(sha=make_sha("s"), scan_time=1000)
        store.ingest(report)
        path = tmp_path / "x.store"
        store.save(path)
        loaded = ReportStore.load(path, reopen=True)
        assert loaded.ingest_unique(report) is False
        assert loaded.report_count == 1


class TestReopen:
    def test_reopened_store_accepts_ingest(self, store, tmp_path):
        _fill(store, n_samples=2, scans_each=2)
        path = tmp_path / "x.store"
        store.save(path)
        reopened = ReportStore.load(path, reopen=True)
        extra = make_report(sha=make_sha("new"), scan_time=_month_time(1))
        reopened.ingest(extra)
        assert reopened.report_count == store.report_count + 1
        assert reopened.reports_for(extra.sha256) == [extra]

    def test_reopened_store_preserves_old_reports(self, store, tmp_path):
        _fill(store, n_samples=2, scans_each=2)
        path = tmp_path / "x.store"
        store.save(path)
        reopened = ReportStore.load(path, reopen=True)
        reopened.ingest(make_report(sha=make_sha("new"),
                                    scan_time=_month_time(1)))
        for i in range(2):
            sha = make_sha(f"s{i}")
            assert reopened.reports_for(sha) == store.reports_for(sha)

    def test_reopened_store_round_trips_again(self, store, tmp_path):
        _fill(store, n_samples=2, scans_each=2)
        first = tmp_path / "first.store"
        store.save(first)
        reopened = ReportStore.load(first, reopen=True)
        extra = make_report(sha=make_sha("new"), scan_time=_month_time(0))
        reopened.ingest(extra)
        second = tmp_path / "second.store"
        reopened.save(second)
        final = ReportStore.load(second)
        assert final.report_count == store.report_count + 1
        assert final.reports_for(extra.sha256) == [extra]
