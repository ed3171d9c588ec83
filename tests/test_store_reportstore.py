"""Unit and integration tests for ReportStore (repro.store.reportstore)."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.experiment import run_experiment
from repro.errors import (
    BlockAddressError,
    CorruptRecordError,
    ReproError,
    ShardClosedError,
    StoreError,
    UnknownSampleError,
)
from repro.store.codec import encode_report
from repro.store.columnar import ColumnarBatch
from repro.store.reportstore import ReportStore
from repro.synth.scenario import dynamics_scenario
from repro.vt import clock

from conftest import make_report, make_sha


def _month_time(month: int, offset: int = 1000) -> int:
    return clock.MONTH_STARTS[month] + offset


@pytest.fixture()
def store():
    return ReportStore(block_records=4)


def _json(value) -> bytes:
    return json.dumps(value).encode()


def _with(**fields):
    """A header reshape that sets ``fields``."""
    return lambda header: _json(dict(header, **fields))


def rewrite_header(path: Path, reshape) -> None:
    """Replace a saved store's JSON header by the bytes
    ``reshape(header)`` returns."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    raw = reshape(json.loads(blob[12:12 + header_len]))
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw
                     + blob[12 + header_len:])


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

    def test_report_series_sorted_by_time(self, store):
        _fill(store)
        reports = store.report_series(make_sha("s1"))
        assert len(reports) == 3
        times = [r.scan_time for r in reports]
        assert times == sorted(times)

    def test_report_series_unknown_raises(self, store):
        with pytest.raises(UnknownSampleError):
            store.report_series(make_sha("ghost"))

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
        first = store.report_series(make_sha("s3"))
        for _ in range(10):
            assert store.report_series(make_sha("s3")) == first


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
        assert [r.scan_time for r in store.report_series(sha)] == times[:5]
        for t in times[5:]:  # freezes block 1 under the cached key
            store.ingest(make_report(sha=sha, scan_time=t))
        assert [r.scan_time for r in store.report_series(sha)] == times

    def test_read_survives_flush_and_close(self, store):
        sha = make_sha("victim")
        times = list(range(2000, 2009))
        for t in times[:5]:
            store.ingest(make_report(sha=sha, scan_time=t))
        before = store.report_series(sha)
        assert len(before) == 5
        for t in times[5:]:
            store.ingest(make_report(sha=sha, scan_time=t))
        store.flush()
        assert [r.scan_time for r in store.report_series(sha)] == times
        store.close()
        assert [r.scan_time for r in store.report_series(sha)] == times

    def test_address_past_the_open_block_raises(self):
        sha = make_sha("edge")
        month = clock.month_index(1000)
        # An index entry past the buffered records, or past the open
        # block, fails the lookup with the same typed error.
        for block, slot in ((1, 2), (2, 0)):
            store = ReportStore(block_records=4)
            for t in range(1000, 1006):  # one frozen block, two buffered
                store.ingest(make_report(sha=sha, scan_time=t))
            assert len(store._batch(month, 1)) == 2  # the open buffer
            with pytest.raises(BlockAddressError):
                store._batch(month, 2)
            store._index.add(sha, month, block, slot, 1006, "Win32 EXE",
                             True)
            with pytest.raises(BlockAddressError):
                store.report_series(sha)

    def test_open_buffer_reads_are_live_not_snapshots(self, store):
        sha_a, sha_b = make_sha("a"), make_sha("b")
        store.ingest(make_report(sha=sha_a, scan_time=100))
        # This read touches the open buffer; it must not pin a snapshot.
        assert len(store.report_series(sha_a)) == 1
        store.ingest(make_report(sha=sha_b, scan_time=101))
        assert len(store.report_series(sha_b)) == 1
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
            assert reports == store.report_series(sha)

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
        store.report_series(make_sha("s1"))
        store.report_series(make_sha("s1"))
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
            assert len(store.report_series(sha)) == 1
        cache = store.cache_stats()
        assert cache.evictions > 0
        assert cache.bytes_resident <= cache.bytes_limit

    def test_drop_caches(self, store):
        _fill(store)
        store.close()
        store.report_series(make_sha("s0"))
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
            store.report_series(sha)
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
            assert loaded.report_series(sha) == store.report_series(sha)
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

    def test_damaged_month_report_count_is_rejected(self, store, tmp_path):
        # A month's report count must equal its blocks' record counts;
        # a damaged one would skew the store totals and the digest.
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
        with pytest.raises(CorruptRecordError, match="blocks hold"):
            ReportStore.load(path)

    def test_index_sample_count_must_match_the_header(self, store,
                                                      tmp_path):
        _fill(store)
        path = tmp_path / "samples.store"
        store.save(path)
        rewrite_header(path, lambda header: _json(dict(header, index=dict(
            header["index"], samples=header["index"]["samples"] + 1))))
        with pytest.raises(CorruptRecordError, match="the header says 4"):
            ReportStore.load(path)

    def test_month_section_must_match_the_header(self, store, tmp_path):
        # A section claiming another month must not load, let alone
        # overwrite that month's shard.
        _fill(store)
        store.close()
        path = tmp_path / "month.store"
        store.save(path)
        first, second = sorted(store.shards)[:2]
        shard = store.shards[first]
        entry = struct.pack("<iIq", first, len(shard.blocks),
                            shard.report_count)
        blob = path.read_bytes()
        assert blob.count(entry) == 1
        path.write_bytes(blob.replace(entry, struct.pack(
            "<iIq", second, len(shard.blocks), shard.report_count)))
        with pytest.raises(CorruptRecordError, match="header lists"):
            ReportStore.load(path)

    @pytest.mark.parametrize("use_mmap", [False, True],
                             ids=["read", "mmap"])
    @pytest.mark.parametrize("shape", [
        lambda header: b"[]",
        lambda header: b'"x"',
        lambda header: _json(dict(header, months=5)),
        lambda header: _json(dict(header, index=dict(header["index"],
                                                     bytes="9"))),
        lambda header: _json(dict(header, index=dict(header["index"],
                                                     bytes=10 ** 30))),
        lambda header: b"[" * 100_000 + b"]" * 100_000,
        *(_with(block_records=value)
          for value in ("x", None, [256], 0, -3, True, 2.5)),
    ], ids=["list", "string", "months-int", "index-bytes-string",
            "index-bytes-huge", "nested-past-the-recursion-limit",
            *(f"block-records-{name}" for name in (
                "string", "null", "list", "zero", "negative", "bool",
                "float"))])
    def test_wrong_shape_header_is_corrupt(self, store, tmp_path,
                                           monkeypatch, shape, use_mmap):
        # A header of the wrong shape (valid JSON that is not a header,
        # a size too large to read, nesting past the recursion limit, a
        # block_records other than an int of at least 1) raises the
        # typed error, and a mapping opened for it is closed.
        from repro.store import reportstore as rs

        path = tmp_path / "shape.store"
        _fill(store)
        store.save(path)
        rewrite_header(path, shape)
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
            ReportStore.load(path, use_mmap=use_mmap)
        assert len(created) == use_mmap
        assert all(mapping.closed for mapping in created)

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

    def test_saved_bytes_ignore_read_traffic(self, tmp_path):
        """Saved bytes are a pure function of content: read counters are
        neither written nor restored, and a header written when they were
        (the ``retrieval_counters`` key) still loads, the key ignored."""
        quiet, busy = ReportStore(block_records=4), ReportStore(block_records=4)
        for live in (quiet, busy):
            _fill(live, n_samples=6, scans_each=2)
            live.close()
        busy.report_series(make_sha("s1"))  # miss + decode
        busy.report_series(make_sha("s1"))  # hit
        list(busy.iter_sample_reports())  # streaming high-water mark
        assert busy.cache_stats().blocks_decoded > 0
        quiet_path, busy_path = tmp_path / "quiet.store", tmp_path / "busy.store"
        quiet.save(quiet_path)
        busy.save(busy_path)
        assert busy_path.read_bytes() == quiet_path.read_bytes()
        assert ReportStore.load(busy_path).cache_stats().blocks_decoded == 0

        blob = busy_path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + header_len])
        old = {key: header[key] for key in ("version", "block_records",
                                             "months")}
        old["retrieval_counters"] = {"hits": 7, "misses": 3,
                                     "blocks_decoded": 3}
        old["index"] = header["index"]
        raw = json.dumps(old).encode()
        old_path = tmp_path / "old.store"
        old_path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw
                             + blob[12 + header_len:])
        loaded = ReportStore.load(old_path, reopen=True)
        assert loaded.digest() == busy.digest()
        stats = loaded.cache_stats()
        assert stats.hits == stats.misses == stats.blocks_decoded == 0

    def test_load_tolerates_missing_counter_header(self, store, tmp_path):
        # Saves write no ``retrieval_counters`` key; such a file loads
        # and its counters start at zero.
        _fill(store)
        store.report_series(make_sha("s0"))  # traffic the file must not keep
        path = tmp_path / "plain.store"
        store.save(path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        assert "retrieval_counters" not in json.loads(blob[12:12 + header_len])
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
            assert loaded.report_series(sha) == store.report_series(sha)

    def test_live_store_usable_after_save(self, store, tmp_path):
        sha = make_sha("s0")
        _fill(store, n_samples=2, scans_each=2)
        store.save(tmp_path / "snap.store")
        store.ingest(make_report(sha=sha, scan_time=_month_time(0, offset=9999)))
        reports = store.report_series(sha)
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

    def test_has_report_survives_save_load(self, store, tmp_path):
        report = make_report(sha=make_sha("s"), scan_time=1000)
        store.ingest(report)
        path = tmp_path / "x.store"
        store.save(path)
        loaded = ReportStore.load(path, reopen=True)
        assert loaded.has_report(report.sha256, 1000)
        assert not loaded.has_report(report.sha256, 1001)
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
        assert reopened.report_series(extra.sha256) == [extra]

    def test_reopened_store_preserves_old_reports(self, store, tmp_path):
        _fill(store, n_samples=2, scans_each=2)
        path = tmp_path / "x.store"
        store.save(path)
        reopened = ReportStore.load(path, reopen=True)
        reopened.ingest(make_report(sha=make_sha("new"),
                                    scan_time=_month_time(1)))
        for i in range(2):
            sha = make_sha(f"s{i}")
            assert reopened.report_series(sha) == store.report_series(sha)

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
        assert final.report_series(extra.sha256) == [extra]


#: Loads a store memory-mapped, saves it over its own file, and prints
#: the live store's digest and the reloaded file's.
_SAVE_OVER_MMAP = """
import sys
from repro.store.reportstore import ReportStore
live = ReportStore.load(sys.argv[1], use_mmap=True)
live.save(sys.argv[1])
print(live.digest())
print(ReportStore.load(sys.argv[1]).digest())
"""


class TestAtomicSave:
    def test_save_over_own_mmap(self, tiny_store, tmp_path):
        # In a subprocess: an in-place rewrite of a mapped file raises
        # SIGBUS, which would kill the test runner itself.
        path = tmp_path / "mapped.store"
        tiny_store.save(path)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", _SAVE_OVER_MMAP, str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [tiny_store.digest()] * 2

    def test_failed_save_keeps_old_file(self, store, tmp_path, monkeypatch):
        path = tmp_path / "s.store"
        _fill(store)
        store.save(path)
        before = path.read_bytes()
        _fill(store, n_samples=5)

        def torn(fh, shard):
            fh.write(b"partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ReportStore, "_write_month", staticmethod(torn))
        with pytest.raises(StoreError, match=f"cannot write store {path}"):
            store.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.store"]

    def test_save_syncs_file_rename_and_directory(self, store, tmp_path,
                                                  sync_log):
        _fill(store)
        store.save(tmp_path / "s.store")
        assert sync_log == ["fsync file", "replace s.store", "fsync dir"]

    def test_new_file_gets_default_permissions(self, store, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "s.store"
        _fill(store)
        store.save(path)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


_STATE_TYPES = ("Win32 EXE", "PDF", "")


def _state_reports() -> list:
    """Chronological reports of six samples over three months: several
    4-record blocks a month with an open remainder, two fleet widths
    (ragged blocks) and three file types.  A sample's file type and
    freshness change from month to month; the store keeps its first
    report's."""
    reports = []
    for month in range(3):
        for step in range(5):
            for i in range(6):
                if (i + step) % 4 == 3:
                    continue
                width = 5 if i % 2 else 7
                reports.append(make_report(
                    sha=make_sha(f"state-{i}"),
                    file_type=_STATE_TYPES[(i + month) % 3],
                    scan_time=_month_time(month, offset=60 * step + i),
                    labels=[(i + step + e) % 3 - 1 for e in range(width)],
                    versions=[10 * month + e for e in range(width)],
                    first_submission=0 if (i + month) % 2 else -1,
                    n_engines=width))
    return reports


def _build_state(state: str, reports: list, tmp_path: Path) -> ReportStore:
    """A store holding ``reports`` (ingested in list order) in one of the
    states a reader can meet."""
    cut = (len(reports) // 2 if state in ("bulk+live", "reopened")
           else len(reports))
    if state.startswith("bulk"):
        store = ReportStore(block_records=4)
        store.ingest_arrays(ColumnarBatch.from_reports(reports[:cut]))
        assert store._index is None
        for report in reports[cut:]:
            store.ingest(report)
        return store
    store = ReportStore(block_records=4)
    seen: dict[str, list] = {}
    for report in reports[:cut]:
        store.ingest(report)
        if state == "interleaved":
            # has_report finds the report in the tail's key set, then
            # report_series folds the tail.
            assert store.has_report(report.sha256, report.scan_time)
            seen.setdefault(report.sha256, []).append(report)
            assert store.report_series(report.sha256) == sorted(
                seen[report.sha256], key=lambda r: r.scan_time)
    if state in ("live", "interleaved"):
        assert any(shard.open_record_count for shard in store.shards.values())
        return store
    store.close()
    if state == "closed":
        return store
    path = tmp_path / f"{state}.store"
    store.save(path)
    loaded = ReportStore.load(path, use_mmap=state == "mmap",
                              reopen=state == "reopened")
    for report in reports[cut:]:
        loaded.ingest(report)
    return loaded


def _completion_order(store: ReportStore, stream: list) -> list[str]:
    """Samples in the order a streaming pass completes them: by the
    ``(month, block)`` of their last report, first-seen order within a
    block.  Block sizes come from the shard metadata, not a decode."""
    by_month: dict[int, list] = {}
    for report in stream:
        by_month.setdefault(clock.month_index(report.scan_time),
                            []).append(report)
    last = {}
    for month, month_reports in by_month.items():
        shard = store.shards[month]
        sizes = [block.record_count for block in shard.blocks]
        sizes.append(shard.open_record_count)
        blocks = [b for b, size in enumerate(sizes) for _ in range(size)]
        for report, block in zip(month_reports, blocks, strict=True):
            last[report.sha256] = (month, block)
    first_seen = list(dict.fromkeys(report.sha256 for report in stream))
    return sorted(first_seen, key=last.__getitem__)


def _stream_digest(stream: list) -> str:
    """:meth:`ReportStore.digest` recomputed from the reports: month by
    month, each month's record bytes in ingest order, length-framed."""
    h = hashlib.sha256()
    months = sorted({clock.month_index(r.scan_time) for r in stream})
    for month in months:
        records = [encode_report(r) for r in stream
                   if clock.month_index(r.scan_time) == month]
        h.update(struct.pack("<iq", month, len(records)))
        for record in records:
            h.update(struct.pack("<I", len(record)))
            h.update(record)
    return h.hexdigest()


class TestReadsInEveryState:
    """Every read returns the ingested reports, whichever way the store
    was built and wherever its blocks live (open buffer, frozen block,
    file, mapping)."""

    @pytest.mark.parametrize("state", ["live", "bulk", "bulk+live",
                                       "interleaved", "closed", "loaded",
                                       "mmap", "reopened"])
    def test_reads_match_the_ingested_reports(self, state, tmp_path):
        reports = _state_reports()
        store = _build_state(state, reports, tmp_path)
        # The reports are chronological, so the store's month-major
        # stream is their list order.
        assert store.digest() == _stream_digest(reports)
        assert list(store.iter_reports()) == reports

        by_sample: dict[str, list] = {}
        for report in reports:
            by_sample.setdefault(report.sha256, []).append(report)
        expected = {sha: sorted(group, key=lambda r: r.scan_time)
                    for sha, group in by_sample.items()}
        grouped = list(store.iter_sample_reports())
        assert [sha for sha, _ in grouped] == _completion_order(store,
                                                                reports)
        assert dict(grouped) == expected
        for sha, series in expected.items():
            assert store.report_series(sha) == series
            assert store.latest_report(sha) == series[-1]
            for report in series:
                assert store.has_report(sha, report.scan_time)
                assert not store.has_report(sha, report.scan_time + 1)
        assert not store.has_report(make_sha("absent"), reports[0].scan_time)

        first: dict[str, object] = {}
        for report in reports:
            first.setdefault(report.sha256, report)
        assert list(store.samples()) == list(first)
        assert store.sample_count == len(first)
        assert store.fresh_sample_count == sum(
            report.first_submission_date >= 0 for report in first.values())
        for sha, report in first.items():
            assert store.sample_file_type(sha) == report.file_type
            assert store.sample_is_fresh(sha) == (
                report.first_submission_date >= 0)
            assert store.report_count_of(sha) == len(expected[sha])
        assert store.digest() == _stream_digest(reports)


def _payload_offsets(blob: bytes) -> set[int]:
    """Offsets of every block payload byte of a saved store."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + header_len])
    pos = 12 + header_len + header["index"]["bytes"]
    payload: set[int] = set()
    for _ in header["months"]:
        n_blocks = struct.unpack_from("<iIqqq", blob, pos)[1]
        pos += struct.calcsize("<iIqqq")
        for _ in range(n_blocks):
            (size,) = struct.unpack_from("<I", blob, pos)
            pos += struct.calcsize("<IIq")
            payload.update(range(pos, pos + size))
            pos += size
    assert pos == len(blob)
    return payload


class TestByteFlips:
    def test_every_flip_raises_or_keeps_the_digest(self, tmp_path):
        # Each single-bit flip of a saved store either raises a typed
        # error from load + digest, or changes nothing the digest covers
        # (Table 2 byte counts, a block's raw_bytes, the header's
        # block_records, or a deflate bit the payload inflates past).
        # Every byte outside block payloads is flipped; payloads are
        # zlib-checked, so every 16th of theirs suffices.
        store = run_experiment(dynamics_scenario(n_samples=12, seed=5)).store
        path = tmp_path / "clean.store"
        store.save(path)
        blob = path.read_bytes()
        reference = store.digest()
        payload = _payload_offsets(blob)
        flipped = tmp_path / "flipped.store"
        silent = []
        for at in range(len(blob)):
            if at in payload and at % 16:
                continue
            damaged = bytearray(blob)
            damaged[at] ^= 0x01
            flipped.write_bytes(damaged)
            try:
                digest = ReportStore.load(flipped).digest()
            except ReproError:
                continue
            if digest != reference:
                silent.append(at)
        assert silent == []
