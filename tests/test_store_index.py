"""Tests for the persistent point-lookup index (repro.store.index).

Covers the codec round-trip, the index section of the v3 file, the
deferred rebuild after bulk ingest, and the regression this layer exists
for: single-hash lookups must decode only the blocks holding that
sample's reports — never scan the store.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptRecordError, UnknownSampleError
from repro.store import ReportStore, decode_index, encode_index
from repro.store.columnar import ColumnarBatch
from repro.store.index import INDEX_MAGIC, latest_entry, sample_ranks
from tests.conftest import make_report, make_sha


def _spread_store(block_records: int = 4, n_samples: int = 12,
                  reports_per_sample: int = 3) -> ReportStore:
    """A store whose samples spread across many blocks and two months."""
    store = ReportStore(block_records=block_records)
    shas = [make_sha(f"s{i}") for i in range(n_samples)]
    for rep in range(reports_per_sample):
        for i, sha in enumerate(shas):
            # Second half of the reports land one month later.
            base = 0 if rep < reports_per_sample // 2 else 44_640
            store.ingest(make_report(
                sha=sha, scan_time=base + rep * 1000 + i))
    store.close()
    return store


@pytest.fixture()
def spread_store(store_block_format) -> ReportStore:
    return _spread_store()


def _bulk_copy(store: ReportStore) -> ReportStore:
    """The same record stream through the bulk path (index deferred)."""
    bulk = ReportStore(block_records=store.block_records)
    bulk.ingest_arrays(ColumnarBatch.from_reports(list(store.iter_reports())))
    bulk.close()
    return bulk


def _packed_section(index, meta) -> bytes:
    """The index section, packed sample by sample and entry by entry."""
    parts = [INDEX_MAGIC, struct.pack("<I", len(index))]
    for sha, entries in index.items():
        ftype, fresh = meta[sha]
        name = ftype.encode("utf-8")
        parts.append(struct.pack("<32sHBI", bytes.fromhex(sha), len(name),
                                 1 if fresh else 0, len(entries)))
        parts.append(name)
        for entry in entries:
            parts.append(struct.pack("<iIIq", *entry))
    return b"".join(parts)


@st.composite
def _indexed_sample(draw):
    # Digests ending in zero bytes (which numpy's S32 strips on access),
    # non-ASCII file types, signed months and scan times.
    sha = draw(st.binary(min_size=30, max_size=32)).ljust(32, b"\0").hex()
    ftype = draw(st.sampled_from(["TXT", "Win32 EXE", "ELF exécutable", ""]))
    entries = draw(st.lists(st.tuples(
        st.integers(-2**31, 2**31 - 1), st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1), st.integers(-2**63, 2**63 - 1)),
        min_size=1, max_size=5))
    return sha, (ftype, draw(st.booleans())), entries


class TestCodec:
    def test_round_trip_preserves_entries_meta_and_order(self):
        index = {
            make_sha("a"): [(0, 0, 0, 10), (0, 1, 3, 25), (1, 0, 0, 99)],
            make_sha("b"): [(0, 0, 1, 11)],
        }
        meta = {
            make_sha("a"): ("Win32 EXE", True),
            make_sha("b"): ("PDF", False),
        }
        decoded_index, decoded_meta = decode_index(encode_index(index, meta))
        assert decoded_index == index
        assert decoded_meta == meta
        assert list(decoded_index) == list(index)  # first-ingest order

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(_indexed_sample(), max_size=8,
                            unique_by=lambda sample: sample[0]))
    def test_section_matches_per_entry_packing(self, samples):
        """The array writer lays out exactly the bytes of packing each
        sample header, file type and entry in turn."""
        index = {sha: entries for sha, _, entries in samples}
        meta = {sha: sample_meta for sha, sample_meta, _ in samples}
        assert zlib.decompress(encode_index(index, meta)) == \
            _packed_section(index, meta)

    def test_empty_index_round_trips(self):
        assert decode_index(encode_index({}, {})) == ({}, {})

    def test_negative_month_survives(self):
        # Months are signed (pre-window scan times index below zero).
        index = {make_sha("a"): [(-3, 0, 0, -5)]}
        meta = {make_sha("a"): ("TXT", False)}
        assert decode_index(encode_index(index, meta))[0] == index

    def test_garbage_payload_rejected(self):
        with pytest.raises(CorruptRecordError):
            decode_index(b"not zlib at all")

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptRecordError):
            decode_index(zlib.compress(b"WRONGMAG" + b"\x00" * 16))

    def test_truncation_rejected(self):
        payload = encode_index(
            {make_sha("a"): [(0, 0, 0, 1)]}, {make_sha("a"): ("TXT", True)})
        raw = zlib.decompress(payload)
        with pytest.raises(CorruptRecordError):
            decode_index(zlib.compress(raw[:-4]))

    def test_trailing_bytes_rejected(self):
        payload = encode_index(
            {make_sha("a"): [(0, 0, 0, 1)]}, {make_sha("a"): ("TXT", True)})
        raw = zlib.decompress(payload)
        with pytest.raises(CorruptRecordError):
            decode_index(zlib.compress(raw + b"\x00\x00"))

    def test_sample_ranks_follow_insertion_order(self):
        index = {make_sha("b"): [(0, 0, 0, 1)],
                 make_sha("a"): [(0, 0, 1, 2)]}
        ranks = sample_ranks(index)
        assert ranks == {make_sha("b"): 0, make_sha("a"): 1}


class TestLatestEntry:
    def test_picks_max_scan_time(self):
        entries = [(0, 0, 0, 10), (0, 1, 0, 99), (0, 2, 0, 50)]
        assert latest_entry(entries) == (0, 1, 0, 99)

    def test_tie_resolves_to_last_ingested(self):
        entries = [(0, 0, 0, 99), (0, 1, 0, 99)]
        assert latest_entry(entries) == (0, 1, 0, 99)


class TestPointLookup:
    def test_latest_report_matches_series_tail(self, spread_store):
        store = spread_store
        for sha in store.samples():
            series = store.report_series(sha)
            latest = store.latest_report(sha)
            assert latest == series[-1]

    def test_latest_report_decodes_exactly_one_block_cold(self, spread_store):
        """The O(1) contract: one point lookup on a cold cache decodes
        one block, regardless of store size (the full-scan bug decoded
        all of them)."""
        store = spread_store
        total_blocks = sum(len(s.blocks) for s in store.shards.values())
        assert total_blocks > 3  # the test is vacuous on a 1-block store
        sha = next(iter(store.samples()))
        store.drop_caches()
        before = store.cache_stats().blocks_decoded
        store.latest_report(sha)
        assert store.cache_stats().blocks_decoded - before == 1

    def test_latest_report_warm_cache_decodes_nothing(self, spread_store):
        store = spread_store
        sha = next(iter(store.samples()))
        store.latest_report(sha)
        before = store.cache_stats().blocks_decoded
        store.latest_report(sha)
        assert store.cache_stats().blocks_decoded == before

    def test_series_decodes_only_the_samples_blocks(self, spread_store):
        store = spread_store
        sha = next(iter(store.samples()))
        distinct_blocks = {
            (month, block) for month, block, _, _ in store._entries(sha)}
        total_blocks = sum(len(s.blocks) for s in store.shards.values())
        assert len(distinct_blocks) < total_blocks
        store.drop_caches()
        before = store.cache_stats().blocks_decoded
        store.report_series(sha)
        decoded = store.cache_stats().blocks_decoded - before
        assert decoded == len(distinct_blocks)

    def test_latest_report_sees_open_buffer(self, store_block_format):
        """A point lookup on a live store reaches reports still in the
        unsealed buffer (served live, never cached)."""
        store = ReportStore(block_records=64)
        sha = make_sha("live")
        store.ingest(make_report(sha=sha, scan_time=10))
        store.ingest(make_report(sha=sha, scan_time=20))
        assert store.latest_report(sha).scan_time == 20
        assert store.cache_stats().open_reads > 0

    def test_unknown_sample_raises(self, spread_store):
        store = spread_store
        with pytest.raises(UnknownSampleError):
            store.latest_report("0" * 64)
        with pytest.raises(UnknownSampleError):
            store.report_series("0" * 64)


class TestPersistence:
    def test_indexed_round_trip(self, spread_store, tmp_path):
        store = spread_store
        path = tmp_path / "indexed.store"
        store.save(path)
        loaded = ReportStore.load(path)
        assert list(loaded.samples()) == list(store.samples())
        for sha in store.samples():
            assert loaded.report_series(sha) == store.report_series(sha)
            assert loaded.sample_file_type(sha) == store.sample_file_type(sha)
        assert loaded.digest() == store.digest()

    def test_indexed_load_decodes_no_blocks(self, spread_store, tmp_path):
        store = spread_store
        path = tmp_path / "indexed.store"
        store.save(path)
        loaded = ReportStore.load(path)
        # Metadata access and a sample listing must not touch blocks.
        assert loaded.sample_count == store.sample_count
        assert loaded.cache_stats().blocks_decoded == \
            store.cache_stats().blocks_decoded

    def test_deferred_index_rebuilds_on_first_access(self, spread_store):
        store = spread_store
        bulk = _bulk_copy(store)
        assert not bulk._index_ready
        # First per-sample access triggers the rebuild; results match.
        assert list(bulk.samples()) == list(store.samples())
        assert bulk._index_ready
        for sha in store.samples():
            assert bulk.report_series(sha) == store.report_series(sha)
            assert bulk.sample_is_fresh(sha) == store.sample_is_fresh(sha)

    def test_deferred_series_frame_skips_the_rebuild(self, spread_store):
        # The analysis frame ranks samples by first occurrence in the
        # stream, so a deferred index stays deferred.
        bulk = _bulk_copy(spread_store)
        frame = bulk.series_frame()
        assert not bulk._index_ready
        expected = spread_store.series_frame()
        assert frame.to_series() == expected.to_series()
        assert (frame.labels[frame.rows] == expected.labels[expected.rows]).all()

    def test_deferred_index_saves_the_same_file(self, spread_store, tmp_path):
        per_report, bulk_path = tmp_path / "a.store", tmp_path / "b.store"
        spread_store.save(per_report)
        bulk = _bulk_copy(spread_store)
        bulk.save(bulk_path)
        assert bulk_path.read_bytes() == per_report.read_bytes()
        # The section is written from arrays: the index stays deferred.
        assert not bulk._index_ready
        assert bulk._index == {}

    def test_live_bulk_store_saves_like_its_per_report_twin(
            self, store_block_format, tmp_path):
        """Neither store is closed: 13 samples' reports leave records in
        both months' open buffers, which the file includes."""
        reports = list(_spread_store(n_samples=13).iter_reports())
        live = ReportStore(block_records=4)
        for report in reports:
            live.ingest(report)
        bulk = ReportStore(block_records=4)
        bulk.ingest_arrays(ColumnarBatch.from_reports(reports))
        assert all(shard.open_record_count for shard in bulk.shards.values())
        per_report, bulk_path = tmp_path / "a.store", tmp_path / "b.store"
        live.save(per_report)
        bulk.save(bulk_path)
        assert bulk_path.read_bytes() == per_report.read_bytes()
        assert not bulk._index_ready
        loaded = ReportStore.load(bulk_path)
        assert list(loaded.samples()) == list(live.samples())
        assert loaded.report_count == len(reports)

    def test_corrupt_index_section_rejected(self, spread_store, tmp_path):
        import json

        store = spread_store
        path = tmp_path / "indexed.store"
        store.save(path)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(bytes(blob[12:12 + hlen]))
        # Flip a byte in the middle of the index payload.
        idx_start = 12 + hlen
        blob[idx_start + header["index"]["bytes"] // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptRecordError):
            ReportStore.load(path)

    def test_reopened_store_accepts_new_ingest(self, spread_store, tmp_path):
        store = spread_store
        path = tmp_path / "indexed.store"
        store.save(path)
        reopened = ReportStore.load(path, reopen=True)
        sha = next(iter(reopened.samples()))
        latest = reopened.latest_report(sha).scan_time
        reopened.ingest(make_report(sha=sha, scan_time=latest + 777))
        assert reopened.latest_report(sha).scan_time == latest + 777
