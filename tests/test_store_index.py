"""Tests for the persistent point-lookup index (repro.store.index).

Covers the codec round-trip, the v2/v3 file formats, the v1 lazy-rebuild
fallback, and the regression this layer exists for: single-hash lookups
must decode only the blocks holding that sample's reports — never scan
the store.  Every store-backed test runs against both block layouts via
the ``store_block_format`` fixture (tests/conftest.py).
"""

import pytest

from repro.errors import ConfigError, CorruptRecordError, UnknownSampleError
from repro.store import ReportQuery, ReportStore, decode_index, encode_index
from repro.store.index import latest_entry, sample_ranks
from tests.conftest import make_report, make_sha


def _spread_store(block_records: int = 4, n_samples: int = 12,
                  reports_per_sample: int = 3,
                  block_format: str = "columnar") -> ReportStore:
    """A store whose samples spread across many blocks and two months."""
    store = ReportStore(block_records=block_records,
                        block_format=block_format)
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
    return _spread_store(block_format=store_block_format)


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
        import zlib

        with pytest.raises(CorruptRecordError):
            decode_index(zlib.compress(b"WRONGMAG" + b"\x00" * 16))

    def test_truncation_rejected(self):
        import zlib

        payload = encode_index(
            {make_sha("a"): [(0, 0, 0, 1)]}, {make_sha("a"): ("TXT", True)})
        raw = zlib.decompress(payload)
        with pytest.raises(CorruptRecordError):
            decode_index(zlib.compress(raw[:-4]))

    def test_trailing_bytes_rejected(self):
        import zlib

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

    def test_latest_report_sees_open_buffer(self, store_factory):
        """A point lookup on a live store reaches reports still in the
        unsealed buffer (served live, never cached)."""
        store = store_factory(block_records=64)
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

    def test_v1_file_still_loads_with_lazy_rebuild(self, spread_store,
                                                   tmp_path):
        store = spread_store
        path = tmp_path / "v1.store"
        store.save(path, include_index=False)
        loaded = ReportStore.load(path)
        assert not loaded._index_ready
        # First per-sample access triggers the rebuild; results match.
        assert list(loaded.samples()) == list(store.samples())
        assert loaded._index_ready
        for sha in store.samples():
            assert loaded.report_series(sha) == store.report_series(sha)

    def test_v1_series_frame_skips_the_rebuild(self, spread_store, tmp_path):
        # The analysis frame ranks samples by first occurrence in the
        # stream, so a deferred index stays deferred.
        path = tmp_path / "v1.store"
        spread_store.save(path, include_index=False)
        loaded = ReportStore.load(path)
        frame = loaded.series_frame()
        assert not loaded._index_ready
        expected = spread_store.series_frame()
        assert frame.to_series() == expected.to_series()
        assert (frame.labels[frame.rows] == expected.labels[expected.rows]).all()

    def test_v1_header_has_no_index_section(self, spread_store, tmp_path):
        import json
        import struct

        store = spread_store
        v1 = tmp_path / "v1.store"
        indexed = tmp_path / "indexed.store"
        store.save(v1, include_index=False)
        store.save(indexed)

        def header_of(path):
            blob = path.read_bytes()
            (hlen,) = struct.unpack_from("<I", blob, 8)
            return json.loads(blob[12:12 + hlen])

        h1, h2 = header_of(v1), header_of(indexed)
        assert h1["version"] == 1 and "index" not in h1
        # A default save carries the layout's native version: row → v2,
        # columnar → v3 — both with the embedded index.
        expected = 3 if store.block_format == "columnar" else 2
        assert h2["version"] == expected and h2["index"]["samples"] == \
            store.sample_count

    def test_corrupt_index_section_rejected(self, spread_store, tmp_path):
        import json
        import struct

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


class TestQueryRouting:
    def test_samples_only_routes_through_index(self, spread_store):
        store = spread_store
        shas = list(store.samples())[:2]
        store.drop_caches()
        before = store.cache_stats().blocks_decoded
        result = dict(ReportQuery(store).samples_only(*shas).sample_series())
        decoded = store.cache_stats().blocks_decoded - before
        total_blocks = sum(len(s.blocks) for s in store.shards.values())
        assert decoded < total_blocks
        assert set(result) == set(shas)
        for sha in shas:
            assert result[sha] == store.report_series(sha)

    def test_samples_only_matches_full_scan(self, spread_store):
        store = spread_store
        sha = list(store.samples())[3]
        restricted = list(ReportQuery(store).samples_only(sha))
        full = [r for r in ReportQuery(store) if r.sha256 == sha]
        assert sorted(r.scan_time for r in restricted) == \
            sorted(r.scan_time for r in full)

    def test_samples_only_preserves_request_order(self, spread_store):
        store = spread_store
        shas = list(store.samples())
        wanted = [shas[5], shas[1], shas[5], shas[3]]
        got = [sha for sha, _
               in ReportQuery(store).samples_only(*wanted).sample_series()]
        assert got == [shas[5], shas[1], shas[3]]  # dedup, order kept

    def test_unknown_hash_matches_nothing(self, spread_store):
        store = spread_store
        q = ReportQuery(store).samples_only("0" * 64)
        assert list(q) == []
        assert q.count() == 0

    def test_restriction_intersects(self, spread_store):
        store = spread_store
        shas = list(store.samples())
        q = ReportQuery(store).samples_only(*shas[:4])
        narrowed = q.samples_only(shas[2], shas[9])
        assert [s for s, _ in narrowed.sample_series()] == [shas[2]]

    def test_empty_restriction_rejected(self, spread_store):
        store = spread_store
        with pytest.raises(ConfigError):
            ReportQuery(store).samples_only()

    def test_predicates_still_apply(self, spread_store):
        store = spread_store
        sha = next(iter(store.samples()))
        series = store.report_series(sha)
        cutoff = series[-1].scan_time
        q = (ReportQuery(store).samples_only(sha)
             .where(lambda r: r.scan_time >= cutoff))
        assert [r.scan_time for r in q] == [cutoff]
