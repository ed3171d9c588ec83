"""Tests for the persistent point-lookup index (repro.store.index).

Covers the codec round-trip, the index section of the v3 file, the
derived index after bulk ingest, the checks ``load`` makes of the
section's addresses, and the regression this layer exists for:
single-hash lookups must decode only the blocks holding that sample's
reports — never scan the store.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptRecordError, UnknownSampleError
from repro.store import ReportStore
from repro.store.columnar import ColumnarBatch
from repro.store.index import ENTRY_DTYPE, INDEX_MAGIC, SampleIndex
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
    """The same record stream through the bulk path (no index yet)."""
    bulk = ReportStore(block_records=store.block_records)
    bulk.ingest_arrays(ColumnarBatch.from_reports(list(store.iter_reports())))
    bulk.close()
    return bulk


def _index_of(index, meta) -> SampleIndex:
    """A :class:`SampleIndex` of ``{sha: [entry, ...]}`` and
    ``{sha: (file type, fresh)}``, samples in dict order."""
    names: dict[str, int] = {}
    codes = [names.setdefault(meta[sha][0], len(names)) for sha in index]
    bounds = np.zeros(len(index) + 1, np.int64)
    np.cumsum([len(entries) for entries in index.values()], out=bounds[1:])
    return SampleIndex(
        position={sha: i for i, sha in enumerate(index)},
        ftype_names=list(names),
        ftype_codes=np.array(codes, np.int64),
        fresh=np.array([meta[sha][1] for sha in index], bool),
        bounds=bounds,
        entries=np.array([entry for entries in index.values()
                          for entry in entries], ENTRY_DTYPE),
    )


def _as_dicts(index: SampleIndex):
    """``(index, meta)`` dicts of a :class:`SampleIndex`, sample order
    kept."""
    entries = {sha: index.entries[index.bounds[i]:index.bounds[i + 1]]
               .tolist() for sha, i in index.position.items()}
    meta = {sha: (index.ftype_names[index.ftype_codes[i]],
                  bool(index.fresh[i]))
            for sha, i in index.position.items()}
    return entries, meta


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
        decoded = SampleIndex.decode(_index_of(index, meta).encode())
        decoded_index, decoded_meta = _as_dicts(decoded)
        assert decoded_index == index
        assert decoded_meta == meta
        assert list(decoded_index) == list(index)  # first-ingest order

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(_indexed_sample(), max_size=8,
                            unique_by=lambda sample: sample[0]))
    def test_section_matches_per_entry_packing(self, samples):
        """The array writer lays out exactly the bytes of packing each
        sample header, file type and entry in turn, and the decoder
        reads back the index that re-encodes to them."""
        index = {sha: entries for sha, _, entries in samples}
        meta = {sha: sample_meta for sha, sample_meta, _ in samples}
        payload = _index_of(index, meta).encode()
        assert zlib.decompress(payload) == _packed_section(index, meta)
        decoded = SampleIndex.decode(payload)
        assert _as_dicts(decoded) == (index, meta)
        assert decoded.encode() == payload

    def test_empty_index_round_trips(self):
        decoded = SampleIndex.decode(SampleIndex.empty().encode())
        assert _as_dicts(decoded) == ({}, {})
        assert decoded.bounds.tolist() == [0]

    def test_negative_month_survives(self):
        # Months are signed (pre-window scan times index below zero).
        index = {make_sha("a"): [(-3, 0, 0, -5)]}
        meta = {make_sha("a"): ("TXT", False)}
        decoded = SampleIndex.decode(_index_of(index, meta).encode())
        assert _as_dicts(decoded)[0] == index

    def test_garbage_payload_rejected(self):
        with pytest.raises(CorruptRecordError):
            SampleIndex.decode(b"not zlib at all")

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptRecordError):
            SampleIndex.decode(zlib.compress(b"WRONGMAG" + b"\x00" * 16))

    def test_truncation_rejected(self):
        payload = _index_of({make_sha("a"): [(0, 0, 0, 1)]},
                            {make_sha("a"): ("TXT", True)}).encode()
        raw = zlib.decompress(payload)
        with pytest.raises(CorruptRecordError):
            SampleIndex.decode(zlib.compress(raw[:-4]))

    def test_trailing_bytes_rejected(self):
        payload = _index_of({make_sha("a"): [(0, 0, 0, 1)]},
                            {make_sha("a"): ("TXT", True)}).encode()
        raw = zlib.decompress(payload)
        with pytest.raises(CorruptRecordError):
            SampleIndex.decode(zlib.compress(raw + b"\x00\x00"))

    def test_sample_ranks_follow_insertion_order(self):
        # The position dict is the rank_of the series frame reads.
        index = {make_sha("b"): [(0, 0, 0, 1)],
                 make_sha("a"): [(0, 0, 1, 2)]}
        meta = {sha: ("TXT", True) for sha in index}
        decoded = SampleIndex.decode(_index_of(index, meta).encode())
        assert decoded.position == {make_sha("b"): 0, make_sha("a"): 1}
        assert list(decoded.position) == [make_sha("b"), make_sha("a")]

    @pytest.mark.parametrize("damage", ["sample-twice", "no-entries"])
    def test_malformed_samples_rejected(self, damage):
        a, b = make_sha("a"), make_sha("b")
        entries = {a: [(0, 0, 0, 1)], b: [(0, 0, 1, 2)]}
        meta = {a: ("TXT", True), b: ("TXT", True)}
        raw = _packed_section(entries, meta)
        if damage == "sample-twice":
            raw = raw.replace(bytes.fromhex(b), bytes.fromhex(a))
        else:
            c = make_sha("c")
            raw = _packed_section({**entries, c: []},
                                  {**meta, c: ("TXT", True)})
        with pytest.raises(CorruptRecordError):
            SampleIndex.decode(zlib.compress(raw))


class TestTail:
    def test_fold_appends_to_each_sample_in_stream_order(self):
        a, b, c = make_sha("a"), make_sha("b"), make_sha("c")
        index = _index_of({a: [(0, 0, 0, 10)], b: [(0, 0, 1, 11)]},
                          {a: ("TXT", True), b: ("PDF", False)})
        index.add(c, 1, 0, 0, 50, "ELF", False)
        index.add(a, 1, 0, 1, 51, "ignored", False)
        index.add(c, 1, 0, 2, 52, "ignored", True)
        assert index.has(c, 50) and index.has(a, 10) and index.has(a, 51)
        assert not index.has(b, 50)
        assert index.entries.tolist() == [(0, 0, 0, 10), (0, 0, 1, 11)]
        index.fold()
        assert _as_dicts(index) == (
            {a: [(0, 0, 0, 10), (1, 0, 1, 51)], b: [(0, 0, 1, 11)],
             c: [(1, 0, 0, 50), (1, 0, 2, 52)]},
            {a: ("TXT", True), b: ("PDF", False), c: ("ELF", False)})
        assert index.has(c, 52) and not index.has(c, 51)
        index.fold()  # an empty tail folds to the same index
        assert index.entries.tolist()[-1] == (1, 0, 2, 52)

    def test_fold_of_a_new_index_is_the_stream_grouping(self):
        """A tail folded into an empty index groups exactly as the
        metadata pass over the same records does."""
        store = _spread_store()
        live = ReportStore(block_records=4)
        for report in store.iter_reports():
            live.ingest(report)
        derived = _bulk_copy(store)._folded_index()
        assert _as_dicts(live._folded_index()) == _as_dicts(derived)


class TestLatestEntry:
    def test_picks_max_scan_time(self):
        store = ReportStore(block_records=2)
        sha = make_sha("late")
        for t in (10, 99, 50):  # the maximum sits in the middle
            store.ingest(make_report(sha=sha, scan_time=t))
        assert store.latest_report(sha).scan_time == 99

    def test_tie_resolves_to_last_ingested(self):
        # Plain ingest may store two reports of one minute; the latest is
        # the one ingested last, as report_series ends with.
        store = ReportStore(block_records=1)
        sha = make_sha("tie")
        for positives, t in ((1, 99), (2, 99), (3, 5)):
            labels = [1] * positives + [0] * (5 - positives)
            store.ingest(make_report(sha=sha, scan_time=t, labels=labels))
        latest = store.latest_report(sha)
        assert latest.positives == 2
        assert latest == store.report_series(sha)[-1]


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
        entries = store._folded_index().entries_of(sha)
        distinct_blocks = set(zip(entries["month"].tolist(),
                                  entries["block"].tolist()))
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
        assert bulk._index is None
        # First per-sample access derives the index; results match.
        assert list(bulk.samples()) == list(store.samples())
        assert bulk._index is not None
        for sha in store.samples():
            assert bulk.report_series(sha) == store.report_series(sha)
            assert bulk.sample_is_fresh(sha) == store.sample_is_fresh(sha)

    def test_deferred_series_frame_skips_the_rebuild(self, spread_store):
        # The analysis frame ranks samples by first occurrence in the
        # stream, so the index is not derived for it.
        bulk = _bulk_copy(spread_store)
        frame = bulk.series_frame()
        assert bulk._index is None
        expected = spread_store.series_frame()
        assert frame.to_series() == expected.to_series()
        assert (frame.labels[frame.rows] == expected.labels[expected.rows]).all()

    def test_deferred_index_saves_the_same_file(self, spread_store, tmp_path):
        per_report, bulk_path = tmp_path / "a.store", tmp_path / "b.store"
        spread_store.save(per_report)
        bulk = _bulk_copy(spread_store)
        bulk.save(bulk_path)
        assert bulk_path.read_bytes() == per_report.read_bytes()
        # The save derived the index, which the store keeps.
        assert list(bulk._index.position) == list(spread_store.samples())
        bulk.save(bulk_path)
        assert bulk_path.read_bytes() == per_report.read_bytes()

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


def _splice_index(path, payload: bytes) -> None:
    """Replace a saved store's index section by ``payload``, keeping the
    header's sample count."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + header_len])
    rest = blob[12 + header_len + header["index"]["bytes"]:]
    header["index"]["bytes"] = len(payload)
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + payload
                     + rest)


def _track_mappings(monkeypatch) -> list:
    """Record every mapping ``load`` opens from now on."""
    from repro.store import reportstore as rs

    real = rs._mmap
    created = []

    class _Shim:
        ACCESS_READ = real.ACCESS_READ

        @staticmethod
        def mmap(fileno, length, access=None):
            created.append(real.mmap(fileno, length, access=access))
            return created[-1]

    monkeypatch.setattr(rs, "_mmap", _Shim())
    return created


class TestLoadChecksAddresses:
    """``load`` checks the index section and its addresses against the
    blocks, without decoding one, and closes the mapping of a store it
    rejects.  The store: six reports of three samples in month 0, frozen
    as a 4-record block 0 (s0 s1 s2 s0) and a 2-record block 1 (s1 s2)."""

    @pytest.mark.parametrize("use_mmap", [False, True],
                             ids=["read", "mmap"])
    @pytest.mark.parametrize("damage, message", [
        ("month-missing", "names month 5, which the file lacks"),
        ("block-past", "names block 2 of month 0, which has 2"),
        ("slot-past", "names slot 2 of a 2-record block"),
        ("entry-twice", "holds 7 entries, not one for each of the 6"),
        ("address-twice", "holds 6 entries, not one for each of the 6"),
        # Damage that SampleIndex.decode itself finds: its traceback must
        # hold no view into the mapping, or the mapping cannot close.
        ("not-zlib", "undecodable store index"),
        ("sample-twice", "lists a sample twice"),
    ])
    def test_damaged_index_is_corrupt(self, tmp_path, monkeypatch, damage,
                                      message, use_mmap):
        store = ReportStore(block_records=4)
        for k in range(6):
            store.ingest(make_report(sha=make_sha(f"s{k % 3}"),
                                     scan_time=1000 + k))
        store.close()
        path = tmp_path / "six.store"
        store.save(path)
        assert ReportStore.load(path, use_mmap=use_mmap).report_count == 6
        entries, meta = _as_dicts(store._folded_index())
        s0 = entries[make_sha("s0")]
        assert s0 == [(0, 0, 0, 1000), (0, 0, 3, 1003)]
        if damage == "month-missing":
            s0[0] = (5, 0, 0, 1000)
        elif damage == "block-past":
            s0[0] = (0, 2, 0, 1000)
        elif damage == "slot-past":
            s0[0] = (0, 1, 2, 1000)
        elif damage == "entry-twice":
            s0.append(s0[0])
        elif damage == "address-twice":
            s0[1] = (0, 0, 0, 1003)
        payload = _index_of(entries, meta).encode()
        if damage == "not-zlib":
            payload = zlib.decompress(payload)
        elif damage == "sample-twice":
            raw = zlib.decompress(payload)
            s1 = bytes.fromhex(make_sha("s1"))
            assert raw.count(s1) == 1
            payload = zlib.compress(raw.replace(
                s1, bytes.fromhex(make_sha("s0"))))
        _splice_index(path, payload)
        created = _track_mappings(monkeypatch)
        with pytest.raises(CorruptRecordError, match=message):
            ReportStore.load(path, use_mmap=use_mmap)
        assert len(created) == use_mmap
        assert all(mapping.closed for mapping in created)
