"""Differential harness for the columnar (v3) store.

Columnar blocks are the store's only layout, so they are checked
against the references that do not go through them:

* store digests equal a digest computed straight from
  :func:`~repro.store.codec.encode_report` bytes, for hand-built feeds,
  bulk array ingest and full seeded scenario runs;
* every analysis input a figure consumes — the AV-Rank series list,
  dataset S, the stable/dynamic split, the δ/Δ extractions, the pairwise
  pool — is equal whether computed by the `SeriesFrame` numpy kernels or
  by python over the per-report object path (``iter_sample_reports`` +
  ``collect_series``);
* v3 save → load → save is idempotent, and v1/v2 files are rejected;
* hostile v3 payloads (truncations, bit flips, out-of-range dictionary
  or sparse-plane indices) surface `CorruptRecordError`, never a bare
  struct.error/IndexError — the same contract `test_store_codec.py`
  pins for the record codec.

A hypothesis property fuzzes the whole stack over random report streams
× block sizes.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_report, make_sha
from repro.core.avrank import collect_series
from repro.errors import CorruptRecordError
from repro.store import codec, columnar
from repro.store.columnar import ColumnarBatch, SeriesFrame, encode_columnar
from repro.store.reportstore import ReportStore
from repro.vt.clock import MONTH_STARTS, month_index
from repro.vt.filetypes import TOP20_FILE_TYPES

# ---------------------------------------------------------------------------
# Feed builders


def _feed(n_samples=12, scans_each=4, widths=(5, 5, 5), seed_tag="cf"):
    """A deterministic multi-sample, multi-month report stream.

    Scans interleave across samples, ranks vary per scan, file types
    cycle, and one sample lands in a second month so the shard split is
    exercised.  ``widths`` cycles the fleet width (equal entries = a
    uniform block, mixed = ragged).
    """
    reports = []
    ftypes = ("Win32 EXE", "PDF", "Android")
    month2 = MONTH_STARTS[1]
    for k in range(scans_each):
        for i in range(n_samples):
            width = widths[i % len(widths)]
            rank = (i * 7 + k * 3) % (width + 1)
            labels = [1] * rank + [0] * (width - rank)
            when = k * 500 + i
            if i == n_samples - 1:
                when += month2  # one sample's scans live in month 1
            reports.append(make_report(
                sha=make_sha(f"{seed_tag}{i}"),
                file_type=ftypes[i % len(ftypes)],
                scan_time=when,
                labels=labels,
                versions=[3 + k] * width,
                first_submission=-1 if i % 4 == 0 else 0,
                n_engines=width,
            ))
    return reports


def _store(reports, block_records=8) -> ReportStore:
    store = ReportStore(block_records=block_records)
    for report in reports:
        store.ingest(report)
    store.close()
    return store


def _batch_of(reports) -> ColumnarBatch:
    return ColumnarBatch.from_records(
        [codec.encode_report(r) for r in reports])


def _record_digest(reports) -> str:
    """The canonical digest of ``reports`` ingested in order, computed
    from :func:`codec.encode_report` bytes without any block."""
    by_month: dict[int, list[bytes]] = {}
    for report in reports:
        by_month.setdefault(month_index(report.scan_time), []).append(
            codec.encode_report(report))
    h = hashlib.sha256()
    for month in sorted(by_month):
        h.update(struct.pack("<iq", month, len(by_month[month])))
        for record in by_month[month]:
            h.update(struct.pack("<I", len(record)))
            h.update(record)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Digest + analysis differentials


class TestDifferentialDigest:
    def test_hand_built_feed_digest_identical(self):
        reports = _feed()
        assert _store(reports).digest() == _record_digest(reports)

    def test_ragged_feed_digest_identical(self):
        reports = _feed(widths=(3, 5, 8))
        assert _store(reports).digest() == _record_digest(reports)

    def test_scenario_run_digest_identical(self, tiny_serial):
        """The simulator's bulk array ingest stores exactly the record
        bytes its reports encode to."""
        store = tiny_serial.store
        assert store.digest() == _record_digest(store.iter_reports())

    def test_scenario_series_and_figures_identical(self, tiny_serial):
        """The figure pipelines consume ``data.frame`` / dataset S —
        equality with the per-report object path here makes every
        downstream figure bit-identical."""
        reference = collect_series(tiny_serial.store.iter_sample_reports())
        assert tiny_serial.series() == reference
        assert tiny_serial.dataset_s.to_series() == [
            s for s in reference
            if s.multi and s.fresh and s.delta_overall > 0
            and s.file_type in TOP20_FILE_TYPES]
        assert tiny_serial.frame.multi_mask().tolist() == \
            [s.multi for s in reference]

    def test_series_frame_matches_row_collect(self, store_block_format):
        store = _store(_feed())
        assert store.series_frame().to_series() == \
            collect_series(store.iter_sample_reports())

    def test_series_frame_on_unclosed_store(self):
        reports = _feed()
        store = ReportStore(block_records=8)
        for report in reports:
            store.ingest(report)  # no close(): open buffers included
        assert store.series_frame().to_series() == \
            collect_series(_store(reports).iter_sample_reports())


class TestIngestArraysEquivalence:
    def test_bulk_array_ingest_digest_matches_per_report(self):
        reports = _feed()
        per_report = _store(reports)
        bulk = ReportStore(block_records=8)
        assert bulk.ingest_arrays(_batch_of(reports)) == len(reports)
        bulk.close()
        assert bulk.digest() == per_report.digest()

    def test_bulk_ingest_unsorted_months_matches(self):
        """The sorted-month slice fast path and the mask fallback agree."""
        reports = _feed()
        shuffled = reports[::-1]  # months now descend: mask path
        bulk = ReportStore(block_records=8)
        bulk.ingest_arrays(_batch_of(shuffled))
        bulk.close()
        assert bulk.digest() == _store(shuffled).digest()

    def test_bulk_ingest_tops_up_open_buffer(self):
        reports = _feed()
        split = 5  # mid-block: the batch must top up the open buffer
        mixed = ReportStore(block_records=8)
        for report in reports[:split]:
            mixed.ingest(report)
        mixed.ingest_arrays(_batch_of(reports[split:]))
        mixed.close()
        assert mixed.digest() == _store(reports).digest()


# ---------------------------------------------------------------------------
# File round trips


def _header(blob: bytes) -> dict:
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12:12 + header_len])


class TestFormatRoundTrips:
    def test_load_resave_idempotent(self, tmp_path):
        path = tmp_path / "first.store"
        _store(_feed()).save(path)
        again = tmp_path / "again.store"
        ReportStore.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_load_preserves_digest_and_reports(self, tmp_path):
        reports = _feed()
        store = _store(reports)
        path = tmp_path / "s.store"
        store.save(path)
        loaded = ReportStore.load(path)
        assert loaded.digest() == store.digest()
        sha = reports[0].sha256
        assert loaded.report_series(sha) == store.report_series(sha)

    def test_mmap_load_parity(self, tmp_path):
        store = _store(_feed())
        path = tmp_path / "s.store"
        store.save(path)
        mm = ReportStore.load(path, use_mmap=True)
        assert mm.digest() == store.digest()
        for sha in list(mm.samples())[:3]:
            assert mm.latest_report(sha) == store.latest_report(sha)

    def test_saved_version_field_matches(self, tmp_path):
        path = tmp_path / "s.store"
        _store(_feed()).save(path)
        assert _header(path.read_bytes())["version"] == 3

    def test_byte_exactness_survives_symmetric_read_traffic(self, tmp_path):
        """The same reports fed per report and by bulk array ingest save
        to the same bytes after the same reads — and after different
        reads too, since read traffic reaches no saved section."""
        reports = _feed()
        per_report = _store(reports)
        bulk = ReportStore(block_records=8)
        bulk.ingest_arrays(_batch_of(reports))
        bulk.close()
        for store in (per_report, bulk):
            store.latest_report(reports[0].sha256)  # symmetric: one read each
        paths = {}
        for name, store in (("per_report", per_report), ("bulk", bulk)):
            paths[name] = tmp_path / f"{name}.store"
            store.save(paths[name])
        assert paths["per_report"].read_bytes() == paths["bulk"].read_bytes()

        # Asymmetric traffic: the whole file, header included, is unchanged.
        per_report.latest_report(reports[1].sha256)
        skewed = tmp_path / "skewed.store"
        per_report.save(skewed)
        assert skewed.read_bytes() == paths["bulk"].read_bytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_versions_rejected(self, tmp_path, version):
        path = tmp_path / "s.store"
        _store(_feed()).save(path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = _header(blob)
        header["version"] = version
        raw = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw
                         + blob[12 + header_len:])
        with pytest.raises(CorruptRecordError,
                           match=f"unsupported store version {version}"):
            ReportStore.load(path)


# ---------------------------------------------------------------------------
# ColumnarBatch / v3 payload round trips


class TestColumnarRoundTrip:
    def test_records_round_trip_exactly(self):
        records = [codec.encode_report(r) for r in _feed()]
        assert ColumnarBatch.from_records(records).to_records() == records

    def test_payload_round_trip_uniform(self):
        batch = _batch_of(_feed(widths=(6, 6, 6)))
        decoded = columnar.decode_columnar(encode_columnar(batch))
        assert decoded.to_records() == batch.to_records()

    def test_payload_round_trip_ragged(self):
        batch = _batch_of(_feed(widths=(2, 9, 4)))
        payload = encode_columnar(batch)
        (flags,) = struct.unpack_from("<B", payload, 14)
        assert not flags & columnar._FLAG_UNIFORM
        decoded = columnar.decode_columnar(payload)
        assert decoded.to_records() == batch.to_records()

    def test_empty_batch_round_trip(self):
        payload = encode_columnar(ColumnarBatch.empty())
        assert columnar.decode_columnar(payload).to_records() == []

    def test_encoding_is_pure_function_of_records(self):
        """A take()-derived batch drags no dictionary history into its
        encoding: same records, same bytes."""
        batch = _batch_of(_feed())
        pdf_only = batch.take(
            np.asarray([batch.ftypes[c] == "PDF"
                        for c in batch.ftype_codes.tolist()]))
        rebuilt = ColumnarBatch.from_records(pdf_only.to_records())
        assert encode_columnar(pdf_only) == encode_columnar(rebuilt)

    def test_metadata_only_decode(self):
        batch = _batch_of(_feed())
        payload = encode_columnar(batch)
        meta = columnar.decode_columnar(
            payload[:columnar.meta_section_end(payload)], planes=False)
        assert not meta.has_planes
        assert meta.scan_time.tolist() == batch.scan_time.tolist()
        assert meta.positives.tolist() == batch.positives.tolist()
        with pytest.raises(CorruptRecordError):
            meta.to_records()

    def test_report_slot_materialisation(self):
        reports = _feed()
        batch = _batch_of(reports)
        payload = encode_columnar(batch)
        decoded = columnar.decode_columnar(payload)
        assert decoded.report(0) == reports[0]
        assert decoded.report(len(reports) - 1) == reports[-1]


class TestSparseVersionPlane:
    def _payload(self, versions_of):
        """Encode 8 uniform-width records whose versions come from
        ``versions_of(record_index) -> list[int]``."""
        width = len(versions_of(0))
        reports = [make_report(sha=make_sha(f"sv{i}"), scan_time=100 + i,
                               labels=[i % 2] * width,
                               versions=versions_of(i), n_engines=width)
                   for i in range(8)]
        return encode_columnar(_batch_of(reports)), reports

    @staticmethod
    def _flags(payload):
        return struct.unpack_from("<B", payload, 14)[0]

    def test_constant_versions_choose_sparse(self):
        payload, reports = self._payload(lambda i: [7, 7, 7, 7])
        assert self._flags(payload) & columnar._FLAG_SPARSE_VERSIONS
        decoded = columnar.decode_columnar(payload)
        assert [decoded.report(i) for i in range(8)] == reports

    def test_churning_versions_choose_dense(self):
        payload, reports = self._payload(lambda i: [i + 1, i + 2, i + 3, 9])
        assert not self._flags(payload) & columnar._FLAG_SPARSE_VERSIONS
        decoded = columnar.decode_columnar(payload)
        assert [decoded.report(i) for i in range(8)] == reports

    def test_occasional_bump_round_trips(self):
        payload, reports = self._payload(
            lambda i: [7 + (i >= 5), 3, 4, 5])
        decoded = columnar.decode_columnar(payload)
        assert [decoded.report(i) for i in range(8)] == reports

    def test_ragged_block_never_sparse(self):
        batch = _batch_of(_feed(widths=(3, 6, 3)))
        assert not self._flags(encode_columnar(batch)) & \
            columnar._FLAG_SPARSE_VERSIONS

    def test_sparse_and_dense_decode_identically(self):
        payload, _ = self._payload(lambda i: [7, 7, 7, 7])
        assert self._flags(payload) & columnar._FLAG_SPARSE_VERSIONS
        sparse = columnar.decode_columnar(payload)
        rebuilt = encode_columnar(
            ColumnarBatch.from_records(sparse.to_records()))
        assert rebuilt == payload  # idempotent re-encode


# ---------------------------------------------------------------------------
# Corruption surface (mirrors TestCorruptionSurface in test_store_codec)


def _small_payload(sparse=False):
    if sparse:
        versions_of = [[5, 5]] * 3
    else:
        versions_of = [[1, 2], [3, 4], [5, 6]]
    reports = [make_report(sha=make_sha(f"c{i}"), scan_time=50 * i,
                           labels=[1, 0], versions=versions_of[i],
                           n_engines=2)
               for i in range(3)]
    return encode_columnar(_batch_of(reports))


class TestV3CorruptionSurface:
    """Hostile v3 payloads must surface CorruptRecordError, never a
    struct.error / IndexError / ValueError leaking codec internals."""

    def test_every_truncation_point_rejected_cleanly(self):
        payload = _small_payload()
        for cut in range(len(payload)):
            with pytest.raises(CorruptRecordError):
                columnar.decode_columnar(payload[:cut])

    def test_every_truncation_point_rejected_sparse(self):
        payload = _small_payload(sparse=True)
        for cut in range(len(payload)):
            with pytest.raises(CorruptRecordError):
                columnar.decode_columnar(payload[:cut])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_bit_flips_never_leak_internal_errors(self, sparse):
        payload = _small_payload(sparse=sparse)
        for pos in range(len(payload)):
            for bit in (0x01, 0x80):
                mangled = bytearray(payload)
                mangled[pos] ^= bit
                try:
                    columnar.decode_columnar(bytes(mangled))
                except CorruptRecordError:
                    pass  # detected corruption: the contract
                # A silent decode is acceptable (no checksum); an
                # escaping struct/Index/ValueError is not.

    def test_metadata_only_bit_flips_never_leak(self):
        payload = _small_payload()
        meta_end = columnar.meta_section_end(payload)
        for pos in range(meta_end):
            mangled = bytearray(payload[:meta_end])
            mangled[pos] ^= 0x80
            try:
                columnar.decode_columnar(bytes(mangled), planes=False)
            except CorruptRecordError:
                pass

    def test_bad_magic_rejected(self):
        payload = _small_payload()
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(b"XXXX" + payload[4:])

    def test_empty_payload_rejected(self):
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(b"")

    def test_dictionary_code_out_of_range(self):
        payload = bytearray(_small_payload())
        # ftype code column sits right before the sha column.
        dict_end = len(payload) - (len(_small_payload())
                                   - columnar.meta_section_end(payload))
        del dict_end  # offsets below are computed structurally
        magic_n = struct.unpack_from("<4sIIHBI", bytes(payload), 0)
        _, n, _, _, _, dict_bytes = magic_n
        codes_at = (19 + dict_bytes
                    + n * (8 + 2 + 2 + 8 + 8 + 8 + 4 + 2))
        struct.pack_into("<H", payload, codes_at, 60_000)
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(bytes(payload))

    def test_engine_count_disagreement_rejected(self):
        payload = bytearray(_small_payload())
        _, n, _, _, _, dict_bytes = struct.unpack_from(
            "<4sIIHBI", bytes(payload), 0)
        n_engines_at = 19 + dict_bytes + n * (8 + 2 + 2 + 8 + 8 + 8 + 4)
        struct.pack_into("<H", payload, n_engines_at, 40_000)
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(bytes(payload))

    def test_uniform_flag_on_ragged_block_rejected(self):
        batch = _batch_of(_feed(widths=(2, 4, 2), n_samples=4,
                                scans_each=1))
        payload = bytearray(encode_columnar(batch))
        payload[14] |= columnar._FLAG_UNIFORM
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(bytes(payload))

    def test_sparse_flag_on_non_uniform_block_rejected(self):
        batch = _batch_of(_feed(widths=(2, 4, 2), n_samples=4,
                                scans_each=1))
        payload = bytearray(encode_columnar(batch))
        payload[14] |= columnar._FLAG_SPARSE_VERSIONS
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(bytes(payload))

    def _sparse_parts(self):
        payload = _small_payload(sparse=True)
        _, n, total_engines, _, flags, dict_bytes = struct.unpack_from(
            "<4sIIHBI", payload, 0)
        assert flags & columnar._FLAG_SPARSE_VERSIONS
        labels_end = (19 + dict_bytes
                      + n * columnar._META_BYTES_PER_RECORD
                      + total_engines)
        return bytearray(payload), labels_end

    def test_sparse_count_exceeding_records_rejected(self):
        payload, count_at = self._sparse_parts()
        struct.pack_into("<I", payload, count_at, 1_000)
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(bytes(payload))

    def test_sparse_row_index_out_of_range_rejected(self):
        payload, count_at = self._sparse_parts()
        struct.pack_into("<I", payload, count_at + 4, 9_999)
        with pytest.raises(CorruptRecordError):
            columnar.decode_columnar(bytes(payload))

    def test_store_level_block_corruption_surfaces(self, tmp_path):
        """A flipped byte inside a saved v3 file surfaces as corruption
        (or a digest change), never an internal error, when read back."""
        store = _store(_feed())
        path = tmp_path / "s.store"
        store.save(path)
        blob = bytearray(path.read_bytes())
        blob[-30] ^= 0xFF  # inside the last block's zlib payload
        path.write_bytes(bytes(blob))
        try:
            loaded = ReportStore.load(path)
            assert loaded.digest() != store.digest()
        except CorruptRecordError:
            pass


# ---------------------------------------------------------------------------
# SeriesFrame kernel parity


class TestKernelParity:
    @pytest.fixture()
    def frame_and_series(self):
        reports = _feed(n_samples=14, scans_each=5)
        store = _store(reports)
        frame = store.series_frame()
        return frame, frame.to_series()

    def test_select_preserves_order_and_content(self, frame_and_series):
        frame, series = frame_and_series
        mask = frame.multi_mask() & frame.fresh
        sub = frame.select(mask)
        assert sub.to_series() == [s for s, keep in zip(series, mask)
                                   if keep]

    def test_select_with_index_array(self, frame_and_series):
        frame, series = frame_and_series
        idx = np.asarray([3, 0, 7], np.int64)
        assert frame.select(idx).to_series() == [series[3], series[0],
                                                 series[7]]

    def test_pairwise_diffs_matches_python_enumeration(
            self, frame_and_series):
        frame, series = frame_and_series
        intervals, diffs = frame.pairwise_diffs()
        pairs = [(s, i, j) for s in series
                 for i in range(s.n) for j in range(i + 1, s.n)]
        assert diffs.tolist() == [abs(s.ranks[j] - s.ranks[i])
                                  for s, i, j in pairs]
        assert intervals.tolist() == [s.times[j] - s.times[i]
                                      for s, i, j in pairs]

    def test_adjacent_deltas_match_python(self, frame_and_series):
        frame, series = frame_and_series
        expected = [d for s in series for d in s.adjacent_deltas()]
        assert frame.adjacent_deltas().tolist() == expected

    def test_delta_and_masks_match_python(self, frame_and_series):
        frame, series = frame_and_series
        assert frame.delta_overall().tolist() == \
            [s.delta_overall for s in series]
        assert frame.stable_mask().tolist() == \
            [s.multi and s.delta_overall == 0 for s in series]
        assert frame.span_minutes().tolist() == \
            [s.span_minutes for s in series]

    def test_empty_frame_kernels(self):
        frame = SeriesFrame.from_batches([])
        assert frame.pairwise_diffs()[0].tolist() == []
        assert frame.select(np.zeros(0, bool)).n_samples == 0


# ---------------------------------------------------------------------------
# Property fuzz: random streams × block sizes


_report_strategy = st.builds(
    lambda sha_i, when, labels, versions_seed, first: make_report(
        sha=make_sha(f"h{sha_i}"),
        scan_time=when,
        labels=labels,
        versions=[versions_seed] * len(labels),
        first_submission=first,
        n_engines=len(labels),
    ),
    sha_i=st.integers(0, 5),
    when=st.integers(0, MONTH_STARTS[2] - 1),
    labels=st.lists(st.sampled_from([-1, 0, 1]), min_size=0, max_size=9),
    versions_seed=st.integers(0, 3),
    first=st.sampled_from([-1, 0, 40]),
)


class TestPropertyFuzz:
    @settings(max_examples=25, deadline=None)
    @given(reports=st.lists(_report_strategy, min_size=1, max_size=24),
           block_records=st.integers(1, 6))
    def test_random_streams_are_format_invariant(self, tmp_path_factory,
                                                 reports, block_records):
        """Any stream survives blocks, the file format and the array
        kernels unchanged: its digest is the record digest, its series
        are the per-report path's, and a save reloads to both."""
        tmp_path = tmp_path_factory.mktemp("fuzz")
        store = _store(reports, block_records=block_records)
        assert store.digest() == _record_digest(reports)
        assert store.series_frame().to_series() == \
            collect_series(store.iter_sample_reports())

        path = tmp_path / "s.store"
        store.save(path)
        reloaded = ReportStore.load(path)
        assert reloaded.digest() == store.digest()
        assert list(reloaded.iter_reports()) == list(store.iter_reports())

    @settings(max_examples=25, deadline=None)
    @given(reports=st.lists(_report_strategy, min_size=0, max_size=16))
    def test_random_batches_round_trip_v3(self, reports):
        records = [codec.encode_report(r) for r in reports]
        batch = ColumnarBatch.from_records(records)
        assert batch.to_records() == records
        decoded = columnar.decode_columnar(encode_columnar(batch))
        assert decoded.to_records() == records
