"""The report store: the paper's MongoDB pipeline as an embedded library.

:class:`ReportStore` ingests scan reports (typically straight from the
premium feed), shards them by collection-window month, compresses them in
blocks, and maintains two index structures the paper's pipeline also kept:

* a **per-sample index** mapping a hash to the block addresses of all its
  reports — the grouping step behind every per-sample analysis;
* **sample metadata** (file type, freshness) stored once per sample rather
  than per report — the "stored separately to reduce data redundancy"
  optimisation from §4.1.

The store can persist itself to a single file and reload it; the on-disk
format is self-describing (JSON header + length-prefixed compressed
blocks).  Since format v2 the per-sample index — addresses *and* scan
times (:mod:`repro.store.index`) — is persisted right after the header,
so loading touches no blocks and a point lookup
(:meth:`latest_report` / :meth:`report_series`) decodes at most the
blocks actually holding the sample's reports.  v1 files, which carry no
index section, still load: the index is then rebuilt lazily from cheap
record peeks on first per-sample access.

Retrieval is **write-aware and memory-bounded**: the decoded-block LRU
(:mod:`repro.store.cache`) admits only immutable frozen blocks — reads
that land in a shard's open buffer are served live and never cached, so
interleaved ingest and query (the live-feed scenario of §4.1) can never
observe a stale snapshot — and :meth:`iter_sample_reports` streams the
store block by block instead of materialising every report at once.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap
import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import (
    CorruptRecordError,
    ShardClosedError,
    StoreError,
    UnknownSampleError,
)
from repro.obs import NULL_REGISTRY, traced
from repro.store import codec, columnar
from repro.store.cache import DEFAULT_CACHE_BYTES, BlockCache, CacheStats
from repro.store.columnar import ColumnarBatch, SeriesFrame
from repro.store.index import (
    INDEX_FORMAT,
    IndexEntry,
    decode_index,
    encode_index,
    latest_entry,
    sample_ranks,
)
from repro.store.shard import DEFAULT_BLOCK_RECORDS, CompressedBlock, MonthlyShard
from repro.store.stats import StoreStats, compute_store_stats
from repro.vt.clock import month_index, month_label
from repro.vt.reports import ScanReport

_FILE_MAGIC = b"RPRSTORE"
#: Current on-disk format: v3 freezes blocks in the columnar layout
#: (v2 introduced the embedded point-lookup index section, which v3
#: keeps unchanged).
_FILE_VERSION = 3
#: Formats :meth:`ReportStore.load` accepts.  v1 (the original format)
#: has no index section — the index is rebuilt lazily instead; v2 is
#: row blocks plus the index; v3 is columnar blocks plus the index.
_SUPPORTED_VERSIONS = (1, 2, 3)

#: File version each block layout saves as by default.
_VERSION_OF_FORMAT = {codec.BLOCK_FORMAT_ROW: 2,
                      codec.BLOCK_FORMAT_COLUMNAR: 3}
#: Block layout implied by each file version.
_FORMAT_OF_VERSION = {1: codec.BLOCK_FORMAT_ROW,
                      2: codec.BLOCK_FORMAT_ROW,
                      3: codec.BLOCK_FORMAT_COLUMNAR}

Address = tuple[int, int, int]  # (month, block, slot)


class _MappedReader:
    """Sequential zero-copy reader over a memory-mapped store file.

    ``read`` returns :class:`memoryview` slices into the mapping, so
    block payloads loaded through it occupy no private memory — the page
    cache backs them, and forked workers share the pages.  Callers that
    need real bytes (struct/JSON decoding of the small header fields)
    wrap the view in ``bytes(...)``.
    """

    def __init__(self, mapping: "_mmap.mmap") -> None:
        self._view = memoryview(mapping)
        self._pos = 0

    def read(self, size: int) -> memoryview:
        view = self._view[self._pos:self._pos + size]
        self._pos += len(view)
        return view

#: Fixed bucket edges (bytes) for the encoded-record-size histogram.
RECORD_BYTES_EDGES: tuple[int, ...] = (64, 128, 192, 256, 384, 512, 1024, 2048)


class ReportStore:
    """Sharded, compressed, indexed storage for scan reports."""

    def __init__(
        self,
        block_records: int = DEFAULT_BLOCK_RECORDS,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        metrics=None,
        block_format: str = codec.BLOCK_FORMAT_COLUMNAR,
    ) -> None:
        self.block_records = block_records
        self.block_format = codec.resolve_block_format(block_format)
        #: Keeps a memory-mapped file (and its buffer) alive for stores
        #: loaded with ``mmap=True``; block payloads are views into it.
        self._mmap = None
        self.shards: dict[int, MonthlyShard] = {}
        self._index: dict[str, list[IndexEntry]] = {}
        self._sample_meta: dict[str, tuple[str, bool]] = {}
        self._scan_index: dict[str, set[int]] = {}
        #: False only on a store loaded from a v1 file, until the first
        #: per-sample access triggers the lazy rebuild.
        self._index_ready = True
        self._cache = BlockCache(max_bytes=cache_bytes)
        self._blocks_decoded = 0
        self._open_reads = 0
        self._peak_stream_reports = 0
        self.closed = False
        # Observability: pre-bound handles (no-ops on the null registry).
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_ingest_bytes = self.metrics.counter("store.ingest.bytes")
        self._m_record_bytes = self.metrics.histogram(
            "store.ingest.record_bytes", edges=RECORD_BYTES_EDGES)
        self._m_duplicates = self.metrics.counter("store.ingest.duplicates")
        self._m_batch_records = self.metrics.counter("store.ingest.batch_records")
        self._m_cache_hits = self.metrics.counter("store.cache.hits")
        self._m_cache_misses = self.metrics.counter("store.cache.misses")
        self._m_open_reads = self.metrics.counter("store.cache.open_reads")
        self._m_decoded = self.metrics.counter("store.cache.decoded_blocks")
        self._m_month_records: dict[int, object] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(self, report: ScanReport) -> None:
        """Add one report to the store."""
        if self.closed:
            raise ShardClosedError("store is closed")
        self._ensure_index()
        month = month_index(report.scan_time)
        shard = self._shard(month)
        record = codec.encode_report(report)
        block, slot = shard.append(record, codec.verbose_json_size(report))
        self._m_ingest_bytes.inc(len(record))
        self._m_record_bytes.observe(len(record))
        month_counter = self._m_month_records.get(month)
        if month_counter is None:
            month_counter = self._m_month_records[month] = self.metrics.counter(
                "store.ingest.records", month=month_label(month))
        month_counter.inc()
        # The open buffer is never cached, so this is a no-op today; it
        # pins the invalidation contract (any mutation of block `block`
        # must drop a cached decode of it) independent of cache policy.
        self._invalidate_block(month, block)
        self._index.setdefault(report.sha256, []).append(
            (month, block, slot, report.scan_time))
        self._scan_index.setdefault(report.sha256, set()).add(report.scan_time)
        if report.sha256 not in self._sample_meta:
            self._sample_meta[report.sha256] = (
                report.file_type,
                report.first_submission_date >= 0,
            )

    def has_report(self, sha256: str, scan_time: int) -> bool:
        """Whether a report for ``(sha256, scan_time)`` is already stored.

        The idempotency hook: a scan is identified by its sample and
        minute (one analysis per sample per minute), so replayed feed
        batches, duplicated deliveries and backfill overlap can all be
        recognised without decoding any block.
        """
        self._ensure_index()
        times = self._scan_index.get(sha256)
        return times is not None and scan_time in times

    def ingest_unique(self, report: ScanReport) -> bool:
        """Ingest unless an identical scan is already stored.

        Returns ``True`` when the report was ingested, ``False`` when it
        was recognised as a duplicate and skipped — the contract retrying
        collectors rely on so replays never double-count.
        """
        if self.has_report(report.sha256, report.scan_time):
            self._m_duplicates.inc()
            return False
        self.ingest(report)
        return True

    def ingest_batch(self, reports: Iterable[ScanReport]) -> int:
        """Add a batch (e.g. one feed poll); returns the count ingested."""
        count = 0
        for report in reports:
            self.ingest(report)
            count += 1
        return count

    def ingest_arrays(self, batch: ColumnarBatch) -> int:
        """Bulk-ingest a columnar batch; returns the count ingested.

        The array fast path: records are split by month vectorised, and
        whole blocks of a columnar shard are encoded straight from array
        slices, never materialising per-record python bytes for them.
        Digest-equivalent to ingesting ``batch``'s reports one by one in
        row order.

        Index maintenance is deferred (like a v1 load): the per-sample
        index rebuilds lazily on the first per-sample access instead of
        being updated record by record, which is what keeps this path
        fast for analytics ingest.
        """
        if self.closed:
            raise ShardClosedError("store is closed")
        n = len(batch)
        if n == 0:
            return 0
        months = columnar.month_indices(batch.scan_time.astype(np.int64))
        sorted_by_month = bool((months[1:] >= months[:-1]).all())
        uniq_months = np.unique(months)
        edges = np.searchsorted(months, uniq_months, side="left") \
            if sorted_by_month else None
        for k, month in enumerate(uniq_months.tolist()):
            if sorted_by_month:
                # Chronological input → months are contiguous runs, and a
                # slice (plane views, no gather) replaces the masked take.
                stop = int(edges[k + 1]) if k + 1 < len(uniq_months) else n
                sub = batch.slice(int(edges[k]), stop)
            else:
                sub = batch.take(months == month)
            shard = self._shard(month)
            self._invalidate_block(month, len(shard.blocks))
            shard.extend_batch(sub)
            self._m_ingest_bytes.inc(sub.encoded_bytes())
            month_counter = self._m_month_records.get(month)
            if month_counter is None:
                month_counter = self._m_month_records[month] = (
                    self.metrics.counter("store.ingest.records",
                                         month=month_label(month)))
            month_counter.inc(len(sub))
            if self.metrics.enabled:
                for size in sub._record_sizes().tolist():
                    self._m_record_bytes.observe(size)
        self._m_batch_records.inc(n)
        self._index_ready = False
        return n

    def flush(self) -> None:
        """Freeze every shard's open buffer into a compressed block.

        Useful on a live store to bound the raw-buffer footprint between
        ingest bursts; block addresses are unaffected (a buffer freezes
        into exactly the block index its records were assigned).
        """
        for shard in self.shards.values():
            self._invalidate_block(shard.month, len(shard.blocks))
            shard.flush()

    def close(self) -> None:
        """Flush and seal every shard; further ingests raise."""
        for shard in self.shards.values():
            self._invalidate_block(shard.month, len(shard.blocks))
            shard.close()
        self.closed = True

    def _shard(self, month: int) -> MonthlyShard:
        shard = self.shards.get(month)
        if shard is None:
            shard = MonthlyShard(month, block_records=self.block_records,
                                 block_format=self.block_format)
            self.shards[month] = shard
        return shard

    def _invalidate_block(self, month: int, block_idx: int) -> None:
        """Drop both cached decodes (records and batch) of one block."""
        self._cache.invalidate((month, block_idx))
        self._cache.invalidate((month, block_idx, "batch"))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def report_count(self) -> int:
        return sum(s.report_count for s in self.shards.values())

    @property
    def sample_count(self) -> int:
        self._ensure_index()
        return len(self._index)

    @property
    def fresh_sample_count(self) -> int:
        self._ensure_index()
        return sum(1 for _, fresh in self._sample_meta.values() if fresh)

    def stats(self) -> StoreStats:
        """Table 2 style accounting for the whole store."""
        return compute_store_stats(self)

    def digest(self) -> str:
        """Canonical content digest of the stored report stream.

        Hashes every encoded record, month by month in ingest order, with
        length framing — so two stores are digest-equal iff they hold the
        same reports in the same order per month.  Block layout, cache
        state and index structures do not participate: the digest is the
        contract the parallel runner's serial/parallel equivalence gate
        checks (``run_experiment(config, workers=K)`` must reproduce the
        serial digest for every K).  On a live store the open buffers are
        included, so the digest reflects everything ingested so far.
        """
        h = hashlib.sha256()
        for month in sorted(self.shards):
            shard = self.shards[month]
            h.update(struct.pack("<iq", month, shard.report_count))
            for _, records in shard.iter_record_blocks():
                for record in records:
                    h.update(struct.pack("<I", len(record)))
                    h.update(record)
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def __contains__(self, sha256: str) -> bool:
        self._ensure_index()
        return sha256 in self._index

    def samples(self) -> Iterator[str]:
        """All sample hashes, in first-ingest order."""
        self._ensure_index()
        return iter(self._index)

    def sample_file_type(self, sha256: str) -> str:
        self._ensure_index()
        try:
            return self._sample_meta[sha256][0]
        except KeyError:
            raise UnknownSampleError(sha256) from None

    def sample_is_fresh(self, sha256: str) -> bool:
        self._ensure_index()
        try:
            return self._sample_meta[sha256][1]
        except KeyError:
            raise UnknownSampleError(sha256) from None

    def report_count_of(self, sha256: str) -> int:
        self._ensure_index()
        try:
            return len(self._index[sha256])
        except KeyError:
            raise UnknownSampleError(sha256) from None

    def _block(self, month: int, block_idx: int) -> list[bytes]:
        """Decoded records of one block, write-aware.

        Frozen blocks are immutable, so their decodes are cached in the
        bytes-bounded LRU.  An index at or past ``len(shard.blocks)``
        addresses the *open* buffer of a live shard: that read is served
        straight from the shard (a live view, not a snapshot) and is
        never cached — caching it was the stale-read bug this layer
        exists to prevent.
        """
        shard = self.shards[month]
        if block_idx >= len(shard.blocks):
            self._open_reads += 1
            self._m_open_reads.inc()
            return shard.block_records_at(block_idx)
        key = (month, block_idx)
        records = self._cache.get(key)
        if records is None:
            records = shard.blocks[block_idx].records()
            self._blocks_decoded += 1
            self._m_cache_misses.inc()
            self._m_decoded.inc()
            self._cache.put(key, records)
        else:
            self._m_cache_hits.inc()
        return records

    def _entries(self, sha256: str) -> list[IndexEntry]:
        self._ensure_index()
        try:
            return self._index[sha256]
        except KeyError:
            raise UnknownSampleError(sha256) from None

    def report_series(self, sha256: str) -> list[ScanReport]:
        """All reports of one sample, sorted by scan time.

        The point-lookup path: only the blocks actually holding the
        sample's reports are decoded, each exactly once per call (and at
        most once across calls while cached) — never the whole store.
        Safe to interleave with :meth:`ingest`: reports still in an open
        buffer are read live, and frozen-block cache entries can never go
        stale (frozen blocks are immutable).
        """
        by_block: dict[tuple[int, int], list[int]] = {}
        for month, block, slot, _ in self._entries(sha256):
            by_block.setdefault((month, block), []).append(slot)
        reports = []
        for (month, block), slots in sorted(by_block.items()):
            records = self._block(month, block)
            for slot in slots:
                reports.append(codec.decode_report(records[slot]))
        reports.sort(key=lambda r: r.scan_time)
        return reports

    def reports_for(self, sha256: str) -> list[ScanReport]:
        """Alias of :meth:`report_series` (the original name)."""
        return self.report_series(sha256)

    def _batch(self, month: int, block_idx: int) -> ColumnarBatch:
        """Decoded columnar batch of one block, write-aware.

        The batch analogue of :meth:`_block`: frozen-block batches are
        cached (under a key distinct from the record-list decode), open
        buffers are bulk-parsed live and never cached.
        """
        shard = self.shards[month]
        if block_idx >= len(shard.blocks):
            self._open_reads += 1
            self._m_open_reads.inc()
            return ColumnarBatch.from_records(
                shard.block_records_at(block_idx))
        key = (month, block_idx, "batch")
        batch = self._cache.get(key)
        if batch is None:
            batch = shard.blocks[block_idx].batch()
            self._blocks_decoded += 1
            self._m_cache_misses.inc()
            self._m_decoded.inc()
            self._cache.put(key, batch)
        else:
            self._m_cache_hits.inc()
        return batch

    def latest_report(self, sha256: str) -> ScanReport:
        """The sample's most recent report — what ``GET /files/{id}``
        serves.

        Locates the report through the index's per-entry scan times, so
        exactly one block is decoded on a cold cache (zero on a warm
        one) no matter how many months or reports the store holds.  Ties
        on the scan minute resolve to the last-ingested report, matching
        the final element of :meth:`report_series`.

        On a columnar store the block decodes straight to arrays and
        only the hit slot is materialised; row stores keep the record
        path.
        """
        month, block, slot, _ = latest_entry(self._entries(sha256))
        if self.block_format == codec.BLOCK_FORMAT_COLUMNAR:
            return self._batch(month, block).report(slot)
        return codec.decode_report(self._block(month, block)[slot])

    def iter_reports(self) -> Iterator[ScanReport]:
        """All reports, month by month in ingest order."""
        for month in sorted(self.shards):
            for _, records in self.shards[month].iter_record_blocks():
                self._blocks_decoded += 1
                self._m_decoded.inc()
                for record in records:
                    yield codec.decode_report(record)

    def iter_sample_reports(self) -> Iterator[tuple[str, list[ScanReport]]]:
        """``(sha256, time-sorted reports)`` for every sample, streaming.

        One sequential pass in block order, decoding each block exactly
        once.  A sample's group is yielded (and its memory released) as
        soon as the pass crosses the last block that contains one of its
        reports, so peak resident reports are bounded by the samples
        *live* across the current block window — not by store size.
        Samples therefore arrive in completion order (order of their
        last report), not first-ingest order.
        """
        # Last (month, block) each sample appears in → who completes where.
        self._ensure_index()
        completions: dict[tuple[int, int], list[str]] = {}
        for sha256, entries in self._index.items():
            last = max((month, block) for month, block, _, _ in entries)
            completions.setdefault(last, []).append(sha256)

        pending: dict[str, list[ScanReport]] = {}
        resident = 0
        for month in sorted(self.shards):
            for block_idx, records in self.shards[month].iter_record_blocks():
                self._blocks_decoded += 1
                self._m_decoded.inc()
                for record in records:
                    report = codec.decode_report(record)
                    pending.setdefault(report.sha256, []).append(report)
                resident += len(records)
                self._peak_stream_reports = max(
                    self._peak_stream_reports, resident
                )
                for sha256 in completions.pop((month, block_idx), ()):
                    reports = pending.pop(sha256)
                    resident -= len(reports)
                    reports.sort(key=lambda r: r.scan_time)
                    yield sha256, reports

    def iter_batches(self, planes: bool = True) -> Iterator[ColumnarBatch]:
        """Per-block columnar batches, month by month in block order.

        The streaming substrate of the analysis kernels: one sequential
        pass, one decode per block, no per-report python objects.  With
        ``planes=False`` columnar blocks decompress only their fixed
        columns — the per-engine planes, which dominate decompressed
        bytes, stay compressed.  The open buffer of a live shard is
        bulk-parsed last, exactly like :meth:`iter_record_blocks`.
        """
        for month in sorted(self.shards):
            for batch in self.shards[month].iter_batches(planes=planes):
                self._blocks_decoded += 1
                self._m_decoded.inc()
                yield batch

    def series_frame(self) -> SeriesFrame:
        """Every sample's AV-Rank trajectory and label planes as arrays.

        The columnar replacement for
        ``collect_series(iter_sample_reports())``: same grouping, same
        time-sorting, same sample order (its :meth:`SeriesFrame.
        to_series` is bit-identical to the row path), built from one
        streaming pass that decodes every block once and constructs no
        per-report objects.  The frame also keeps the per-engine
        label/version planes the §7 analyses read.
        """
        if self._index_ready:
            return SeriesFrame.from_batches(self.iter_batches(),
                                            sample_ranks(self._index))
        # Deferred index (bulk ingest / v1 load): a rebuilt index would
        # rank samples by first occurrence in exactly the stream order
        # from_batches sees, so the rebuild can be skipped outright.
        return SeriesFrame.from_batches(self.iter_batches())

    # ------------------------------------------------------------------
    # Cache control / instrumentation
    # ------------------------------------------------------------------

    def drop_caches(self) -> None:
        """Release all cached block decodes (event counters survive)."""
        self._cache.clear()

    def cache_stats(self) -> CacheStats:
        """Retrieval-layer counters: cache traffic, decodes, residency."""
        return CacheStats(
            hits=self._cache.hits,
            misses=self._cache.misses,
            evictions=self._cache.evictions,
            invalidations=self._cache.invalidations,
            blocks_decoded=self._blocks_decoded,
            open_reads=self._open_reads,
            bytes_resident=self._cache.bytes_resident,
            bytes_limit=self._cache.max_bytes,
            entries=len(self._cache),
            peak_stream_reports=self._peak_stream_reports,
        )

    def publish_metrics(self, registry=None) -> None:
        """Set whole-store gauges on ``registry`` (default: own registry).

        Unlike the hot-path counters, these describe the store's *final*
        state, so they are published once after all ingest/merge work —
        identically on the serial and parallel paths, whose stores are
        digest-equal by the equivalence gate.
        """
        registry = registry if registry is not None else self.metrics
        if not registry.enabled:
            return
        stats = self.stats()
        registry.gauge("store.reports").set(stats.total_reports)
        registry.gauge("store.samples").set(stats.total_samples)
        registry.gauge("store.fresh_samples").set(stats.fresh_samples)
        registry.gauge("store.blocks").set(
            sum(len(s.blocks) for s in self.shards.values()))
        registry.gauge("store.bytes.verbose").set(stats.verbose_bytes)
        registry.gauge("store.bytes.compressed").set(stats.compressed_bytes)
        registry.gauge("store.bytes.buffered").set(stats.buffered_bytes)
        for row in stats.months:
            if row.report_count:
                registry.gauge(
                    "store.month.reports", month=row.label
                ).set(row.report_count)
        cache = stats.cache
        registry.gauge("store.cache.bytes_resident").set(cache.bytes_resident)
        registry.gauge("store.cache.entries").set(cache.entries)
        registry.gauge("store.cache.peak_stream_reports").set(
            cache.peak_stream_reports)
        # hit_rate is well-defined (0.0) with zero lookups — publishing
        # on an untouched cache must never divide by zero.
        registry.gauge("store.cache.hit_rate").set(cache.hit_rate)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @traced("store.save.seconds")
    def save(self, path: str | Path, *, include_index: bool = True,
             format_version: int | None = None) -> None:
        """Write the store to a single self-describing file.

        Non-mutating: saving a live (unclosed) store is a pure snapshot.
        Records still in a shard's open buffer are compressed into a tail
        block *in the file only* — the in-memory shard keeps its buffer,
        block layout and addresses untouched, and ingest can continue
        afterwards.  (An earlier revision flushed each shard mid-save,
        silently changing the block layout of a live store.)

        ``format_version`` picks the on-disk format explicitly:

        * ``1`` — row blocks, no index section (the original layout);
        * ``2`` — row blocks plus the embedded point-lookup index;
        * ``3`` — columnar blocks plus the index (the default for
          columnar stores).

        ``None`` infers it from the store's own block layout (and from
        ``include_index=False``, which keeps meaning "write a v1
        file").  Blocks whose frozen layout differs from the target are
        transcoded record-for-record; because both encoders are pure
        functions of the record sequence (one fixed zlib level per
        layout), the output
        is byte-exact against a store that had always used the target
        layout — v2 files written by a columnar store are
        bit-identical to those written by a row store of the same
        contents, and vice versa.
        """
        self._ensure_index()
        path = Path(path)
        if format_version is None:
            format_version = (1 if not include_index
                              else _VERSION_OF_FORMAT[self.block_format])
        if format_version not in _SUPPORTED_VERSIONS:
            raise CorruptRecordError(
                f"unsupported store version {format_version}")
        if format_version == 1:
            include_index = False
        target_format = _FORMAT_OF_VERSION[format_version]
        header = {
            "version": format_version,
            "block_records": self.block_records,
            "months": sorted(self.shards),
            # Retrieval-layer counters ride along so a save()+reopen
            # cycle doesn't silently zero the instrumentation (they used
            # to reset, making long-lived collector restarts look like
            # cold caches).  Old files simply lack the key.
            "retrieval_counters": {
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
                "invalidations": self._cache.invalidations,
                "blocks_decoded": self._blocks_decoded,
                "open_reads": self._open_reads,
                "peak_stream_reports": self._peak_stream_reports,
            },
        }
        index_payload = b""
        if include_index:
            index_payload = encode_index(self._index, self._sample_meta)
            header["index"] = {
                "format": INDEX_FORMAT,
                "samples": len(self._index),
                "bytes": len(index_payload),
            }
        with path.open("wb") as fh:
            fh.write(_FILE_MAGIC)
            header_bytes = json.dumps(header).encode("utf-8")
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            if include_index:
                fh.write(index_payload)
            for month in sorted(self.shards):
                shard = self.shards[month]
                blocks = [self._transcoded(block, target_format)
                          for block in shard.blocks]
                buffered = shard.buffered_records()
                if buffered:
                    blocks.append(
                        CompressedBlock.from_records(buffered, target_format))
                fh.write(struct.pack("<iIqqq", month, len(blocks),
                                     shard.report_count, shard.verbose_bytes,
                                     shard.encoded_bytes))
                for block in blocks:
                    fh.write(struct.pack("<IIq", len(block.payload),
                                         block.record_count, block.raw_bytes))
                    fh.write(block.payload)

    @staticmethod
    def _transcoded(block: CompressedBlock, target_format: str) -> CompressedBlock:
        """The block as-is when already in the target layout, else re-encoded.

        Dispatches on the block's own magic (not the shard's nominal
        format) so stores holding mixed layouts — e.g. after a merge
        spliced foreign blocks — still save a uniform, byte-exact file.
        """
        if codec.peek_block_format(block.payload) == target_format:
            return block
        return CompressedBlock.from_records(block.records(), target_format)

    @classmethod
    @traced("store.load.seconds")
    def load(cls, path: str | Path, *, reopen: bool = False,
             metrics=None, use_mmap: bool = False) -> "ReportStore":
        """Reload a store written by :meth:`save`.

        A v2/v3 file carries its point-lookup index inline, so loading
        decodes no blocks at all; a legacy v1 file (no index section)
        loads too, deferring the index rebuild until the first
        per-sample access actually needs it (lazy fallback).  The block
        layout (row for v1/v2, columnar for v3) is taken from the file
        version, so new appends and re-saves stay format-consistent.

        With ``use_mmap=True`` the file is memory-mapped and every block
        payload is a zero-copy view into the mapping: nothing but the
        header and index is read eagerly, the page cache backs all block
        bytes, and — the point — fork-based executor workers *share*
        those pages instead of each re-reading (or worse, copying) the
        file.  The mapping lives as long as the store does.

        By default the loaded store is sealed (analysis use).  With
        ``reopen=True`` the shards stay writable so ingest can continue —
        the crash/resume path of the resilient collector.  Reopened
        appends land in fresh blocks after the loaded ones; existing
        addresses are unaffected.
        """
        path = Path(path)
        with path.open("rb") as fh:
            if use_mmap:
                mapping = _mmap.mmap(fh.fileno(), 0,
                                     access=_mmap.ACCESS_READ)
            else:
                mapping = None
            # Everything below parses attacker-shaped bytes: a truncated
            # or damaged file must surface as CorruptRecordError (the
            # store's exception contract) and must not leak the mapping.
            try:
                reader = _MappedReader(mapping) if mapping is not None else fh
                if reader.read(len(_FILE_MAGIC)) != _FILE_MAGIC:
                    raise CorruptRecordError(f"{path} is not a report store")
                (header_len,) = struct.unpack("<I", reader.read(4))
                header = json.loads(
                    bytes(reader.read(header_len)).decode("utf-8"))
                if header["version"] not in _SUPPORTED_VERSIONS:
                    raise CorruptRecordError(
                        f"unsupported store version {header['version']}"
                    )
                store = cls(block_records=header["block_records"],
                            metrics=metrics,
                            block_format=_FORMAT_OF_VERSION[header["version"]])
                store._mmap = mapping
                index_info = header.get("index")
                index_payload = None
                if index_info is not None:
                    if index_info["format"] != INDEX_FORMAT:
                        raise CorruptRecordError(
                            f"unsupported store index format "
                            f"{index_info['format']}")
                    index_payload = reader.read(index_info["bytes"])
                    if len(index_payload) != index_info["bytes"]:
                        raise CorruptRecordError("truncated store index")
                counters = header.get("retrieval_counters")
                if counters:
                    store._cache.hits = counters.get("hits", 0)
                    store._cache.misses = counters.get("misses", 0)
                    store._cache.evictions = counters.get("evictions", 0)
                    store._cache.invalidations = counters.get(
                        "invalidations", 0)
                    store._blocks_decoded = counters.get("blocks_decoded", 0)
                    store._open_reads = counters.get("open_reads", 0)
                    store._peak_stream_reports = counters.get(
                        "peak_stream_reports", 0)
                for _ in header["months"]:
                    month, n_blocks, report_count, verbose, encoded = \
                        struct.unpack("<iIqqq", bytes(
                            reader.read(struct.calcsize("<iIqqq"))))
                    shard = MonthlyShard(month,
                                         block_records=store.block_records,
                                         block_format=store.block_format)
                    for _ in range(n_blocks):
                        size, record_count, raw = struct.unpack(
                            "<IIq", bytes(reader.read(struct.calcsize("<IIq")))
                        )
                        payload = reader.read(size)
                        if len(payload) != size:
                            raise CorruptRecordError("truncated store file")
                        shard.blocks.append(
                            CompressedBlock(payload, record_count, raw)
                        )
                    shard.report_count = report_count
                    shard.verbose_bytes = verbose
                    shard.encoded_bytes = encoded
                    shard.closed = not reopen
                    store.shards[month] = shard
                if index_payload is not None:
                    index, meta = decode_index(bytes(index_payload))
                    store._index = index
                    store._sample_meta = meta
                    store._scan_index = {
                        sha: {entry[3] for entry in entries}
                        for sha, entries in index.items()
                    }
                else:
                    store._index_ready = False
            except (StoreError, struct.error, ValueError, KeyError) as exc:
                if mapping is not None:
                    # Payloads decoded before the error are exported
                    # views into the mapping; drop every frame-local
                    # reference first or close() raises BufferError.
                    reader = store = shard = payload = index_payload = None
                    mapping.close()
                if isinstance(exc, StoreError):
                    raise
                raise CorruptRecordError(
                    f"{path} is damaged or truncated: {exc}") from exc
        store.closed = not reopen
        return store

    def _ensure_index(self) -> None:
        """Build the per-sample index if it was deferred (v1 file load)."""
        if not self._index_ready:
            self._rebuild_index()

    def _rebuild_index(self) -> None:
        """Rebuild the per-sample index from the records themselves.

        One vectorised pass over metadata-only batches (covering open
        buffers too — the bulk :meth:`ingest_arrays` path defers
        indexing): all addresses, scan times and first-occurrence
        metadata come out of numpy gathers, and only the per-sample
        python dict entries are built in a loop.  Entry order, dict
        insertion order and metadata choice are identical to what the
        old per-record peek loop produced.
        """
        self._index.clear()
        self._sample_meta.clear()
        self._scan_index.clear()
        parts: list[tuple[int, int, "ColumnarBatch"]] = []
        names: dict[str, int] = {}
        ftype_parts: list[np.ndarray] = []
        for month in sorted(self.shards):
            shard = self.shards[month]
            for block_idx, batch in enumerate(
                    shard.iter_batches(planes=False)):
                if len(batch) == 0:
                    continue
                parts.append((month, block_idx, batch))
                local = np.zeros(max(len(batch.ftypes), 1), np.int64)
                for i, name in enumerate(batch.ftypes):
                    local[i] = names.setdefault(name, len(names))
                ftype_parts.append(local[batch.ftype_codes.astype(np.int64)])
        if not parts:
            self._index_ready = True
            return
        months = np.concatenate(
            [np.full(len(b), m, np.int64) for m, _, b in parts])
        blocks = np.concatenate(
            [np.full(len(b), i, np.int64) for _, i, b in parts])
        slots = np.concatenate(
            [np.arange(len(b), dtype=np.int64) for _, _, b in parts])
        times = np.concatenate(
            [b.scan_time.astype(np.int64) for _, _, b in parts])
        fresh = np.concatenate(
            [b.first_submission.astype(np.int64) >= 0 for _, _, b in parts])
        shas = np.concatenate([b.shas for _, _, b in parts])
        ftypes = np.concatenate(ftype_parts)
        n_total = len(shas)

        uniq, inv = np.unique(shas, return_inverse=True)
        n_uniq = len(uniq)
        first_pos = np.full(n_uniq, n_total, np.int64)
        np.minimum.at(first_pos, inv, np.arange(n_total, dtype=np.int64))
        order = np.argsort(inv, kind="stable")   # group rows, stream order
        bounds = np.zeros(n_uniq + 1, np.int64)
        np.cumsum(np.bincount(inv, minlength=n_uniq), out=bounds[1:])

        # Hexadecimal digests only once per *unique* sha; tobytes() pads
        # S32 elements back to their full width (indexing strips NULs).
        blob = uniq.tobytes()
        hexes = [blob[32 * i:32 * i + 32].hex() for i in range(n_uniq)]
        m_l = months[order].tolist()
        b_l = blocks[order].tolist()
        s_l = slots[order].tolist()
        t_l = times[order].tolist()
        bounds_l = bounds.tolist()
        fresh_first = fresh[first_pos].tolist()
        names_list = list(names)
        ftype_first = ftypes[first_pos].tolist()
        for u in np.argsort(first_pos, kind="stable").tolist():
            lo, hi = bounds_l[u], bounds_l[u + 1]
            sha = hexes[u]
            self._index[sha] = list(
                zip(m_l[lo:hi], b_l[lo:hi], s_l[lo:hi], t_l[lo:hi]))
            self._scan_index[sha] = set(t_l[lo:hi])
            self._sample_meta[sha] = (
                names_list[ftype_first[u]], fresh_first[u])
        self._index_ready = True
