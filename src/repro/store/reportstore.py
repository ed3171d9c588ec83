"""The report store: the paper's MongoDB pipeline as an embedded library.

:class:`ReportStore` ingests scan reports (typically straight from the
premium feed), shards them by collection-window month, compresses them in
blocks, and keeps one array index (:class:`~repro.store.index.SampleIndex`)
of what the paper's pipeline also kept:

* the block addresses of each sample's reports — the grouping step
  behind every per-sample analysis;
* **sample metadata** (file type, freshness) stored once per sample rather
  than per report — the "stored separately to reduce data redundancy"
  optimisation from §4.1.

The store can persist itself to a single file and reload it.  The one
on-disk format, v3, is self-describing: a JSON header, the per-sample
index — addresses *and* scan times (:mod:`repro.store.index`) — and then
length-prefixed zlib-compressed columnar blocks, month by month.
Loading touches no blocks, and a point lookup (:meth:`latest_report` /
:meth:`report_series`) decodes at most the blocks actually holding the
sample's reports.  The saved bytes are a pure function of the store's
content: no read counter or other instrumentation state is written.

Every read decodes a block one way, to a
:class:`~repro.store.columnar.ColumnarBatch` (:meth:`_batch` for one
block, :meth:`iter_batches` for a pass): reports come from
``batch.report(slot)`` and the digest's record bytes from
``batch.to_records()``.  Retrieval is **write-aware and memory-bounded**:
the decoded-block LRU (:mod:`repro.store.cache`) holds one batch per
frozen block and admits nothing else — reads that land in a shard's open
buffer parse it live and are never cached, so interleaved ingest and
query (the live-feed scenario of §4.1) can never observe a stale
snapshot — and :meth:`iter_sample_reports` streams the store block by
block instead of materialising every report at once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap as _mmap
import os
import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import (
    BlockAddressError,
    CorruptRecordError,
    ShardClosedError,
    StoreError,
)
from repro.obs.registry import NULL_REGISTRY
from repro.obs.timing import traced
from repro.store import codec, columnar
from repro.store.cache import DEFAULT_CACHE_BYTES, BlockCache, CacheStats
from repro.store.columnar import ColumnarBatch, SeriesFrame
from repro.store.index import ENTRY_DTYPE, INDEX_FORMAT, SampleIndex
from repro.store.shard import DEFAULT_BLOCK_RECORDS, CompressedBlock, MonthlyShard
from repro.store.stats import StoreStats, compute_store_stats
from repro.vt.clock import month_index, month_label
from repro.vt.reports import ScanReport

_FILE_MAGIC = b"RPRSTORE"
#: The on-disk format :meth:`ReportStore.save` writes and
#: :meth:`ReportStore.load` reads: columnar blocks plus the index
#: section.  (v1 and v2, the retired row-block formats, are rejected.)
_FILE_VERSION = 3


def replace_durably(temp: Path, path: Path) -> None:
    """Rename the fsynced file ``temp`` over ``path``, then fsync their
    directory, so that the rename itself survives a power loss."""
    os.replace(temp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _MappedReader:
    """Sequential zero-copy reader over a memory-mapped store file.

    ``read`` returns :class:`memoryview` slices into the mapping, so
    block payloads loaded through it occupy no private memory — the page
    cache backs them.  Callers that need real bytes (struct/JSON
    decoding of the small header fields) wrap the view in ``bytes(...)``.
    The reader itself holds no view, so once the views it returned are
    dropped the mapping can close, even if a traceback still holds the
    reader.
    """

    def __init__(self, mapping: "_mmap.mmap") -> None:
        self._mapping = mapping
        self._pos = 0

    def read(self, size: int) -> memoryview:
        stop = self._pos + size
        view = memoryview(self._mapping)[self._pos:stop]
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
    ) -> None:
        self.block_records = block_records
        #: Keeps a memory-mapped file (and its buffer) alive for stores
        #: loaded with ``mmap=True``; block payloads are views into it.
        self._mmap = None
        self.shards: dict[int, MonthlyShard] = {}
        #: ``None`` until first use, and again after a bulk
        #: :meth:`ingest_arrays`: derived from the shards when next read.
        self._index: SampleIndex | None = None
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
        index = self._derived_index()
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
        self._cache.invalidate((month, block))
        index.add(report.sha256, month, block, slot, report.scan_time,
                  report.file_type, report.first_submission_date >= 0)

    def has_report(self, sha256: str, scan_time: int) -> bool:
        """Whether a report for ``(sha256, scan_time)`` is already stored.

        The idempotency hook: a scan is identified by its sample and
        minute (one analysis per sample per minute), so replayed feed
        batches, duplicated deliveries and backfill overlap can all be
        recognised without decoding any block: the sample's own index
        entries carry their scan minutes.  The index's tail is not folded,
        so a collector's dedupe stays linear in the reports.
        """
        return self._derived_index().has(sha256, scan_time)

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

        The per-sample index is dropped, not updated record by record:
        the next read derives it from the shards in one pass.
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
            self._cache.invalidate((month, len(shard.blocks)))
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
        self._index = None
        return n

    def flush(self) -> None:
        """Freeze every shard's open buffer into a compressed block.

        Useful on a live store to bound the raw-buffer footprint between
        ingest bursts; block addresses are unaffected (a buffer freezes
        into exactly the block index its records were assigned).
        """
        for shard in self.shards.values():
            self._cache.invalidate((shard.month, len(shard.blocks)))
            shard.flush()

    def close(self) -> None:
        """Flush and seal every shard; further ingests raise."""
        for shard in self.shards.values():
            self._cache.invalidate((shard.month, len(shard.blocks)))
            shard.close()
        self.closed = True

    def _shard(self, month: int) -> MonthlyShard:
        shard = self.shards.get(month)
        if shard is None:
            shard = MonthlyShard(month, block_records=self.block_records)
            self.shards[month] = shard
        return shard

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def report_count(self) -> int:
        return sum(s.report_count for s in self.shards.values())

    @property
    def sample_count(self) -> int:
        return len(self._folded_index().position)

    @property
    def fresh_sample_count(self) -> int:
        return int(np.count_nonzero(self._folded_index().fresh))

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
            for batch in shard.iter_batches():
                for record in batch.to_records():
                    h.update(struct.pack("<I", len(record)))
                    h.update(record)
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def __contains__(self, sha256: str) -> bool:
        return sha256 in self._folded_index().position

    def samples(self) -> Iterator[str]:
        """All sample hashes, in first-ingest order."""
        return iter(self._folded_index().position)

    def sample_file_type(self, sha256: str) -> str:
        index = self._folded_index()
        return index.ftype_names[index.ftype_codes.item(index.rank(sha256))]

    def sample_is_fresh(self, sha256: str) -> bool:
        index = self._folded_index()
        return index.fresh.item(index.rank(sha256))

    def report_count_of(self, sha256: str) -> int:
        return len(self._folded_index().entries_of(sha256))

    def report_series(self, sha256: str) -> list[ScanReport]:
        """All reports of one sample, sorted by scan time.

        The point-lookup path: only the blocks actually holding the
        sample's reports are decoded, each exactly once per call (and at
        most once across calls while cached) — never the whole store.
        Safe to interleave with :meth:`ingest`: reports still in an open
        buffer are read live, and frozen-block cache entries can never go
        stale (frozen blocks are immutable).
        """
        entries = self._folded_index().entries_of(sha256)
        # Block by block; lexsort is stable, so ingest order within each.
        entries = entries[np.lexsort((entries["block"], entries["month"]))]
        reports = []
        at = batch = None
        for month, block, slot in zip(entries["month"].tolist(),
                                      entries["block"].tolist(),
                                      entries["slot"].tolist(), strict=True):
            if at != (month, block):
                at, batch = (month, block), self._batch(month, block)
            reports.append(batch.report(slot))
        reports.sort(key=lambda r: r.scan_time)
        return reports

    def _batch(self, month: int, block_idx: int) -> ColumnarBatch:
        """Decoded columnar batch of one block, write-aware.

        Frozen blocks are immutable, so their batches are cached in the
        bytes-bounded LRU under ``(month, block)``.  The index
        ``len(shard.blocks)`` addresses the *open* buffer of a live
        shard: that read parses the buffer's records as they are now and
        is never cached — caching it was the stale-read bug this layer
        exists to prevent.  Any later index raises
        :class:`~repro.errors.BlockAddressError`.
        """
        shard = self.shards[month]
        if block_idx >= len(shard.blocks):
            if block_idx > len(shard.blocks):
                raise BlockAddressError(
                    f"no block {block_idx} in month {month}")
            self._open_reads += 1
            self._m_open_reads.inc()
            return ColumnarBatch.from_records(shard.buffered_records())
        key = (month, block_idx)
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
        the final element of :meth:`report_series`.  The block decodes
        straight to arrays and only the hit slot is materialised.
        """
        entries = self._folded_index().entries_of(sha256)
        # The last maximum: argmax finds the first one of the reversal.
        latest = len(entries) - 1 - int(np.argmax(entries["scan_time"][::-1]))
        month, block, slot, _ = entries[latest].item()
        return self._batch(month, block).report(slot)

    def iter_reports(self) -> Iterator[ScanReport]:
        """All reports, month by month in ingest order."""
        for batch in self.iter_batches():
            for slot in range(len(batch)):
                yield batch.report(slot)

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
        # Last (month, block) each sample appears in → who completes
        # where, as one sortable int64: ``month << 32 | block``.
        index = self._folded_index()
        completions: dict[int, list[str]] = {}
        if len(index.entries):
            at = (index.entries["month"].astype(np.int64) << 32
                  | index.entries["block"])
            last = np.maximum.reduceat(at, index.bounds[:-1])
            for sha256, key in zip(index.position, last.tolist(),
                                   strict=True):
                completions.setdefault(key, []).append(sha256)

        pending: dict[str, list[ScanReport]] = {}
        resident = 0
        for month in sorted(self.shards):
            for block_idx, batch in enumerate(
                    self.shards[month].iter_batches()):
                self._blocks_decoded += 1
                self._m_decoded.inc()
                for slot in range(len(batch)):
                    report = batch.report(slot)
                    pending.setdefault(report.sha256, []).append(report)
                resident += len(batch)
                self._peak_stream_reports = max(
                    self._peak_stream_reports, resident
                )
                for sha256 in completions.pop(month << 32 | block_idx, ()):
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
        bulk-parsed last (:meth:`MonthlyShard.iter_batches`).
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
        if self._index is None:
            # A derived index would rank samples by first occurrence in
            # exactly the stream order from_batches sees, so it is not
            # derived.
            return SeriesFrame.from_batches(self.iter_batches())
        return SeriesFrame.from_batches(self.iter_batches(),
                                        self._folded_index().position)

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
    def save(self, path: str | Path) -> None:
        """Write the store to a single self-describing v3 file.

        Non-mutating: saving a live (unclosed) store is a pure snapshot.
        Records still in a shard's open buffer are compressed into a tail
        block *in the file only* — the in-memory shard keeps its buffer,
        block layout and addresses untouched, and ingest can continue
        afterwards.  (An earlier revision flushed each shard mid-save,
        silently changing the block layout of a live store.)

        The write is atomic and durable: the bytes go to a temporary
        file beside ``path``, are flushed to disk, and then replace
        ``path`` in one rename, which is flushed too
        (:func:`replace_durably`).  A failed save leaves the previous
        file untouched, and saving over the file a store was
        memory-mapped from (``load(..., use_mmap=True)``) is safe — the
        live mapping keeps the old file.
        """
        path = Path(path)
        index = self._folded_index()
        index_payload = index.encode()
        header = {
            "version": _FILE_VERSION,
            "block_records": self.block_records,
            "months": sorted(self.shards),
            "index": {
                "format": INDEX_FORMAT,
                "samples": len(index.position),
                "bytes": len(index_payload),
            },
        }
        header_bytes = json.dumps(header).encode("utf-8")
        # One temp name per process, beside the destination so the
        # rename stays on one filesystem.
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            try:
                with temp.open("wb") as fh:
                    fh.write(_FILE_MAGIC)
                    fh.write(struct.pack("<I", len(header_bytes)))
                    fh.write(header_bytes)
                    fh.write(index_payload)
                    for month in sorted(self.shards):
                        self._write_month(fh, self.shards[month])
                    fh.flush()
                    os.fsync(fh.fileno())
                replace_durably(temp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    temp.unlink()
                raise
        except OSError as exc:
            raise StoreError(
                f"cannot write store {path}: {exc.strerror or exc}") from exc

    @staticmethod
    def _write_month(fh, shard: MonthlyShard) -> None:
        """One month's section: accounting, then every block."""
        blocks = list(shard.blocks)
        buffered = shard.buffered_records()
        if buffered:
            blocks.append(CompressedBlock.from_records(buffered))
        fh.write(struct.pack("<iIqqq", shard.month, len(blocks),
                             shard.report_count, shard.verbose_bytes,
                             shard.encoded_bytes))
        for block in blocks:
            fh.write(struct.pack("<IIq", len(block.payload),
                                 block.record_count, block.raw_bytes))
            fh.write(block.payload)

    @classmethod
    @traced("store.load.seconds")
    def load(cls, path: str | Path, *, reopen: bool = False,
             metrics=None, use_mmap: bool = False) -> "ReportStore":
        """Reload a store written by :meth:`save`.

        The file carries its point-lookup index inline, so loading
        decodes no blocks at all.  Any version other than v3 raises
        :class:`~repro.errors.CorruptRecordError` naming it.  A loaded
        store's retrieval counters start at zero: files written before
        saves stopped carrying them still load, and the key is ignored.

        With ``use_mmap=True`` the file is memory-mapped and every block
        payload is a zero-copy view into the mapping: nothing but the
        header and index is read eagerly, and the page cache backs all
        block bytes, so a block costs no private memory until a lookup
        decodes it.  The one caller is ``repro-vt serve --mmap``: serve
        processes on one file share its pages instead of each reading a
        copy.  The mapping lives as long as the store does.

        By default the loaded store is sealed (analysis use).  With
        ``reopen=True`` the shards stay writable so ingest can continue —
        the crash/resume path of the resilient collector.  Reopened
        appends land in fresh blocks after the loaded ones; existing
        addresses are unaffected.

        Damage raises :class:`~repro.errors.CorruptRecordError`, and a
        mapping is closed first.  Without decoding a block, ``load``
        checks the structure: the header's shape and version, its
        ``block_records`` (an int of at least 1), the index section
        (zlib-checked, parsed, and its sample count against the
        header's), each month section's month against the header's list,
        each month's ``report_count`` against its blocks' record counts,
        and each index entry's address against the blocks, one entry per
        stored report (:meth:`~repro.store.index.SampleIndex.
        check_addresses`).  A block's payload is checked when it is
        decoded (zlib's checksum, the columnar layout, and its row count
        against the block header), so ``digest()`` checks them all.
        Three fields load as they are, because no check can see them
        without decoding every block: a month's ``verbose_bytes`` and
        ``encoded_bytes`` (Table 2 accounting) and a block's
        ``raw_bytes``.  None of them enters the digest.
        """
        path = Path(path)
        try:
            fh = path.open("rb")
        except OSError as exc:
            raise StoreError(
                f"cannot read store {path}: {exc.strerror or exc}") from exc
        with fh:
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
                if header["version"] != _FILE_VERSION:
                    raise CorruptRecordError(
                        f"unsupported store version {header['version']}"
                    )
                block_records = header["block_records"]
                if type(block_records) is not int or block_records < 1:
                    raise CorruptRecordError(
                        f"store header's block_records is "
                        f"{block_records!r}, not a positive int")
                store = cls(block_records=block_records, metrics=metrics)
                store._mmap = mapping
                index_info = header["index"]
                if index_info["format"] != INDEX_FORMAT:
                    raise CorruptRecordError(
                        f"unsupported store index format "
                        f"{index_info['format']}")
                index_payload = reader.read(index_info["bytes"])
                if len(index_payload) != index_info["bytes"]:
                    raise CorruptRecordError("truncated store index")
                for listed in header["months"]:
                    month, n_blocks, report_count, verbose, encoded = \
                        struct.unpack("<iIqqq", bytes(
                            reader.read(struct.calcsize("<iIqqq"))))
                    if month != listed:
                        raise CorruptRecordError(
                            f"month section {month} where the header "
                            f"lists month {listed}")
                    shard = MonthlyShard(month,
                                         block_records=store.block_records)
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
                    blocked = sum(b.record_count for b in shard.blocks)
                    if report_count != blocked:
                        raise CorruptRecordError(
                            f"month {month} counts {report_count} reports "
                            f"but its blocks hold {blocked}")
                    shard.report_count = report_count
                    shard.verbose_bytes = verbose
                    shard.encoded_bytes = encoded
                    shard.closed = not reopen
                    store.shards[month] = shard
                # A copy: a view into the mapping, held by a traceback
                # from decode, would keep the mapping from closing.
                index = SampleIndex.decode(bytes(index_payload))
                if len(index.position) != index_info["samples"]:
                    raise CorruptRecordError(
                        f"store index holds {len(index.position)} samples, "
                        f"the header says {index_info['samples']}")
                index.check_addresses({
                    month: [block.record_count for block in shard.blocks]
                    for month, shard in store.shards.items()})
                store._index = index
            except (StoreError, struct.error, ValueError, KeyError,
                    TypeError, OverflowError, RecursionError) as exc:
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

    def _derived_index(self) -> SampleIndex:
        """The per-sample index, derived from the shards first if there
        is none."""
        if self._index is None:
            self._index = self._index_from_shards()
        return self._index

    def _folded_index(self) -> SampleIndex:
        """The per-sample index with its tail folded in."""
        index = self._derived_index()
        index.fold()
        return index

    def _index_from_shards(self) -> SampleIndex:
        """The per-sample index of the records themselves, from one
        vectorised pass over metadata-only batches, open buffers
        included: what per-report :meth:`ingest` of the same record
        stream builds."""
        parts = [(month, block_idx, batch) for month in sorted(self.shards)
                 for block_idx, batch in enumerate(
                     self.shards[month].iter_batches(planes=False))]
        if not parts:
            return SampleIndex.empty()
        sizes = [len(batch) for _, _, batch in parts]
        entries = np.empty(sum(sizes), ENTRY_DTYPE)
        entries["month"] = np.repeat([month for month, _, _ in parts], sizes)
        entries["block"] = np.repeat([block for _, block, _ in parts], sizes)
        entries["slot"] = np.arange(len(entries)) - np.repeat(
            np.cumsum(sizes) - sizes, sizes)
        entries["scan_time"] = np.concatenate(
            [batch.scan_time for _, _, batch in parts])
        names: dict[str, int] = {}
        ftype_codes = np.concatenate([
            np.array([names.setdefault(name, len(names))
                      for name in batch.ftypes], np.int64)[
                batch.ftype_codes.astype(np.int64)]
            for _, _, batch in parts])
        return SampleIndex.from_stream(
            np.concatenate([batch.shas for _, _, batch in parts]),
            entries, list(names), ftype_codes,
            np.concatenate([batch.first_submission.astype(np.int64) >= 0
                            for _, _, batch in parts]))
