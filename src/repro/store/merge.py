"""Shard merge: combine K frozen shard stores into one, in key order.

The parallel scenario engine (:mod:`repro.parallel`) runs each sample
shard's generate→scan→ingest loop in its own process, producing K frozen
:class:`~repro.store.reportstore.ReportStore` equivalents.  This module
owns the merge: interleave every shard's per-month records into a single
store whose record order — and therefore canonical
:meth:`~repro.store.reportstore.ReportStore.digest` — is byte-identical
to the serial run's.

Each source month arrives as compressed columnar blocks plus one merge
key per record (the parallel runner ships the record's global sample
index).  Rows merge by ``(scan_time, key)``: :meth:`StreamingMerge.
finish` decodes a month's blocks from every shard into one
:class:`~repro.store.columnar.ColumnarBatch`, orders its rows with one
``lexsort``, and appends them as fresh blocks of ``block_records``
records — exactly the blocks serial ingest of the same record sequence
freezes, so the merged file matches the serial one byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.obs.timing import traced
from repro.store.columnar import ColumnarBatch
from repro.store.reportstore import ReportStore
from repro.store.shard import DEFAULT_BLOCK_RECORDS, CompressedBlock


@dataclass
class FrozenMonth:
    """One source shard's records for one month, ready to merge.

    ``keys`` holds one int64 merge key per record, in block order.  A
    record's full merge key is ``(scan_time, key)``, which must be
    unique across all sources being merged (the parallel runner uses
    the global sample index: a sample never scans twice in a minute).
    """

    blocks: list[CompressedBlock]
    report_count: int
    keys: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = sum(b.record_count for b in self.blocks)
        if not len(self.keys) == n == self.report_count:
            raise ConfigError(
                f"frozen month metadata mismatch: {len(self.keys)} keys "
                f"for {n} block records ({self.report_count} counted)"
            )

    def decode(self) -> list[ColumnarBatch]:
        """Every block as a batch (each checked against its record count,
        which ``__post_init__`` matched to the keys)."""
        return [block.batch() for block in self.blocks]


@dataclass
class FrozenShard:
    """One source shard: its months, as the merge accepts them."""

    months: dict[int, FrozenMonth]


class StreamingMerge:
    """Merge frozen shards handed over in any completion order.

    The elastic scheduler hands over shards in *completion* order, which
    under chaos bears no relation to shard order.  :meth:`add` only
    queues each shard; :meth:`finish` merges them in one pass, one month
    at a time, releasing a month's arrays before decoding the next.  The
    result does not depend on the order of ``add`` calls: merge keys are
    unique, so the ``lexsort`` leaves no ties for arrival order to break.

    The merge appends through :meth:`~repro.store.shard.MonthlyShard.
    extend_batch`, not :meth:`~repro.store.reportstore.ReportStore.
    ingest_arrays`: every record was already counted by the worker that
    ingested it, so the merged store records no ingest metrics again.
    Its per-sample index is derived from the merged records on first
    use, as after ``ingest_arrays``.
    """

    def __init__(self, block_records: int = DEFAULT_BLOCK_RECORDS,
                 metrics=None) -> None:
        self._block_records = block_records
        self._metrics = metrics
        self._shards: list[FrozenShard] = []

    def add(self, shard: FrozenShard) -> None:
        """Queue one completed shard."""
        self._shards.append(shard)

    @traced("store.merge.seconds")
    def finish(self) -> ReportStore:
        """Merge every queued shard into one sealed store."""
        store = ReportStore(block_records=self._block_records,
                            metrics=self._metrics)
        shards, self._shards = self._shards, []
        for month in sorted({m for shard in shards for m in shard.months}):
            _merge_month(store, month, [shard.months[month]
                                        for shard in shards
                                        if month in shard.months])
        store.close()
        return store


def _merge_month(store: ReportStore, month: int,
                 sources: list[FrozenMonth]) -> None:
    """Append one month of every source to ``store``, in key order."""
    batches = [batch for source in sources for batch in source.decode()]
    merged = ColumnarBatch.concat(batches)
    del batches  # the decoded blocks, before the sort copies the month again
    if len(merged):
        keys = np.concatenate([source.keys for source in sources])
        merged = merged.take(np.lexsort((keys, merged.scan_time)))
        store._shard(month).extend_batch(merged)
