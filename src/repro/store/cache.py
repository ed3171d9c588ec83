"""Write-aware, bytes-bounded caching for decoded report blocks.

The store's random-access path decompresses one block per index probe;
re-decompressing a hot block on every :meth:`ReportStore.report_series`
call would dominate lookup cost, so decoded blocks are kept in a small
LRU, one :class:`~repro.store.columnar.ColumnarBatch` per
``(month, block)``.  Two properties distinguish this cache from a generic
memoiser:

* **Write awareness.**  Only *frozen* blocks are cacheable.  A frozen
  :class:`~repro.store.shard.CompressedBlock` is immutable — its records
  never change for a given ``(month, block)`` key — so a cached entry can
  never go stale.  The *open* (unsealed) buffer of a live shard must
  never enter the cache: its contents grow with every ingest and it
  eventually freezes into a real block under the same key.  The store
  enforces this by routing open-block reads around the cache entirely;
  the cache additionally provides :meth:`invalidate` / :meth:`clear`
  hooks so mutation paths can drop entries explicitly.

* **Bytes bounding.**  Eviction is by resident *decoded bytes* (each
  batch's ``nbytes``), not entry count.  Blocks vary widely in decoded
  size (a 1-record tail block vs. a 256-record run), so an entry-count
  cap gives no memory guarantee; a byte cap does.

Counters (hits, misses, evictions, invalidations, resident bytes) feed
the store-level instrumentation in :class:`~repro.store.stats.StoreStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.store.columnar import ColumnarBatch

#: Default cap on resident decoded block bytes (~32 MiB covers hundreds
#: of decoded 256-record blocks).
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024

#: ``(month, block)``: one entry per frozen block.
BlockKey = tuple[int, int]


@dataclass(frozen=True)
class CacheStats:
    """Retrieval-layer instrumentation snapshot.

    ``hits``/``misses``/``evictions``/``invalidations`` count cache
    events; ``blocks_decoded`` counts actual decompressions (cache
    misses plus sequential-pass decodes); ``open_reads`` counts reads
    served live from an unsealed buffer (never cached);
    ``bytes_resident``/``entries`` describe current occupancy and
    ``peak_stream_reports`` is the high-water mark of reports held
    resident by a streaming :meth:`ReportStore.iter_sample_reports`
    pass.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    blocks_decoded: int = 0
    open_reads: int = 0
    bytes_resident: int = 0
    bytes_limit: int = DEFAULT_CACHE_BYTES
    entries: int = 0
    peak_stream_reports: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 on a cold cache)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class BlockCache:
    """Bytes-bounded LRU over decoded blocks."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[BlockKey, ColumnarBatch] = OrderedDict()
        self._costs: dict[BlockKey, int] = {}
        self._resident = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: BlockKey) -> ColumnarBatch | None:
        """The cached decode for ``key``, refreshing recency; None on miss."""
        batch = self._entries.get(key)
        if batch is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return batch

    def put(self, key: BlockKey, batch: ColumnarBatch) -> None:
        """Insert a decoded block, evicting LRU entries past the byte cap.

        Blocks larger than the whole cache are not admitted (caching one
        entry only to evict it on the next insert is pure churn).
        """
        if key in self._entries:
            self._drop(key)
        cost = batch.nbytes
        if cost > self.max_bytes:
            return
        self._entries[key] = batch
        self._costs[key] = cost
        self._resident += cost
        while self._resident > self.max_bytes and self._entries:
            oldest, _ = self._entries.popitem(last=False)
            self._resident -= self._costs.pop(oldest)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _drop(self, key: BlockKey) -> None:
        del self._entries[key]
        self._resident -= self._costs.pop(key)

    def invalidate(self, key: BlockKey) -> bool:
        """Drop one entry; returns whether it was present."""
        if key not in self._entries:
            return False
        self._drop(key)
        self.invalidations += 1
        return True

    def clear(self) -> None:
        """Drop everything (counters survive)."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._costs.clear()
        self._resident = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._entries

    @property
    def bytes_resident(self) -> int:
        return self._resident

    @property
    def lookups(self) -> int:
        """Total :meth:`get` probes (hits + misses) over the cache's life.

        Cumulative like the event counters: :meth:`clear` drops residency
        but never rewinds these, so a long-lived serving process reports
        its true lifetime traffic after cache flushes.
        """
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Hits over lifetime lookups; 0.0 on a never-probed cache.

        Guarded against zero lookups so gauges published off an idle or
        freshly-constructed cache can never divide by zero.
        """
        lookups = self.lookups
        if not lookups:
            return 0.0
        return self.hits / lookups
