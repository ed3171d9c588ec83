"""The report store substrate.

The paper cached the premium feed into MongoDB, storing sample metadata
and scan results separately and compressing aggressively (10.06× — §4.1).
This subpackage is that pipeline as an embedded library: a compact binary
record codec (:mod:`repro.store.codec`), monthly shards of zlib-compressed
record blocks (:mod:`repro.store.shard`), and :class:`ReportStore`
(:mod:`repro.store.reportstore`) which adds the per-sample index and the
Table 2 style accounting (:mod:`repro.store.stats`).  Blocks freeze in
the columnar RPR3 layout (:mod:`repro.store.columnar`), whose batches
back the numpy analysis kernels; :mod:`repro.store.merge` combines the
stores of parallel shards.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "columnar": ("ColumnarBatch", "SeriesFrame"),
    "codec": ("decode_report", "encode_report", "verbose_json_size"),
    "cache": ("BlockCache", "CacheStats"),
    "merge": ("FrozenMonth", "FrozenShard", "StreamingMerge"),
    "reportstore": ("ReportStore",),
    "shard": ("CompressedBlock", "MonthlyShard"),
    "stats": ("MonthStats", "StoreStats"),
})
