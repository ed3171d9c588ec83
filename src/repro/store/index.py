"""The persistent point-lookup index: sha256 → report addresses.

The store has always kept an in-memory per-sample index (the grouping
structure behind every per-sample analysis), but it was rebuilt on every
:meth:`~repro.store.reportstore.ReportStore.load` by decompressing *every
block* and peeking every record — fine for batch analyses that stream the
whole store anyway, hostile to a serving layer whose working set is a few
hot hashes.

This module makes the index a first-class persisted artefact:

* each index entry is ``(month, block, slot, scan_time)`` — the block
  address the store already used, plus the report's scan minute, so the
  *latest* report of a sample can be located without decoding anything;
* :func:`encode_index` / :func:`decode_index` round-trip the whole index
  (addresses, scan times, and the per-sample metadata the paper stores
  separately) through a compact zlib-compressed binary section that
  ``save()`` embeds in the store file right after the JSON header;
* ``load()`` therefore touches **zero** blocks, and a point lookup
  (:meth:`~repro.store.reportstore.ReportStore.latest_report`) decodes at
  most one — the property the ``repro.serve`` front-end and its QPS
  benchmark are built on.

Bulk ingest and the shard merge defer the in-memory index; the store
rebuilds it from metadata-only block decodes on first per-sample access.
``save()`` of a deferred index runs the same array pass
(:class:`IndexArrays`) and writes the section straight from it, so the
index stays deferred.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import CorruptRecordError

#: Magic prefix of an encoded (uncompressed) index section.
INDEX_MAGIC = b"RPRIDX01"

#: Schema number stored in the file header next to the section.
INDEX_FORMAT = 1

#: One index entry: (month, block, slot, scan_time).
IndexEntry = tuple[int, int, int, int]

#: Per-sample fixed header: sha256 (raw), file-type length, freshness
#: flag, entry count.
_SAMPLE_HEADER = struct.Struct("<32sHBI")

#: One packed entry: month, block, slot, scan_time (20 bytes).
_ENTRY = struct.Struct("<iIIq")
#: The same 20 bytes as a numpy record: :class:`IndexArrays` holds its
#: entries in this dtype, so the writer copies them out as they are.
ENTRY_DTYPE = np.dtype([("month", "<i4"), ("block", "<u4"),
                        ("slot", "<u4"), ("scan_time", "<i8")])

#: zlib level for the index section.  Entries are highly repetitive
#: (runs of near-identical addresses), so cheap compression wins big.
_ZLIB_LEVEL = 6


@dataclass(frozen=True)
class IndexArrays:
    """The per-sample index as flat arrays, samples in first-ingest order.

    Sample ``i``'s entries are ``entries[bounds[i]:bounds[i + 1]]``, in
    ingest order.
    """

    shas: np.ndarray         #: S32 [samples] — raw digests
    ftype_names: list[str]
    ftype_codes: np.ndarray  #: int64 [samples] — into ``ftype_names``
    fresh: np.ndarray        #: bool [samples]
    bounds: np.ndarray       #: int64 [samples + 1]
    entries: np.ndarray      #: ``ENTRY_DTYPE`` [entries]

    @classmethod
    def from_index(
        cls,
        index: dict[str, list[IndexEntry]],
        sample_meta: dict[str, tuple[str, bool]],
    ) -> "IndexArrays":
        """Flatten a dict index, keeping its insertion order."""
        names: dict[str, int] = {}
        codes = [names.setdefault(sample_meta[sha][0], len(names))
                 for sha in index]
        counts = np.array([len(entries) for entries in index.values()],
                          np.int64)
        bounds = np.zeros(len(index) + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        return cls(
            shas=np.array([bytes.fromhex(sha) for sha in index], "S32"),
            ftype_names=list(names),
            ftype_codes=np.array(codes, np.int64),
            fresh=np.array([sample_meta[sha][1] for sha in index], bool),
            bounds=bounds,
            entries=np.fromiter(chain.from_iterable(index.values()),
                                ENTRY_DTYPE, count=int(bounds[-1])),
        )


def encode_index_arrays(arrays: IndexArrays) -> bytes:
    """Pack the per-sample index into one compressed binary section.

    Samples are written in first-ingest order, which :func:`decode_index`
    preserves, so a loaded store's
    :meth:`~repro.store.reportstore.ReportStore.samples` iteration order
    matches the store that saved it.  Each sample is a fixed header
    (``_SAMPLE_HEADER``), its file type in UTF-8, then its entries
    (``_ENTRY`` each), copied in one piece from the record array.
    """
    names = [name.encode("utf-8") for name in arrays.ftype_names]
    bounds = arrays.bounds.tolist()
    entries = arrays.entries
    parts = [INDEX_MAGIC, struct.pack("<I", len(arrays.shas))]
    # ``tolist()`` strips a digest's trailing NUL bytes; "32s" pads them
    # back.
    for i, (sha, code, fresh) in enumerate(zip(
            arrays.shas.tolist(), arrays.ftype_codes.tolist(),
            arrays.fresh.tolist(), strict=True)):
        lo, hi = bounds[i], bounds[i + 1]
        name = names[code]
        parts.append(_SAMPLE_HEADER.pack(sha, len(name), fresh, hi - lo))
        parts.append(name)
        parts.append(entries[lo:hi].tobytes())
    return zlib.compress(b"".join(parts), _ZLIB_LEVEL)


def encode_index(
    index: dict[str, list[IndexEntry]],
    sample_meta: dict[str, tuple[str, bool]],
) -> bytes:
    """:func:`encode_index_arrays` of a dict index, in its insertion
    order (first-ingest order)."""
    return encode_index_arrays(IndexArrays.from_index(index, sample_meta))


def decode_index(
    payload: bytes,
) -> tuple[dict[str, list[IndexEntry]], dict[str, tuple[str, bool]]]:
    """Unpack a section written by :func:`encode_index`.

    Returns ``(index, sample_meta)`` with samples in the order they were
    encoded.  Raises :class:`~repro.errors.CorruptRecordError` on any
    structural damage — a truncated or bit-flipped index must never load
    as a silently smaller one.
    """
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise CorruptRecordError(f"undecodable store index: {exc}") from exc
    if raw[:len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise CorruptRecordError("bad store index magic")
    offset = len(INDEX_MAGIC)
    try:
        (n_samples,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        index: dict[str, list[IndexEntry]] = {}
        meta: dict[str, tuple[str, bool]] = {}
        for _ in range(n_samples):
            sha_raw, ftype_len, fresh, n_entries = _SAMPLE_HEADER.unpack_from(
                raw, offset)
            offset += _SAMPLE_HEADER.size
            ftype = raw[offset:offset + ftype_len].decode("utf-8")
            if len(ftype.encode("utf-8")) != ftype_len:
                raise CorruptRecordError("truncated store index")
            offset += ftype_len
            entries: list[IndexEntry] = []
            for _ in range(n_entries):
                entries.append(_ENTRY.unpack_from(raw, offset))
                offset += _ENTRY.size
            sha = sha_raw.hex()
            index[sha] = entries
            meta[sha] = (ftype, fresh == 1)
    except struct.error as exc:
        raise CorruptRecordError(f"truncated store index: {exc}") from exc
    if offset != len(raw):
        raise CorruptRecordError(
            f"store index has {len(raw) - offset} trailing bytes")
    return index, meta


def sample_ranks(index: dict[str, list[IndexEntry]]) -> dict[str, int]:
    """``sha256 → first-ingest rank`` for every indexed sample.

    The mapping's insertion order *is* first-ingest order (and survives
    a save/load round trip — :func:`encode_index` writes samples in that
    order).  The columnar series kernels use these ranks to reproduce
    the row path's sample ordering bit-for-bit.
    """
    return {sha: rank for rank, sha in enumerate(index)}


def latest_entry(entries: list[IndexEntry]) -> IndexEntry:
    """The entry of a sample's *latest* report.

    Latest means maximal scan time; among duplicates of the same minute
    (possible via plain :meth:`~repro.store.reportstore.ReportStore.ingest`,
    never via ``ingest_unique``) the one ingested last wins — the same
    report a time-sorted :meth:`report_series` ends with, since the sort
    is stable over ingest order.
    """
    best = entries[0]
    for entry in entries[1:]:
        if entry[3] >= best[3]:
            best = entry
    return best
