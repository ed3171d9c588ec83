"""The per-sample index: sha256 → report addresses, as arrays.

:class:`SampleIndex` is the store's one in-memory index, from ``load()``
to ``save()``.  Per sample, in first-ingest order, it keeps the
metadata the paper stores apart from scan results (§4.1) — file type
and freshness — and the bounds of the sample's entries, one
``(month, block, slot, scan_time)`` record per report, so a point lookup
decodes only the blocks holding the sample's reports and the *latest*
report is found without decoding anything.  Per-report ingest appends to
a tail that :meth:`SampleIndex.fold` groups in; the derivation from a
store's records (:meth:`SampleIndex.from_stream`) shares its stable
group-by-sample step.  ``save()`` embeds :meth:`SampleIndex.encode`'s
zlib-compressed section right after the file header, so ``load()``
touches **zero** blocks.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import CorruptRecordError, UnknownSampleError

#: Magic prefix of an encoded (uncompressed) index section.
INDEX_MAGIC = b"RPRIDX01"

#: Schema number stored in the file header next to the section.
INDEX_FORMAT = 1

#: Per-sample fixed header: sha256 (raw), file-type length, freshness
#: flag, entry count.
_SAMPLE_HEADER = struct.Struct("<32sHBI")

#: One packed entry: month, block, slot, scan_time (20 bytes), and the
#: same bytes as a numpy record.
_ENTRY = struct.Struct("<iIIq")
ENTRY_DTYPE = np.dtype([("month", "<i4"), ("block", "<u4"),
                        ("slot", "<u4"), ("scan_time", "<i8")])

#: zlib level for the index section.  Entries are highly repetitive
#: (runs of near-identical addresses), so cheap compression wins big.
_ZLIB_LEVEL = 6


def _grouped(sample_of: np.ndarray, n_samples: int,
             entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(bounds, entries grouped by sample)`` for entries in stream
    order; the stable sort keeps each sample's entries in that order."""
    bounds = np.zeros(n_samples + 1, np.int64)
    np.cumsum(np.bincount(sample_of, minlength=n_samples), out=bounds[1:])
    return bounds, entries[np.argsort(sample_of, kind="stable")]


@dataclass(eq=False)
class SampleIndex:
    """The per-sample index, samples in first-ingest order.

    Sample ``i``'s entries are ``entries[bounds[i]:bounds[i + 1]]``, in
    ingest order, and ``position`` maps its hex digest to ``i``.
    """

    position: dict[str, int]
    ftype_names: list[str]
    ftype_codes: np.ndarray  #: int64 [samples] — into ``ftype_names``
    fresh: np.ndarray        #: bool [samples]
    bounds: np.ndarray       #: int64 [samples + 1]
    entries: np.ndarray      #: ``ENTRY_DTYPE`` [entries]

    def __post_init__(self) -> None:
        self._start_tail()

    def _start_tail(self) -> None:
        """Empty the tail: in stream order, its digests and packed
        entries, the file type and freshness of each sample it adds, and
        its ``(sha256, scan_time)`` keys."""
        self._tail_shas: list[str] = []
        self._tail_entries = bytearray()
        self._tail_new: dict[str, tuple[str, bool]] = {}
        self._tail_keys: set[tuple[str, int]] = set()

    @classmethod
    def empty(cls) -> "SampleIndex":
        return cls({}, [], np.zeros(0, np.int64), np.zeros(0, bool),
                   np.zeros(1, np.int64), np.zeros(0, ENTRY_DTYPE))

    @classmethod
    def from_stream(cls, shas: np.ndarray, entries: np.ndarray,
                    ftype_names: list[str], ftype_codes: np.ndarray,
                    fresh: np.ndarray) -> "SampleIndex":
        """Group per-record arrays, in stream order, by sample.

        ``shas`` holds raw ``S32`` digests.  Samples are numbered by
        first occurrence and take their metadata from it: the index that
        per-report ingest of the same stream builds.
        """
        uniq, first, inverse = np.unique(shas, return_index=True,
                                         return_inverse=True)
        by_first = np.argsort(first)
        bounds, grouped = _grouped(np.argsort(by_first)[inverse], len(uniq),
                                   entries)
        # tobytes() pads every digest back to 32 bytes (an S32 element
        # strips trailing NULs).
        blob = uniq[by_first].tobytes()
        first = first[by_first]
        return cls(position={blob[32 * i:32 * i + 32].hex(): i
                             for i in range(len(uniq))},
                   ftype_names=ftype_names, ftype_codes=ftype_codes[first],
                   fresh=fresh[first], bounds=bounds, entries=grouped)

    def add(self, sha256: str, month: int, block: int, slot: int,
            scan_time: int, file_type: str, fresh: bool) -> None:
        """Append one report's entry to the tail."""
        self._tail_shas.append(sha256)
        self._tail_entries += _ENTRY.pack(month, block, slot, scan_time)
        self._tail_keys.add((sha256, scan_time))
        if sha256 not in self.position:
            self._tail_new.setdefault(sha256, (file_type, fresh))

    def fold(self) -> None:
        """Group the tail into the arrays.

        Each sample's tail entries follow its folded ones, in stream
        order, and samples new to the index take the next positions in
        the order they first appear.
        """
        if not self._tail_shas:
            return
        names = {name: code for code, name in enumerate(self.ftype_names)}
        codes, fresh = [], []
        for sha256, (file_type, is_fresh) in self._tail_new.items():
            self.position[sha256] = len(self.position)
            codes.append(names.setdefault(file_type, len(names)))
            fresh.append(is_fresh)
        sample_of = np.concatenate([
            np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds)),
            np.fromiter(map(self.position.__getitem__, self._tail_shas),
                        np.int64, count=len(self._tail_shas))])
        self.bounds, self.entries = _grouped(
            sample_of, len(self.position),
            np.concatenate([self.entries, np.frombuffer(
                bytes(self._tail_entries), ENTRY_DTYPE)]))
        self.ftype_names = list(names)
        self.ftype_codes = np.concatenate(
            [self.ftype_codes, np.array(codes, np.int64)])
        self.fresh = np.concatenate([self.fresh, np.array(fresh, bool)])
        self._start_tail()

    def has(self, sha256: str, scan_time: int) -> bool:
        """Whether an entry of ``sha256`` has ``scan_time``; the tail is
        checked through its key set, so nothing is folded."""
        if (sha256, scan_time) in self._tail_keys:
            return True
        i = self.position.get(sha256)
        if i is None:
            return False
        times = self.entries["scan_time"][
            self.bounds.item(i):self.bounds.item(i + 1)]
        return bool((times == scan_time).any())

    def rank(self, sha256: str) -> int:
        """The sample's position (a folded index's)."""
        try:
            return self.position[sha256]
        except KeyError:
            raise UnknownSampleError(sha256) from None

    def entries_of(self, sha256: str) -> np.ndarray:
        """The sample's entries, in ingest order (a folded index's)."""
        i = self.rank(sha256)
        return self.entries[self.bounds.item(i):self.bounds.item(i + 1)]

    def encode(self) -> bytes:
        """Pack the index into one compressed binary section, samples in
        position order: per sample a fixed header (``_SAMPLE_HEADER``),
        its file type in UTF-8, then its entries as they are."""
        self.fold()
        names = [name.encode("utf-8") for name in self.ftype_names]
        shas = bytes.fromhex("".join(self.position))
        bounds = self.bounds.tolist()
        entries = self.entries.tobytes()
        parts = [INDEX_MAGIC, struct.pack("<I", len(self.position))]
        for i, (code, fresh) in enumerate(zip(
                self.ftype_codes.tolist(), self.fresh.tolist(), strict=True)):
            lo, hi = bounds[i], bounds[i + 1]
            name = names[code]
            parts += (_SAMPLE_HEADER.pack(shas[32 * i:32 * i + 32], len(name),
                                          fresh, hi - lo),
                      name, entries[_ENTRY.size * lo:_ENTRY.size * hi])
        return zlib.compress(b"".join(parts), _ZLIB_LEVEL)

    @classmethod
    def decode(cls, payload) -> "SampleIndex":
        """Unpack a section written by :meth:`encode`: one pass over the
        sample headers, then one gather of every 20-byte entry.  Any
        structural damage raises :class:`~repro.errors.CorruptRecordError`
        — an index must never load silently smaller."""
        try:
            raw = zlib.decompress(payload)
        except zlib.error as exc:
            raise CorruptRecordError(f"undecodable store index: {exc}") from exc
        if raw[:len(INDEX_MAGIC)] != INDEX_MAGIC:
            raise CorruptRecordError("bad store index magic")
        offset = len(INDEX_MAGIC) + 4
        position: dict[str, int] = {}
        names: dict[bytes, int] = {}
        # Per sample: file-type code, freshness byte, entry count and
        # the offset of its entries.
        codes, fresh, counts, starts = [], [], [], []
        try:
            (n_samples,) = struct.unpack_from("<I", raw, len(INDEX_MAGIC))
            for i in range(n_samples):
                sha, name_len, is_fresh, n_entries = \
                    _SAMPLE_HEADER.unpack_from(raw, offset)
                name_at = offset + _SAMPLE_HEADER.size
                offset = name_at + name_len
                position[sha.hex()] = i
                codes.append(names.setdefault(raw[name_at:offset], len(names)))
                fresh.append(is_fresh)
                counts.append(n_entries)
                starts.append(offset)
                offset += _ENTRY.size * n_entries
        except struct.error as exc:
            raise CorruptRecordError(f"truncated store index: {exc}") from exc
        if offset != len(raw):
            raise CorruptRecordError(
                f"store index section holds {len(raw)} bytes, its samples "
                f"{offset}")
        if len(position) != n_samples:
            raise CorruptRecordError("store index lists a sample twice")
        if not all(counts):
            raise CorruptRecordError(
                "store index lists a sample with no reports")
        if not n_samples:
            return cls.empty()  # too short a section for one window
        bounds = np.zeros(n_samples + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        # Entry k of sample i starts at starts[i] + 20 * (k - bounds[i]).
        record_at = (np.repeat(np.array(starts, np.int64)
                               - _ENTRY.size * bounds[:-1], counts)
                     + _ENTRY.size * np.arange(bounds[-1]))
        records = sliding_window_view(np.frombuffer(raw, np.uint8),
                                      _ENTRY.size)[record_at]
        return cls(position=position,
                   ftype_names=[name.decode("utf-8") for name in names],
                   ftype_codes=np.array(codes, np.int64),
                   fresh=np.array(fresh, np.uint8) == 1, bounds=bounds,
                   entries=records.view(ENTRY_DTYPE).reshape(-1))

    def check_addresses(self, block_sizes: dict[int, list[int]]) -> None:
        """Raise :class:`~repro.errors.CorruptRecordError` unless each
        entry names a month of ``block_sizes`` (month → its blocks' record
        counts), a block of that month and a slot of that block, and the
        entries name every stored report exactly once."""
        months = sorted(block_sizes)
        month, block, slot = (self.entries[name].astype(np.int64)
                              for name in ("month", "block", "slot"))
        if not np.isin(month, months).all():
            bad = month[~np.isin(month, months)][0]
            raise CorruptRecordError(
                f"store index names month {bad}, which the file lacks")
        k = np.searchsorted(months, month)
        n_blocks = np.array([len(block_sizes[m]) for m in months], np.int64)
        past = block >= n_blocks[k]
        if past.any():
            raise CorruptRecordError(
                f"store index names block {block[past][0]} of month "
                f"{month[past][0]}, which has {n_blocks[k][past][0]}")
        # Every block and record of the file in one numbering.
        flat = np.concatenate([[0], np.cumsum(n_blocks)])[k] + block
        sizes = np.array([n for m in months for n in block_sizes[m]], np.int64)
        past = slot >= sizes[flat]
        if past.any():
            raise CorruptRecordError(
                f"store index names slot {slot[past][0]} of a "
                f"{sizes[flat][past][0]}-record block")
        first_record = np.concatenate([[0], np.cumsum(sizes)])
        seen = np.zeros(first_record[-1], bool)
        seen[first_record[flat] + slot] = True
        if len(self.entries) != len(seen) or not seen.all():
            raise CorruptRecordError(
                f"store index holds {len(self.entries)} entries, not one "
                f"for each of the {len(seen)} stored reports")
