"""Binary record codec for scan reports.

The paper's pipeline achieved a 10.06× compression rate by (i) storing
only the fields its analyses need, (ii) splitting rarely-changing sample
metadata from per-scan results, and (iii) compressing.  This codec is step
(i) and (ii): a :class:`~repro.vt.reports.ScanReport` becomes a compact
struct-packed record; step (iii), zlib over blocks of records, lives in
:mod:`repro.store.shard`.

The record bytes are the store's canonical content: the per-report
ingest path buffers them, and
:meth:`~repro.store.reportstore.ReportStore.digest` hashes them.  Blocks
themselves are columnar (RPR3, see :mod:`repro.store.columnar`):
:func:`encode_block` freezes a buffer of records into one block payload,
and :func:`decode_compressed_batch`, the one block decoder, turns a
compressed payload into a :class:`~repro.store.columnar.ColumnarBatch`,
whose ``to_records()`` gives the record bytes back.

For the Table 2 accounting ("GB of raw reports per month") the codec can
also *estimate* the size the same report would occupy as the verbose JSON
the real API returns — engine names, detection strings, category fields —
without ever materialising that JSON for every report.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from typing import Sequence

from repro.errors import CorruptRecordError
from repro.store import columnar
from repro.vt.reports import ScanReport

#: Fixed header: scan_time, positives, total, first/last submission,
#: last_analysis, times_submitted, n_engines, file-type length.
_HEADER = struct.Struct("<qHHqqqIHH")


def encode_report(report: ScanReport) -> bytes:
    """Pack a report into the compact binary record format."""
    ftype = report.file_type.encode("utf-8")
    n = len(report.labels)
    header = _HEADER.pack(
        report.scan_time,
        report.positives,
        report.total,
        report.first_submission_date,
        report.last_submission_date,
        report.last_analysis_date,
        report.times_submitted,
        n,
        len(ftype),
    )
    sha = bytes.fromhex(report.sha256)
    versions = array("I", report.versions).tobytes()
    return b"".join((header, sha, ftype, report.labels, versions))


def decode_report(blob: bytes) -> ScanReport:
    """Unpack a record produced by :func:`encode_report`."""
    try:
        (scan_time, positives, total, first_sub, last_sub, last_ana,
         times_submitted, n, ftype_len) = _HEADER.unpack_from(blob, 0)
        offset = _HEADER.size
        sha = blob[offset:offset + 32].hex()
        offset += 32
        ftype = blob[offset:offset + ftype_len].decode("utf-8")
        offset += ftype_len
        labels = blob[offset:offset + n]
        offset += n
        versions = array("I")
        versions.frombytes(blob[offset:offset + 4 * n])
    except (struct.error, ValueError) as exc:
        raise CorruptRecordError(f"undecodable report record: {exc}") from exc
    if len(labels) != n or len(versions) != n:
        raise CorruptRecordError("truncated report record")
    return ScanReport(
        sha256=sha,
        file_type=ftype,
        scan_time=scan_time,
        positives=positives,
        total=total,
        labels=bytes(labels),
        versions=tuple(versions),
        first_submission_date=first_sub,
        last_submission_date=last_sub,
        last_analysis_date=last_ana,
        times_submitted=times_submitted,
    )


def record_size(report: ScanReport) -> int:
    """Exact encoded size of a report record in bytes."""
    return (_HEADER.size + 32 + len(report.file_type.encode("utf-8"))
            + len(report.labels) * 5)


#: Measured average JSON bytes per engine entry in a real v3 file report
#: (engine name, category, result string, update date, version).
_JSON_BYTES_PER_ENGINE = 160
#: Fixed JSON overhead: hashes (md5/sha1/sha256), sizes, type fields,
#: submitter metadata, certificate info, envelope.
_JSON_FIXED_OVERHEAD = 2200


def verbose_json_size(report: ScanReport) -> int:
    """Estimated size of the same report as the real API's verbose JSON.

    Used only for Table 2 style accounting; calibrated so a 70-engine
    report weighs ~13 KB, matching the paper's ~64 bytes-per-report-GB
    arithmetic after their 10× compression.
    """
    return _JSON_FIXED_OVERHEAD + _JSON_BYTES_PER_ENGINE * len(report.labels)


def render_verbose_json(report: ScanReport, engine_names: Sequence[str]) -> str:
    """Materialise a verbose JSON rendering (for tests and debugging).

    This is what :func:`verbose_json_size` approximates; rendering every
    report would dominate runtime, so production paths never call this.
    """
    results = {}
    for result in report.iter_results(engine_names):
        results[result.engine] = {
            "category": ("malicious" if result.detected
                         else "undetected" if not result.responded
                         else "harmless"),
            "engine_name": result.engine,
            "engine_version": str(result.version),
            "engine_update": str(report.scan_time),
            "method": "blacklist",
            "result": result.detection_name,
        }
    doc = {
        "data": {
            "id": report.sha256,
            "type": "file",
            "attributes": {
                "sha256": report.sha256,
                "type_description": report.file_type,
                "last_analysis_date": report.last_analysis_date,
                "last_submission_date": report.last_submission_date,
                "first_submission_date": report.first_submission_date,
                "times_submitted": report.times_submitted,
                "last_analysis_stats": {
                    "malicious": report.positives,
                    "undetected": len(report.labels) - report.total,
                    "harmless": report.total - report.positives,
                },
                "last_analysis_results": results,
            },
        }
    }
    return json.dumps(doc)


def encode_block(records: list[bytes]) -> bytes:
    """Freeze a list of records into one uncompressed columnar payload."""
    return columnar.encode_columnar(
        columnar.ColumnarBatch.from_records(records))


def _partial_decompress(compressed, limit: int) -> bytes:
    """Decompress at most ``limit`` output bytes of a zlib stream."""
    decomp = zlib.decompressobj()
    chunks = []
    produced = 0
    data = compressed
    while produced < limit:
        chunk = decomp.decompress(data, limit - produced)
        if not chunk and not decomp.unconsumed_tail:
            break
        chunks.append(chunk)
        produced += len(chunk)
        data = decomp.unconsumed_tail
        if not data:
            break
    return b"".join(chunks)


def decode_compressed_batch(compressed,
                            planes: bool = True) -> "columnar.ColumnarBatch":
    """Decode a zlib-compressed block payload into a columnar batch.

    With ``planes=False`` only the prefix holding the fixed columns is
    decompressed — the label/version planes, which dominate the
    decompressed size, are never inflated.  This is the fast path under
    the streaming series kernels and the index rebuild.
    """
    try:
        if planes:
            return columnar.decode_columnar(zlib.decompress(compressed))
        head = _partial_decompress(compressed, columnar.META_PREFIX_PROBE)
        meta_end = columnar.meta_section_end(head)
        if meta_end > len(head):
            head += _partial_decompress(compressed, meta_end)[len(head):]
        return columnar.decode_columnar(head[:meta_end], planes=False)
    except zlib.error as exc:
        raise CorruptRecordError(f"undecodable block: {exc}") from exc
