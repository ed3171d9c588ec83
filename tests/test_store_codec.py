"""Unit tests for the report codec (repro.store.codec)."""

import json
import zlib

import pytest

from repro.errors import CorruptRecordError
from repro.store import codec
from repro.store.shard import CompressedBlock
from repro.vt.reports import ScanReport

from conftest import make_report


class TestRecordCodec:
    def test_round_trip(self):
        report = make_report(labels=[1, 0, -1, 1, 0],
                             versions=[7, 7, 8, 9, 10],
                             first_submission=-1234)
        assert codec.decode_report(codec.encode_report(report)) == report

    def test_round_trip_full_fleet_width(self):
        report = make_report(labels=[0] * 70, versions=[3] * 70,
                             n_engines=70)
        assert codec.decode_report(codec.encode_report(report)) == report

    def test_record_size_matches_actual(self):
        report = make_report(labels=[1, 0, 0, 0, 0])
        assert codec.record_size(report) == len(codec.encode_report(report))

    def test_truncated_record_rejected(self):
        blob = codec.encode_report(make_report())
        with pytest.raises(CorruptRecordError):
            codec.decode_report(blob[:20])


class TestVerboseEstimate:
    def test_verbose_size_scales_with_fleet(self):
        small = make_report(n_engines=5)
        big = make_report(labels=[0] * 70, versions=[1] * 70, n_engines=70)
        assert codec.verbose_json_size(big) > codec.verbose_json_size(small)

    def test_verbose_estimate_near_rendered_json(self):
        """The estimate should be within 2x of an actually rendered doc."""
        report = make_report(labels=[1] * 35 + [0] * 35,
                             versions=[1] * 70, n_engines=70)
        names = [f"Engine{i:02d}" for i in range(70)]
        rendered = len(codec.render_verbose_json(report, names))
        estimate = codec.verbose_json_size(report)
        assert rendered / 2 < estimate < rendered * 2

    def test_rendered_json_is_valid(self):
        report = make_report(labels=[1, 0, -1, 0, 0])
        doc = json.loads(codec.render_verbose_json(
            report, ["a", "b", "c", "d", "e"]
        ))
        attrs = doc["data"]["attributes"]
        assert attrs["last_analysis_stats"]["malicious"] == 1
        assert attrs["last_analysis_stats"]["undetected"] == 1
        assert len(attrs["last_analysis_results"]) == 5


def _framed(records: list[bytes]) -> list[bytes]:
    """Records frozen into one block, then decoded back to record bytes."""
    return CompressedBlock.from_records(records).batch().to_records()


class TestBlockFraming:
    def test_round_trip(self):
        records = [codec.encode_report(make_report(
            sha=f"{i:02x}" * 32, file_type=ftype, labels=labels,
            n_engines=len(labels)))
            for i, (ftype, labels) in enumerate([
                ("Win32 EXE", [1, 0, -1]), ("PDF", []), ("", [0] * 70)])]
        assert _framed(records) == records

    def test_empty_block(self):
        assert _framed([]) == []

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptRecordError):
            codec.decode_compressed_batch(
                zlib.compress(b"XXXX\x00\x00\x00\x00"))

    def test_truncated_block_rejected(self):
        framed = codec.encode_block([codec.encode_report(make_report())])
        with pytest.raises(CorruptRecordError):
            codec.decode_compressed_batch(zlib.compress(framed[:-2]))

    def test_encoded_reports_survive_framing(self):
        reports = [make_report(sha=f"{i:02x}" * 32, scan_time=i * 100)
                   for i in range(5)]
        records = [codec.encode_report(r) for r in reports]
        assert [codec.decode_report(rec) for rec in _framed(records)] \
            == reports
        batch = CompressedBlock.from_records(records).batch()
        assert [batch.report(slot) for slot in range(len(batch))] == reports


class TestCompactness:
    def test_binary_much_smaller_than_verbose(self):
        report = make_report(labels=[0] * 70, versions=[1] * 70,
                             n_engines=70)
        assert (len(codec.encode_report(report))
                < codec.verbose_json_size(report) / 10)


class TestCorruptionSurface:
    """Hostile payloads must surface as CorruptRecordError, never as a
    bare struct.error/ValueError leaking codec internals."""

    def test_every_truncation_point_rejected_cleanly(self):
        blob = codec.encode_report(make_report(labels=[1, 0, -1, 0, 1]))
        for cut in range(len(blob)):
            with pytest.raises(CorruptRecordError):
                codec.decode_report(blob[:cut])

    def test_bit_flips_never_leak_internal_errors(self):
        blob = codec.encode_report(make_report(labels=[1, 0, -1, 0, 1]))
        for pos in range(len(blob)):
            for bit in (0x01, 0x80):
                mangled = bytearray(blob)
                mangled[pos] ^= bit
                try:
                    codec.decode_report(bytes(mangled))
                except CorruptRecordError:
                    pass  # detected corruption: the contract
                # A silent decode is acceptable (no checksum in the
                # record format) — an escaping struct.error/ValueError
                # is not, and would fail this test.

    def test_inflated_count_field_rejected(self):
        blob = bytearray(codec.encode_report(make_report()))
        import struct as _struct

        offset = _struct.calcsize("<qHHqqqI")
        _struct.pack_into("<H", blob, offset, 60_000)
        with pytest.raises(CorruptRecordError):
            codec.decode_report(bytes(blob))

    def test_empty_payload_rejected(self):
        with pytest.raises(CorruptRecordError):
            codec.decode_report(b"")
