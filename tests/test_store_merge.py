"""Shard merge: differential against serial ingest, plus validation.

Built on hand-made frozen shards, so shard contents, block sizes and
arrival order can be chosen freely — the end-to-end equivalence gate
over real worker runs lives in ``test_parallel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_report, make_sha
from repro.errors import ConfigError, CorruptRecordError
from repro.store import codec
from repro.store.merge import FrozenMonth, FrozenShard, StreamingMerge
from repro.store.reportstore import ReportStore
from repro.store.shard import CompressedBlock
from repro.vt.clock import MONTH_STARTS, month_index

BLOCK = 4  # tiny block size so a handful of reports spans several blocks


def _reports(indices, scan_time_of):
    """One single-scan report per index, keyed ``(scan_time, index)``."""
    out = []
    for i in indices:
        t = scan_time_of(i)
        out.append(((t, i), make_report(sha=make_sha(f"s{i}"),
                                        scan_time=t, first_submission=0)))
    return out


def _freeze(keyed_reports, block_records=BLOCK) -> FrozenShard:
    """Package ``(key, report)`` pairs the way a worker would: each
    month's records in key order, frozen in blocks, one key each."""
    by_month: dict[int, list] = {}
    for key, report in sorted(keyed_reports, key=lambda kr: kr[0]):
        by_month.setdefault(month_index(report.scan_time), []).append(
            (key, report))
    months = {}
    for month, items in by_month.items():
        records = [codec.encode_report(r) for _, r in items]
        months[month] = FrozenMonth(
            blocks=[CompressedBlock.from_records(records[i:i + block_records])
                    for i in range(0, len(records), block_records)],
            report_count=len(records),
            keys=np.array([index for (_, index), _ in items], np.int64),
        )
    return FrozenShard(months=months)


def _merge(shards, block_records=BLOCK) -> ReportStore:
    merge = StreamingMerge(block_records=block_records)
    for shard in shards:
        merge.add(shard)
    return merge.finish()


def _serial_reference(all_keyed, block_records=BLOCK) -> ReportStore:
    """What serial ingest of the same records in key order produces."""
    store = ReportStore(block_records=block_records)
    for _, report in sorted(all_keyed, key=lambda kr: kr[0]):
        store.ingest(report)
    store.close()
    return store


def _payloads(store: ReportStore) -> list:
    return [(month, [block.payload for block in store.shards[month].blocks])
            for month in sorted(store.shards)]


def test_interleaved_merge_matches_serial_ingest(store_block_format):
    a = _reports(range(0, 10, 2), lambda i: 1000 + i)   # even minutes
    b = _reports(range(1, 10, 2), lambda i: 1000 + i)   # odd minutes
    merged = _merge([_freeze(a), _freeze(b)])
    reference = _serial_reference(a + b)
    assert merged.digest() == reference.digest()
    assert merged.report_count == 10
    assert _payloads(merged) == _payloads(reference)


def test_merged_store_is_sealed_and_indexed():
    a = _reports(range(0, 5), lambda i: 1000 + i)
    b = _reports(range(5, 9), lambda i: 1500 + i)
    merged = _merge([_freeze(a), _freeze(b)])
    assert merged.closed
    assert merged.sample_count == 9
    for _key, report in a + b:
        assert report.sha256 in merged
        got = merged.report_series(report.sha256)
        assert [r.scan_time for r in got] == [report.scan_time]
        assert merged.sample_file_type(report.sha256) == report.file_type
        assert merged.has_report(report.sha256, report.scan_time)


def test_multi_month_merge_keeps_months_separate():
    month_minutes = MONTH_STARTS[1]
    a = _reports(range(0, 4), lambda i: 100 + i)
    b = _reports(range(4, 8), lambda i: month_minutes + 100 + i)
    merged = _merge([_freeze(a), _freeze(b)])
    assert sorted(merged.shards) == [month_index(100),
                                     month_index(month_minutes + 100)]
    assert merged.digest() == _serial_reference(a + b).digest()


def test_empty_sources_merge_to_empty_store():
    merged = _merge([])
    assert merged.report_count == 0
    assert merged.shards == {}
    assert merged.closed
    assert _merge([FrozenShard(months={})]).digest() == merged.digest()


def test_frozen_month_rejects_mismatched_metadata():
    keyed = _reports(range(3), lambda i: 1000 + i)
    records = [codec.encode_report(r) for _, r in keyed]
    with pytest.raises(ConfigError):
        FrozenMonth(
            blocks=[CompressedBlock.from_records(records)],
            report_count=3,
            keys=np.array([i for (_, i), _ in keyed[:2]]),  # one key short
        )


def test_block_disagreeing_with_its_keys_rejected():
    keyed = _reports(range(4), lambda i: 1000 + i)
    records = [codec.encode_report(r) for _, r in keyed]
    honest = CompressedBlock.from_records(records[:3])
    # The block header claims 4 records; its payload holds 3.
    lying = CompressedBlock(honest.payload, 4, honest.raw_bytes)
    month = FrozenMonth(blocks=[lying], report_count=4,
                        keys=np.arange(4, dtype=np.int64))
    with pytest.raises(CorruptRecordError, match="header says 4"):
        _merge([FrozenShard(months={month_index(1000): month})])


def test_merge_accounting_matches_serial():
    a = _reports(range(0, 7), lambda i: 1000 + 3 * i)
    b = _reports(range(7, 13), lambda i: 1001 + 3 * i)
    merged = _merge([_freeze(a), _freeze(b)])
    reference = _serial_reference(a + b)
    month = month_index(1000)
    assert merged.shards[month].verbose_bytes == \
        reference.shards[month].verbose_bytes
    assert merged.shards[month].encoded_bytes == \
        reference.shards[month].encoded_bytes
    assert merged.stats().total_reports == reference.stats().total_reports


# ---------------------------------------------------------------------------
# Differential property: any split, any arrival order, any block size


#: Scan minutes shared by every sample: three months, a few minutes in
#: each, so samples collide on minutes and span month boundaries.
_MINUTES = [MONTH_STARTS[m] + offset for m in (0, 1, 3) for offset in range(4)]


@st.composite
def _sample(draw, index: int):
    """One sample's scans: distinct minutes, one fleet width, ranks drawn."""
    width = draw(st.sampled_from([3, 5]))
    minutes = draw(st.lists(st.sampled_from(_MINUTES), min_size=1,
                            max_size=5, unique=True))
    file_type = draw(st.sampled_from(["Win32 EXE", "PDF", "Android"]))
    first = draw(st.sampled_from([-1, 0]))
    out = []
    for when in minutes:
        labels = draw(st.lists(st.sampled_from([-1, 0, 1]),
                               min_size=width, max_size=width))
        out.append(((when, index), make_report(
            sha=make_sha(f"merge{index}"), file_type=file_type,
            scan_time=when, labels=labels,
            versions=[draw(st.integers(1, 3))] * width,
            first_submission=first, n_engines=width)))
    return out


@st.composite
def _split_streams(draw):
    n_samples = draw(st.integers(1, 10))
    samples = [draw(_sample(i)) for i in range(n_samples)]
    n_shards = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, n_shards - 1),
                          min_size=n_samples, max_size=n_samples))
    order = draw(st.permutations(range(n_shards)))
    return samples, n_shards, owner, order


@settings(max_examples=60, deadline=None)
@given(split=_split_streams(), block_records=st.sampled_from([1, 2, 3, 8, 256]))
def test_merge_equals_serial_ingest_in_key_order(tmp_path_factory, split,
                                                 block_records):
    samples, n_shards, owner, order = split
    per_shard: list[list] = [[] for _ in range(n_shards)]
    for sample, shard in zip(samples, owner):
        per_shard[shard] += sample  # a sample never splits across shards
    shards = [_freeze(keyed, block_records) for keyed in per_shard]
    merged = _merge([shards[i] for i in order], block_records)
    every = [kr for sample in samples for kr in sample]
    serial = _serial_reference(every, block_records)

    assert merged.digest() == serial.digest()
    assert _payloads(merged) == _payloads(serial)

    # The deferred index rebuilds on first access and answers exactly
    # like the index serial ingest built report by report.
    assert list(merged.samples()) == list(serial.samples())
    for sha in serial.samples():
        assert merged.report_series(sha) == serial.report_series(sha)
        assert merged.latest_report(sha) == serial.latest_report(sha)
        assert merged.sample_file_type(sha) == serial.sample_file_type(sha)
        assert merged.sample_is_fresh(sha) == serial.sample_is_fresh(sha)
        for when in _MINUTES:
            assert merged.has_report(sha, when) == serial.has_report(sha, when)

    tmp_path = tmp_path_factory.mktemp("merge")
    merged.save(tmp_path / "merged.store")
    serial.save(tmp_path / "serial.store")
    assert (tmp_path / "merged.store").read_bytes() == \
        (tmp_path / "serial.store").read_bytes()
