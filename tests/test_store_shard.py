"""Unit tests for monthly shards (repro.store.shard)."""

import pytest

from conftest import make_report, make_sha
from repro.errors import CorruptRecordError, ShardClosedError
from repro.store.codec import encode_report
from repro.store.shard import CompressedBlock, MonthlyShard


def _records(n: int) -> list[bytes]:
    return [encode_report(make_report(sha=make_sha(f"record-{i}"),
                                      scan_time=1000 + i))
            for i in range(n)]


A, B = _records(2)


class TestCompressedBlock:
    def test_round_trip(self):
        records = _records(10)
        block = CompressedBlock.from_records(records)
        assert block.batch().to_records() == records
        assert block.record_count == 10

    @pytest.mark.parametrize("planes", [True, False])
    def test_row_count_must_match_the_header(self, planes):
        honest = CompressedBlock.from_records(_records(3))
        lying = CompressedBlock(honest.payload, 4, honest.raw_bytes)
        with pytest.raises(CorruptRecordError,
                           match="decoded to 3 records, but its header says 4"):
            lying.batch(planes=planes)

    def test_compression_shrinks_repetitive_data(self):
        wide = encode_report(make_report(n_engines=70))
        block = CompressedBlock.from_records([wide] * 20)
        assert block.compressed_bytes < block.raw_bytes / 10


class TestMonthlyShard:
    def test_append_returns_stable_addresses(self):
        shard = MonthlyShard(month=0, block_records=3)
        addresses = [shard.append(r, 100) for r in _records(7)]
        assert addresses == [(0, 0), (0, 1), (0, 2),
                             (1, 0), (1, 1), (1, 2),
                             (2, 0)]

    def test_blocks_freeze_at_block_records(self):
        shard = MonthlyShard(month=0, block_records=3)
        for r in _records(7):
            shard.append(r, 100)
        assert len(shard.blocks) == 2  # two frozen, one open buffer

    def test_flush_freezes_partial_buffer(self):
        shard = MonthlyShard(month=0, block_records=100)
        shard.append(A, 10)
        shard.flush()
        assert len(shard.blocks) == 1
        assert shard.blocks[0].record_count == 1

    def test_close_seals_shard(self):
        shard = MonthlyShard(month=0)
        shard.append(A, 10)
        shard.close()
        assert shard.closed
        with pytest.raises(ShardClosedError):
            shard.append(B, 10)

    def test_accounting(self):
        shard = MonthlyShard(month=2, block_records=2)
        for r in _records(4):
            shard.append(r, verbose_size=500)
        assert shard.report_count == 4
        assert shard.verbose_bytes == 2000
        assert shard.encoded_bytes == sum(len(r) for r in _records(4))
        assert shard.compressed_bytes > 0

    def test_open_buffer_counted_as_buffered_not_compressed(self):
        # Regression: the open buffer's raw record bytes used to be
        # reported as "compressed" size, skewing Table 2 ratios.
        shard = MonthlyShard(month=0, block_records=100)
        shard.append(A, 10)
        assert shard.compressed_bytes == 0
        assert shard.buffered_bytes == len(A)
        assert shard.stored_bytes == len(A)
        shard.flush()
        assert shard.buffered_bytes == 0
        assert shard.compressed_bytes > 0
        assert shard.stored_bytes == shard.compressed_bytes

    def test_buffered_records_is_a_snapshot(self):
        shard = MonthlyShard(month=0, block_records=100)
        shard.append(A, 1)
        snapshot = shard.buffered_records()
        shard.append(B, 1)
        assert snapshot == [A]
        assert shard.buffered_records() == [A, B]

    def test_record_at_spans_frozen_and_open(self):
        # An address from append reads back its record through the
        # block batches, in a frozen block and in the open buffer alike.
        shard = MonthlyShard(month=0, block_records=3)
        records = _records(5)
        addresses = [shard.append(r, 100) for r in records]
        blocks = [batch.to_records() for batch in shard.iter_batches()]
        assert blocks[0][1] == records[1]
        assert blocks[1][1] == records[4]  # still in buffer
        assert shard.open_record_count == 2
        assert [blocks[block][slot] for block, slot in addresses] == records

    def test_iter_records_preserves_order(self):
        shard = MonthlyShard(month=0, block_records=2)
        records = _records(5)
        for r in records:
            shard.append(r, 100)
        assert [record for batch in shard.iter_batches()
                for record in batch.to_records()] == records

    def test_iter_record_blocks_covers_frozen_and_open(self):
        # iter_batches yields the frozen blocks in order, then the open
        # buffer under the block index its records' addresses carry; a
        # closed shard has no buffer left to yield.
        shard = MonthlyShard(month=0, block_records=2)
        records = _records(5)
        for r in records:
            shard.append(r, 1)
        assert [batch.to_records() for batch in shard.iter_batches()] == [
            records[0:2], records[2:4], records[4:5]]
        assert [len(batch) for batch in shard.iter_batches(planes=False)] \
            == [2, 2, 1]
        shard.close()
        assert [len(batch) for batch in shard.iter_batches()] == [2, 2, 1]
        assert shard.open_record_count == 0
