"""Unit tests for the simulated Disk."""

import pytest

from repro.em import (
    Block,
    ConfigurationError,
    Disk,
    InvalidBlockError,
    IOStats,
    STRICT_POLICY,
)


@pytest.fixture
def disk():
    return Disk(8)


class TestAllocation:
    def test_allocate_returns_distinct_ids(self, disk):
        ids = disk.allocate_many(5)
        assert len(set(ids)) == 5

    def test_allocation_charges_no_io(self, disk):
        disk.allocate_many(10)
        assert disk.stats.total == 0

    def test_free_then_access_raises(self, disk):
        bid = disk.allocate()
        disk.free(bid)
        with pytest.raises(InvalidBlockError):
            disk.read(bid)

    def test_double_free_raises(self, disk):
        bid = disk.allocate()
        disk.free(bid)
        with pytest.raises(InvalidBlockError):
            disk.free(bid)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Disk(0)
        with pytest.raises(ConfigurationError):
            Disk(8, record_words=9)


class TestReadWrite:
    def test_write_then_read_roundtrip(self, disk):
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1, 2, 3]))
        blk = disk.read(bid)
        assert blk.records() == [1, 2, 3]

    def test_each_access_charges_one_io(self, disk):
        disk.stats.policy = STRICT_POLICY
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        disk.read(bid)
        assert disk.stats.total == 2

    def test_read_returns_copy_by_default(self, disk):
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        blk = disk.read(bid)
        blk.append(2)
        assert disk.peek(bid).records() == [1]

    def test_write_stores_copy(self, disk):
        bid = disk.allocate()
        blk = Block(8, data=[1])
        disk.write(bid, blk)
        blk.append(2)
        assert disk.peek(bid).records() == [1]

    def test_write_wrong_capacity_rejected(self, disk):
        bid = disk.allocate()
        with pytest.raises(InvalidBlockError):
            disk.write(bid, Block(16))

    def test_read_unknown_block(self, disk):
        with pytest.raises(InvalidBlockError):
            disk.read(12345)

    def test_modify_context_manager_is_one_paper_io(self, disk):
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        before = disk.stats.total
        with disk.modify(bid) as blk:
            blk.append(2)
        # Footnote 2: read + immediate write of the same block = 1 I/O.
        assert disk.stats.total - before == 1
        assert disk.peek(bid).records() == [1, 2]

    def test_first_write_recorded_as_allocation(self, disk):
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        assert disk.stats.allocations == 1
        disk.write(bid, Block(8, data=[1, 2]))
        assert disk.stats.allocations == 1  # only the first write


class TestInstrumentation:
    def test_peek_charges_nothing(self, disk):
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        before = disk.stats.total
        disk.peek(bid)
        assert disk.stats.total == before

    def test_scan_charges_per_block(self, disk):
        ids = disk.allocate_many(3)
        for bid in ids:
            disk.write(bid, Block(8, data=[bid]))
        before = disk.stats.total
        blocks = disk.scan(ids)
        assert disk.stats.total - before == 3
        assert [b.records() for b in blocks] == [[i] for i in ids]

    def test_counters(self, disk):
        ids = disk.allocate_many(4)
        disk.write(ids[0], Block(8, data=[1, 2]))
        disk.write(ids[1], Block(8, data=[3]))
        assert disk.blocks_in_use() == 4
        assert disk.nonempty_blocks() == 2
        assert disk.words_stored() == 3
        assert ids[0] in disk
        assert 999 not in disk

    def test_store_ownership_transfer_charges_like_write(self):
        """store(bid, block) transfers the block without copying and
        charges exactly like write(bid, block)."""
        d1, d2 = Disk(8), Disk(8)
        b1, b2 = d1.allocate(), d2.allocate()
        blk = Block(8, data=[7, 8])
        d1.store(b1, blk)
        d2.write(b2, Block(8, data=[7, 8]))
        assert d1.peek(b1).records() == d2.peek(b2).records() == [7, 8]
        assert d1.stats.snapshot() == d2.stats.snapshot()
        # Transferred block IS the stored block (no copy)...
        assert d1.peek(b1, copy=False) is blk
        # ...and a wrong-capacity transfer is rejected like write.
        with pytest.raises(InvalidBlockError):
            d1.store(b1, Block(16))

    def test_shared_stats_object(self):
        stats = IOStats()
        d1 = Disk(8, stats=stats)
        d2 = Disk(8, stats=stats)
        b1 = d1.allocate()
        d1.write(b1, Block(8, data=[1]))
        b2 = d2.allocate()
        d2.write(b2, Block(8, data=[2]))
        assert stats.total == 2
