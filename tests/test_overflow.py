"""Unit tests for ChainedBucket (the overflow-chain primitive)."""

import pytest

from repro.em import Disk, IOStats, STRICT_POLICY
from repro.tables.overflow import ChainedBucket


@pytest.fixture
def disk():
    return Disk(4, stats=IOStats())


class TestInsertLookup:
    def test_single_block_fill(self, disk):
        b = ChainedBucket(disk)
        for k in [1, 2, 3, 4]:
            assert b.insert(k)
        assert b.chain_length == 0
        assert b.item_count() == 4

    def test_overflow_grows_chain(self, disk):
        b = ChainedBucket(disk)
        for k in range(10):
            b.insert(k)
        assert b.chain_length >= 2
        for k in range(10):
            found = b.lookup(k)
            assert found

    def test_duplicate_insert_rejected(self, disk):
        b = ChainedBucket(disk)
        assert b.insert(7)
        assert not b.insert(7)
        assert b.item_count() == 1

    def test_lookup_cost_grows_with_chain_position(self, disk):
        b = ChainedBucket(disk)
        for k in range(12):  # 3 blocks of 4
            b.insert(k)
        before = disk.stats.reads
        b.lookup(0)
        cost_first = disk.stats.reads - before
        before = disk.stats.reads
        b.lookup(11)
        cost_last = disk.stats.reads - before
        assert cost_first == 1
        assert cost_last >= 2

    def test_lookup_absent_scans_whole_chain(self, disk):
        b = ChainedBucket(disk)
        for k in range(12):
            b.insert(k)
        before = disk.stats.reads
        found = b.lookup(999)
        cost = disk.stats.reads - before
        assert not found
        assert cost == 1 + b.chain_length


class TestDeleteReplace:
    def test_delete_present(self, disk):
        b = ChainedBucket(disk)
        for k in range(10):
            b.insert(k)
        assert b.delete(3)
        found = b.lookup(3)
        assert not found
        assert b.item_count() == 9

    def test_delete_absent(self, disk):
        b = ChainedBucket(disk)
        b.insert(1)
        assert not b.delete(2)

    def test_replace_all_rewrites_chain(self, disk):
        b = ChainedBucket(disk)
        for k in range(10):
            b.insert(k)
        b.replace_all(list(range(100, 103)))
        assert b.item_count() == 3
        assert sorted(b.peek_all()) == [100, 101, 102]
        assert b.chain_length == 0  # shrunk back to the primary block

    def test_read_all_returns_everything(self, disk):
        b = ChainedBucket(disk)
        items = list(range(9))
        for k in items:
            b.insert(k)
        assert sorted(b.read_all()) == items


class TestAccounting:
    def test_insert_io_cost_is_bounded_by_chain(self, disk):
        b = ChainedBucket(disk)
        for k in range(4):
            b.insert(k)
        before = disk.stats.total
        b.insert(99)  # must walk the chain and extend it
        assert disk.stats.total - before <= b.chain_length + 3

    def test_peek_methods_charge_nothing(self, disk):
        b = ChainedBucket(disk)
        for k in range(10):
            b.insert(k)
        before = disk.stats.total
        b.peek_all()
        list(b.peek_blocks())
        assert disk.stats.total == before

    def test_free_all_releases_blocks(self, disk):
        b = ChainedBucket(disk)
        for k in range(10):
            b.insert(k)
        blocks = b.block_ids
        b.free_all()
        assert all(bid not in disk for bid in blocks)
