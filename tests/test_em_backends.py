"""Unit tests for the pluggable storage backends.

The cross-structure bit-identity guarantees live in
``tests/test_batch_parity.py``; these exercise the backend protocol
directly: lifecycle, slot recycling, arena growth, header persistence,
the record-level primitives both backends share, and the disk's
copying whole-block discipline over each of them, cached or not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.em import (
    ArenaBackend,
    BACKENDS,
    Block,
    CachedDisk,
    Disk,
    InvalidBlockError,
    MappingBackend,
    make_backend,
)
from repro.em.backends import DurableArenaBackend
from repro.em.errors import ConfigurationError


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return make_backend(request.param, 8)


def _u64(*values):
    return np.array(values, dtype=np.uint64)


#: The run the row-primitive tests move, in this (non-ascending) order:
#: block 9 sits on block 2's recycled slot and block 8 on block 5's.
ROW = [9, 0, 4, 8, 3]
#: Per method, the items of the run's groups, in ``ROW`` order.  The
#: appends fill the fresh block 8 and block 3 to exactly the capacity of
#: 4; the replaces fill block 8 and shrink block 3.
GROUPS = {
    "append": [[], [21], [22, 23], [31, 32, 33, 34], [41]],
    "replace": [[], [11, 12], [21, 22], [31, 32, 33, 34], [41]],
}


def _groups(method, count):
    """The first ``count`` groups of ``method`` as ``(items, bounds)``."""
    groups = GROUPS[method][:count]
    bounds = np.cumsum([0] + [len(g) for g in groups]).tolist()
    return _u64(*(x for g in groups for x in g)), bounds


def _history(name):
    """A 4-record-block backend whose ids and arena slots are out of step.

    Blocks 1-7 hold ``bid % 4`` records and block 0 none; 2 and 5 are
    freed and their slots recycled by 8 and 9, whose rows keep stale
    records past length 0; block 4 holds a header alone and block 3 a
    chain pointer as well as 3 records.
    """
    be = make_backend(name, 4)
    be.create_many(range(8))
    for bid in range(8):
        be.append(bid, [10 * bid + j for j in range(bid % 4)])
    for bid, header in ((4, {"overflowed": True}), (3, {"next": 7})):
        blk = be.fetch(bid)
        blk.header.update(header)
        be.commit(bid, blk)
    be.delete(2)
    be.delete(5)
    be.create(8)
    be.create(9)
    if hasattr(be, "_slot"):
        assert (be._slot[8], be._slot[9]) == (5, 2)
    return be


def _reads_equal_their_loops(row, twin):
    ids = list(ROW)
    assert row.length_many(ids).tolist() == [twin.length(b) for b in ids]
    assert row.is_fresh_many(np.array(ids)).tolist() == [twin.is_fresh(b) for b in ids]
    got = row.records_many(np.array(ids))
    assert got.dtype == np.uint64
    assert got.tolist() == [x for b in ids for x in twin.records(b)]
    assert _row_state(row) == _row_state(twin)
    drained = row.drain_many(ids)
    assert drained.tolist() == [x for b in ids for x in twin.drain(b)]
    assert _row_state(row) == _row_state(twin)


def _writes_equal_their_loops(row, twin, method):
    items, bounds = _groups(method, len(ROW))
    getattr(row, f"{method}_many")(np.array(ROW), items, bounds)
    for bid, lo, hi in zip(ROW, bounds[:-1], bounds[1:]):
        getattr(twin, method)(bid, items[lo:hi].tolist())
    assert _row_state(row) == _row_state(twin)


def _row_state(be):
    """Every block's records, length, freshness and header."""
    return {
        bid: (be.records(bid), be.length(bid), be.is_fresh(bid), be.fetch(bid).header)
        for bid in be.ids()
    }


class TestProtocol:
    def test_registry(self):
        assert isinstance(make_backend("mapping", 8), MappingBackend)
        assert isinstance(make_backend("arena", 8), ArenaBackend)
        with pytest.raises(ConfigurationError):
            make_backend("ramdisk", 8)

    def test_create_fetch_commit_roundtrip(self, backend):
        backend.create(0)
        blk = backend.fetch(0)
        blk.extend([3, 1, 2])
        blk.header["next"] = 9
        backend.commit(0, blk)
        again = backend.fetch(0)
        assert again.records() == [3, 1, 2]
        assert again.header == {"next": 9}

    def test_record_primitives(self, backend):
        backend.create(5)
        assert backend.is_fresh(5)
        backend.append(5, [10, 20])
        backend.append(5, [30])
        assert not backend.is_fresh(5)
        assert backend.length(5) == 3
        assert backend.records(5) == [10, 20, 30]
        assert backend.records_arr(5).tolist() == [10, 20, 30]
        assert backend.contains_key(5, 20)
        assert not backend.contains_key(5, 99)
        backend.replace(5, [7])
        assert backend.records(5) == [7]
        assert backend.drain(5) == [7]
        assert backend.length(5) == 0
        assert backend.drain(5) == []

    def test_header_alone_blocks_freshness(self, backend):
        backend.create(1)
        blk = backend.fetch(1)
        blk.header["overflowed"] = True
        backend.commit(1, blk)
        assert not backend.is_fresh(1)
        assert backend.length(1) == 0

    def test_delete_and_contains(self, backend):
        backend.create(2)
        assert 2 in backend
        backend.delete(2)
        assert 2 not in backend
        with pytest.raises(KeyError):
            backend.delete(2)
        with pytest.raises(KeyError):
            backend.fetch(2)

    def test_introspection(self, backend):
        backend.create_many([0, 1, 2])
        backend.append(0, [1, 2])
        backend.append(1, [3])
        assert backend.ids() == [0, 1, 2]
        assert backend.count() == 3
        assert backend.nonempty() == 2
        assert backend.words_stored() == 3

    def test_remove_keys_equals_the_remove_key_loop(self, backend):
        """Hit mask, record order and lengths match one ``remove_key`` per
        pair, in order: several hits in one block, repeated pairs (the
        second misses), a record left stale past its block's length on
        the arena, and an empty block."""
        twin = make_backend(backend.name, 8)
        for be in (backend, twin):
            be.create_many(range(4))
            be.append(0, [1, 2, 3, 4, 5, 6])
            be.append(1, [7, 8])
            be.remove_key(1, 8)
            be.append(2, [9])
        block_ids = np.array([0, 0, 1, 0, 2, 0, 1, 3, 0, 2], dtype=np.int64)
        keys = np.array([2, 5, 8, 2, 9, 1, 7, 4, 6, 9], dtype=np.uint64)
        expected = [
            twin.remove_key(b, k) for b, k in zip(block_ids.tolist(), keys.tolist())
        ]
        assert expected == [True, True, False, False, True, True, True, False,
                            True, False]
        assert backend.remove_keys(block_ids, keys).tolist() == expected
        assert [backend.records(b) for b in range(4)] == [[3, 4], [], [], []]
        assert [backend.length(b) for b in range(4)] == [twin.length(b) for b in range(4)]
        assert backend.remove_keys(block_ids[:0], keys[:0]).tolist() == []

    def test_records_are_python_ints(self, backend):
        backend.create(0)
        backend.append(0, [1, 2, 3])
        assert all(type(x) is int for x in backend.records(0))
        blk = backend.fetch(0)
        assert all(type(x) is int for x in blk.records())
        # The row writes store Python ints too, and the row reads hand
        # out uint64 arrays whose lists are Python ints.
        backend.create_many([1, 2])
        backend.append_many([1], _u64(4, 5), [0, 2])
        backend.replace_many([2], _u64(6), [0, 1])
        for bid in (1, 2):
            assert all(type(x) is int for x in backend.records(bid))
            assert all(type(x) is int for x in backend.fetch(bid).records())
        for rows in (backend.records_many([0, 1, 2]), backend.drain_many([2, 1])):
            assert rows.dtype == np.uint64
            assert all(type(x) is int for x in rows.tolist())

    # -- the row primitives against the per-block loops they replace ---------

    def test_row_reads_equal_their_loops(self, backend):
        row, twin = _history(backend.name), _history(backend.name)
        _reads_equal_their_loops(row, twin)
        for call in ("length_many", "is_fresh_many", "records_many", "drain_many"):
            assert getattr(row, call)([]).tolist() == []

    @pytest.mark.parametrize("method", ["append", "replace"])
    def test_row_writes_equal_their_loops(self, backend, method):
        """Groups of 0 to 4 records over a non-ascending run: an empty
        group, a fresh block, blocks filled to exactly the capacity, a
        header-only block, on recycled arena slots."""
        row, twin = _history(backend.name), _history(backend.name)
        _writes_equal_their_loops(row, twin, method)
        getattr(row, f"{method}_many")([], *_groups(method, 0))
        assert _row_state(row) == _row_state(twin)

    @pytest.mark.parametrize("method", ["append", "replace"])
    def test_overflowing_run_changes_nothing(self, backend, method):
        """A group that would overflow its block raises before any block
        of the run is written, the blocks before it included."""
        row, twin = _history(backend.name), _history(backend.name)
        items, bounds = _groups(method, len(ROW))
        items = np.concatenate([items, _u64(95, 96, 97, 98)])
        bounds[-1] += 4  # the last group, block 3's, overflows
        with pytest.raises(ValueError, match="capacity of 4"):
            getattr(row, f"{method}_many")(ROW, items, bounds)
        assert _row_state(row) == _row_state(twin)

    @pytest.mark.parametrize("method", ["append", "replace"])
    def test_rows_of_a_reopened_durable_arena(self, method):
        """The arena scatter and gather over a durable arena re-opened from
        its flushed files, against the loops on a mapping twin."""
        before = _history("durable-arena")
        before.flush()
        row, twin = DurableArenaBackend.open(before.path), _history("mapping")
        assert _row_state(row) == _row_state(twin)
        _writes_equal_their_loops(row, twin, method)
        _reads_equal_their_loops(row, twin)


class TestArena:
    def test_growth_past_initial_slots(self):
        arena = ArenaBackend(4, initial_slots=2)
        arena.create_many(range(50))
        for bid in range(50):
            arena.append(bid, [bid])
        assert arena.count() == 50
        assert [arena.records(bid) for bid in range(50)] == [[b] for b in range(50)]

    def test_slot_recycling(self):
        arena = ArenaBackend(4, initial_slots=2)
        arena.create(0)
        arena.append(0, [1, 2])
        arena.delete(0)
        arena.create(1)  # reuses the freed slot
        assert arena.length(1) == 0  # stale contents never leak
        assert arena.is_fresh(1)
        assert arena._data.shape[0] == 2

    def test_records_arr_is_view(self):
        arena = ArenaBackend(8)
        arena.create(0)
        arena.append(0, [5, 6])
        view = arena.records_arr(0)
        assert view.base is not None  # zero-copy into the arena matrix
        assert view.tolist() == [5, 6]

    def test_contains_keys_gather_ignores_stale_records(self):
        """The row gather answers exactly like per-pair ``contains_key``:
        records left past a block's length by a removal, a drain or a
        shorter replace never count, nor does an empty block."""
        arena = ArenaBackend(8)
        arena.create_many(range(4))
        arena.append(0, [1, 2, 3, 4])
        assert arena.remove_key(0, 4)  # 4 stays in the row, past the length
        arena.append(1, [5, 6])
        arena.replace(1, [7])  # 6 is stale
        arena.append(2, [8])
        arena.drain(2)  # 8 is stale in an empty block
        arena.append(3, [9, 9, 2])
        block_ids = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3, 3], dtype=np.int64)
        keys = np.array([1, 3, 4, 7, 6, 8, 0, 9, 2, 4], dtype=np.uint64)
        got = arena.contains_keys(block_ids, keys)
        assert got.tolist() == [
            arena.contains_key(b, k) for b, k in zip(block_ids.tolist(), keys.tolist())
        ]
        assert got.tolist() == [True, True, False, True, False, False, False,
                                True, True, False]
        assert arena.contains_keys(block_ids[5:7], keys[5:7]).tolist() == [False] * 2
        assert arena.contains_keys(block_ids[:0], keys[:0]).tolist() == []

    def test_remove_keys_runs_its_chunks_in_order(self, monkeypatch):
        """Chunks of pairs see the removals of the chunks before them:
        a pair repeated across a chunk boundary still misses."""
        monkeypatch.setattr(ArenaBackend, "_REMOVE_CHUNK", 2)
        arena = ArenaBackend(8)
        arena.create_many(range(2))
        arena.append(0, [1, 2, 3])
        arena.append(1, [4, 5])
        block_ids = np.array([0, 1, 0, 0, 1], dtype=np.int64)
        keys = np.array([2, 5, 2, 3, 4], dtype=np.uint64)
        assert arena.remove_keys(block_ids, keys).tolist() == [True, True, False,
                                                               True, True]
        assert (arena.records(0), arena.records(1)) == ([1], [])


class TestDiskOverBackends:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_loan_cycle_round_trips(self, name):
        disk = Disk(8, backend=name)
        bid = disk.allocate()
        blk = disk.load(bid)
        blk.extend([4, 5])
        disk.store(bid, blk)
        assert disk.peek(bid).records() == [4, 5]
        with disk.modify(bid) as b:
            b.append(6)
        assert disk.peek(bid).records() == [4, 5, 6]

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_modify_rolls_back_on_error(self, name):
        disk = Disk(8, backend=name)
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        with pytest.raises(RuntimeError):
            with disk.modify(bid) as blk:
                blk.append(2)
                raise RuntimeError("abort")
        assert disk.peek(bid).records() == [1]

    @staticmethod
    def _state(disk, bid):
        """What a load must not leave behind: contents, ledger, residency."""
        pool = disk.cache
        return (
            disk.peek(bid),
            disk.stats.snapshot(),
            disk.stats._last_read_block,
            None if pool is None else (pool.resident(), pool.stats.snapshot()),
        )

    @pytest.mark.parametrize("cache_blocks", [0, 2])
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_unstored_load_changes_nothing(self, name, cache_blocks):
        """``load`` hands out a private copy: mutating it without ``store``
        reaches neither the stored block nor the ledger nor the pool."""
        disk = (CachedDisk(8, cache_blocks=cache_blocks, backend=name)
                if cache_blocks else Disk(8, backend=name))
        bid, other = disk.allocate_many(2)
        disk.write(bid, Block(8, data=[1]))
        disk.read(other)
        disk.read(bid)  # resident when cached: the load below is a hit
        blk = disk.load(bid)
        after_load = self._state(disk, bid)
        blk.append(2)
        blk.header["next"] = other
        assert self._state(disk, bid) == after_load
        assert disk.peek(bid) == Block(8, data=[1])

    @pytest.mark.parametrize("cache_blocks", [0, 2])
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_raising_modify_stores_nothing(self, name, cache_blocks):
        disk = (CachedDisk(8, cache_blocks=cache_blocks, backend=name)
                if cache_blocks else Disk(8, backend=name))
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        before = disk.stats.snapshot()
        with pytest.raises(RuntimeError):
            with disk.modify(bid) as blk:
                blk.append(2)
                raise RuntimeError("abort")
        assert disk.peek(bid) == Block(8, data=[1])
        delta = disk.stats.delta_since(before)
        assert (delta.reads, delta.writes, delta.combined) == (1, 0, 0)
        assert disk.stats._last_read_block == bid

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_first_id_strides_namespace(self, name):
        disk = Disk(8, backend=name, first_id=1000)
        assert disk.allocate_many(3) == [1000, 1001, 1002]
        with pytest.raises(InvalidBlockError):
            disk.read(0)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_read_records_charges_like_scan(self, name):
        disk = Disk(8, backend=name)
        ids = disk.allocate_many(3)
        for bid in ids:
            disk.write(bid, Block(8, data=[bid, bid + 10]))
        before = disk.stats.snapshot()
        out = disk.read_records(ids)
        delta = disk.stats.delta_since(before)
        assert delta.reads == 3 and delta.writes == 0
        assert out == [ids[0], ids[0] + 10, ids[1], ids[1] + 10, ids[2], ids[2] + 10]
