"""Unit tests for the pluggable storage backends.

The cross-structure bit-identity guarantees live in
``tests/test_batch_parity.py``; these exercise the backend protocol
directly: lifecycle, slot recycling, arena growth, header persistence,
odd record widths, and the record-level primitives both backends share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.em import (
    ArenaBackend,
    BACKENDS,
    Block,
    Disk,
    InvalidBlockError,
    MappingBackend,
    make_backend,
)
from repro.em.errors import ConfigurationError


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return make_backend(request.param, 8)


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

    def test_odd_record_widths_fall_back(self):
        arena = ArenaBackend(8, record_words=1)
        arena.create(0, record_words=2)
        blk = arena.fetch(0)
        assert blk.capacity_records == 4
        blk.extend([1, 2, 3, 4])
        arena.commit(0, blk)
        assert arena.records(0) == [1, 2, 3, 4]
        arena.create(1)
        arena.append(1, [5])
        ids = np.array([0, 1, 0], dtype=np.int64)
        keys = np.array([3, 5, 5], dtype=np.uint64)
        assert arena.contains_keys(ids, keys).tolist() == [True, True, False]
        assert arena.remove_keys(ids, keys).tolist() == [True, True, False]
        assert (arena.records(0), arena.records(1)) == ([1, 2, 4], [])
        arena.append(0, [3])
        arena.delete(1)
        assert arena.words_stored() == 8
        assert arena.nonempty() == 1
        arena.delete(0)
        assert arena.count() == 0


class TestDiskOverBackends:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_loan_cycle_round_trips(self, name):
        disk = Disk(8, backend=name)
        bid = disk.allocate()
        blk = disk.load(bid)
        blk.extend([4, 5])
        disk.store(bid)
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

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_stale_loan_keeps_stored_contents(self, name):
        disk = Disk(8, backend=name)
        bid = disk.allocate()
        blk = disk.load(bid)
        blk.append(1)
        disk.write(bid, Block(8, data=[7, 8]))  # loan goes stale
        disk.store(bid)  # must not resurrect the dead handle
        assert disk.peek(bid).records() == [7, 8]

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
