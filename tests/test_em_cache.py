"""Unit tests for the LRU BufferPool."""

import numpy as np
import pytest

from repro.em import (
    Block,
    BufferPool,
    ConfigurationError,
    Disk,
    MemoryBudget,
    STRICT_POLICY,
    IOStats,
)


@pytest.fixture
def disk():
    return Disk(4, stats=IOStats(policy=STRICT_POLICY))


def fill(disk, n):
    ids = disk.allocate_many(n)
    for bid in ids:
        disk.write(bid, Block(4, data=[bid]))
    disk.stats.reset()
    return ids


class TestHitsAndMisses:
    def test_first_get_misses_then_hits(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        pool.get(ids[0])
        pool.get(ids[0])
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert disk.stats.reads == 1  # only the miss touched disk

    def test_hit_charges_no_io(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        pool.get(ids[0])
        before = disk.stats.total
        pool.get(ids[0])
        assert disk.stats.total == before

    def test_hit_rate(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        pool.get(ids[0])
        pool.get(ids[0])
        pool.get(ids[0])
        assert pool.stats.hit_rate == pytest.approx(2 / 3)


class TestEvictionAndWriteback:
    def test_lru_eviction_order(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        pool.get(ids[0])
        pool.get(ids[1])
        pool.get(ids[2])  # evicts ids[0]
        assert not pool.is_resident(ids[0])
        assert pool.is_resident(ids[1])
        assert pool.is_resident(ids[2])

    def test_get_refreshes_lru_position(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        pool.get(ids[0])
        pool.get(ids[1])
        pool.get(ids[0])  # refresh 0; 1 is now LRU
        pool.get(ids[2])
        assert pool.is_resident(ids[0])
        assert not pool.is_resident(ids[1])

    def test_clean_eviction_no_writeback(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        for bid in ids:
            pool.get(bid)
        assert pool.stats.writebacks == 0
        assert disk.stats.writes == 0

    def test_dirty_eviction_writes_back(self, disk):
        ids = fill(disk, 3)
        pool = BufferPool(disk, 2)
        pool.put(ids[0], Block(4, data=[99]))
        pool.get(ids[1])
        pool.get(ids[2])  # evicts dirty ids[0]
        assert pool.stats.writebacks == 1
        assert disk.peek(ids[0]).records() == [99]

    def test_flush_writes_all_dirty(self, disk):
        ids = fill(disk, 2)
        pool = BufferPool(disk, 4)
        pool.put(ids[0], Block(4, data=[10]))
        pool.put(ids[1], Block(4, data=[20]))
        written = pool.flush()
        assert written == 2
        assert disk.peek(ids[0]).records() == [10]
        assert disk.peek(ids[1]).records() == [20]
        assert pool.flush() == 0  # idempotent

    def test_mark_dirty_requires_residency(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        with pytest.raises(KeyError):
            pool.mark_dirty(ids[0])
        pool.get(ids[0])
        pool.mark_dirty(ids[0])
        assert pool.flush() == 1

    def test_invalidate_discard_drops_changes(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        pool.put(ids[0], Block(4, data=[77]))
        pool.invalidate(ids[0], discard=True)
        assert disk.peek(ids[0]).records() == [ids[0]]

    def test_invalidate_default_writes_back(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        pool.put(ids[0], Block(4, data=[77]))
        pool.invalidate(ids[0])
        assert disk.peek(ids[0]).records() == [77]


class TestBudgetIntegration:
    def test_frames_charged_to_budget(self, disk):
        budget = MemoryBudget(100)
        BufferPool(disk, 3, budget=budget, owner="pool")
        assert budget.charge_of("pool") == 3 * disk.b

    def test_close_releases_charge(self, disk):
        budget = MemoryBudget(100)
        pool = BufferPool(disk, 3, budget=budget, owner="pool")
        pool.close()
        assert budget.charge_of("pool") == 0

    def test_zero_capacity_rejected(self, disk):
        with pytest.raises(ConfigurationError):
            BufferPool(disk, 0)


def test_resident_order_is_lru_first(disk):
    ids = fill(disk, 3)
    pool = BufferPool(disk, 3)
    for bid in ids:
        pool.get(bid)
    pool.get(ids[0])
    assert pool.resident() == [ids[1], ids[2], ids[0]]
    assert len(pool) == 3


class TestCopySemantics:
    def test_get_returns_private_copy(self, disk):
        """Mutating a ``get()`` result must never reach the frame: the
        frame would silently diverge from its dirty tracking."""
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        blk = pool.get(ids[0])
        blk.append(424242)
        again = pool.get(ids[0])
        assert again.records() == [ids[0]]  # aliasing regression
        pool.invalidate(ids[0])  # clean frame: nothing written back
        assert disk.peek(ids[0]).records() == [ids[0]]

    def test_get_copy_false_loans_live_frame(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        pool.get(ids[0])
        loan = pool.get(ids[0], copy=False)
        assert loan is pool.get(ids[0], copy=False)

    def test_put_then_get_does_not_alias_the_frame(self, disk):
        ids = fill(disk, 1)
        pool = BufferPool(disk, 2)
        pool.put(ids[0], Block(4, data=[7]))
        got = pool.get(ids[0])
        got.append(8)
        pool.invalidate(ids[0])  # writes back the dirty frame
        assert disk.peek(ids[0]).records() == [7]


class TestStatsLifecycle:
    def test_negative_hits_outside_hit_rate(self):
        from repro.em.cache import CacheStats

        s = CacheStats(hits=3, misses=1, negative_hits=10)
        assert s.accesses == 4
        assert s.hit_rate == pytest.approx(0.75)

    def test_snapshot_delta_absorb_roundtrip(self):
        from repro.em.cache import CacheStats

        s = CacheStats(hits=5, misses=2, negative_hits=1, writebacks=1,
                       evictions=3)
        snap = s.snapshot()
        s.hits += 10
        s.misses += 4
        s.negative_hits += 2
        d = s.delta_since(snap)
        assert (d.hits, d.misses, d.negative_hits) == (10, 4, 2)
        assert (d.writebacks, d.evictions) == (0, 0)
        agg = CacheStats()
        agg.absorb(snap)
        agg.absorb(d)
        assert agg == s

    def test_clear_preserves_stats(self, disk):
        ids = fill(disk, 2)
        pool = BufferPool(disk, 4)
        pool.get(ids[0])
        pool.get(ids[0])
        pool.get(ids[1])
        pool.clear()
        assert len(pool) == 0
        assert pool.stats.hits == 1 and pool.stats.misses == 2

    def test_close_preserves_stats(self, disk):
        ids = fill(disk, 1)
        budget = MemoryBudget(100)
        pool = BufferPool(disk, 2, budget=budget, owner="pool")
        pool.get(ids[0])
        pool.get(ids[0])
        pool.close()
        assert budget.charge_of("pool") == 0
        assert pool.stats.hits == 1 and pool.stats.misses == 1


class TestOnEvictHook:
    def _hooked(self, disk, capacity):
        pool = BufferPool(disk, capacity)
        dropped: list[int] = []
        pool.on_evict = dropped.append
        return pool, dropped

    def test_fires_on_lru_eviction(self, disk):
        ids = fill(disk, 3)
        pool, dropped = self._hooked(disk, 2)
        for bid in ids:
            pool.get(bid)
        assert dropped == [ids[0]]
        assert pool.stats.evictions == 1

    def test_fires_on_invalidate(self, disk):
        ids = fill(disk, 1)
        pool, dropped = self._hooked(disk, 2)
        pool.get(ids[0])
        pool.invalidate(ids[0], discard=True)
        assert dropped == [ids[0]]
        pool.invalidate(ids[0], discard=True)  # absent: no callback
        assert dropped == [ids[0]]

    def test_fires_on_clear_for_every_frame(self, disk):
        ids = fill(disk, 3)
        pool, dropped = self._hooked(disk, 4)
        for bid in ids:
            pool.get(bid)
        pool.clear()
        assert sorted(dropped) == sorted(ids)


class TestAccessSequence:
    """``access_sequence`` is a loop of per-id reads, replayed over ints."""

    #: Repeated ids, back-to-back repeats, and far more references than
    #: the pool's 3 frames.
    REFS = [0, 1, 2, 0, 3, 0, 4, 1, 1, 5, 2, 0, 5, 5, 3, 6, 0, 1, 6, 2]

    def _pool(self, n=7, capacity=3):
        disk = Disk(4, stats=IOStats(policy=STRICT_POLICY))
        ids = fill(disk, n)
        pool = BufferPool(disk, capacity)
        dropped: list[int] = []
        pool.on_evict = dropped.append
        return pool, ids, dropped

    def test_matches_a_loop_of_gets(self):
        loop, ids, loop_dropped = self._pool()
        replay, _, replay_dropped = self._pool()
        seq = [ids[i] for i in self.REFS]
        expected = []
        for bid in seq:
            hits = loop.stats.hits
            loop.get(bid)
            expected.append(loop.stats.hits > hits)
        mask = replay.access_sequence(seq)
        # The replay charges nothing; its caller charges the misses.
        assert replay.disk.stats.reads == 0
        replay.disk.stats.record_reads([b for b, h in zip(seq, mask) if not h])
        assert mask.tolist() == expected
        assert replay.stats == loop.stats
        assert replay.stats.evictions > 0
        assert replay.resident() == loop.resident()
        assert replay_dropped == loop_dropped
        assert replay.disk.stats.snapshot() == loop.disk.stats.snapshot()
        assert replay.disk.stats._last_read_block == loop.disk.stats._last_read_block

    def test_matches_a_loop_of_access(self):
        loop, ids, loop_dropped = self._pool()
        replay, _, replay_dropped = self._pool()
        seq = np.asarray([ids[i] for i in self.REFS], dtype=np.int64)
        expected = [loop.access(bid) for bid in seq.tolist()]
        assert replay.access_sequence(seq).tolist() == expected
        assert replay.stats == loop.stats
        assert replay.resident() == loop.resident()
        assert replay_dropped == loop_dropped

    def test_empty_sequence(self):
        pool, _, dropped = self._pool()
        assert pool.access_sequence([]).tolist() == []
        assert pool.stats == pool.stats.__class__() and dropped == []

    def test_residency_only_frame_serves_get(self):
        """A replayed frame holds no block; ``get`` reads it uncharged."""
        pool, ids, _ = self._pool()
        pool.access_sequence([ids[0]])
        assert pool.get(ids[0]).records() == [ids[0]]
        assert pool.stats.hits == 1 and pool.disk.stats.reads == 0
        assert pool.get(ids[0], copy=False) is pool.get(ids[0], copy=False)
