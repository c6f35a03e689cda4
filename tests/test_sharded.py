"""ShardedDictionary: routing, aggregation, and snapshot disjointness.

The bit-identity contracts (scalar/batch, backends, N=1 transparency)
live in ``tests/test_batch_parity.py``; this file covers the router's
own semantics: keys land where the router says, per-shard namespaces
never collide, aggregate stats/snapshots are the shard sums, and the
lower-bound zone analyser consumes a sharded table unchanged.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.buffered import BufferedHashTable
from repro.em import make_context
from repro.em.errors import ConfigurationError
from repro.hashing.family import MULTIPLY_SHIFT
from repro.lowerbound.zones import decompose
from repro.tables import ChainedHashTable, ShardedDictionary, make_sharded, shard_view
from repro.tables.sharded import SHARD_ID_STRIDE
from repro.workloads.drivers import measure_table


def _buffered(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _chained(ctx):
    return ChainedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _keys(n=1500, seed=5):
    return random.Random(seed).sample(range(10**12), n)


@pytest.fixture
def sharded():
    ctx = make_context(b=32, m=512)
    table = ShardedDictionary(ctx, _buffered, shards=4)
    return ctx, table


class TestRouting:
    def test_every_item_lands_in_its_shard(self, sharded):
        _, table = sharded
        table.insert_batch(_keys())
        table.check_invariants()  # asserts per-item shard residency

    def test_scalar_and_batch_routing_agree(self, sharded):
        _, table = sharded
        keys = _keys(400)
        arr = np.asarray(keys, dtype=np.uint64)
        vec = table.directory.shards_of(arr).tolist()
        assert vec == [table.shard_of(k) for k in keys]

    def test_lookup_finds_all_and_only_inserted(self, sharded):
        _, table = sharded
        keys = _keys()
        table.insert_batch(keys)
        assert bool(table.lookup_batch(keys).all())
        misses = _keys(300, seed=99)
        expected = [k in set(keys) for k in misses]
        assert table.lookup_batch(misses).tolist() == expected

    def test_duplicates_are_idempotent(self, sharded):
        _, table = sharded
        keys = _keys(600)
        table.insert_batch(keys + keys[:200])
        assert len(table) == len(set(keys))

    def test_delete_routes_to_owning_shard(self):
        ctx = make_context(b=32, m=512)
        table = ShardedDictionary(ctx, _chained, shards=4)
        keys = _keys(800)
        table.insert_batch(keys)
        for k in keys[::7]:
            assert table.delete(k)
        assert not table.delete(keys[0])  # already gone
        assert len(table) == len(keys) - len(keys[::7])
        survivors = [k for k in keys if k not in set(keys[::7])]
        assert bool(table.lookup_batch(survivors).all())
        assert not table.lookup_batch(keys[::7]).any()

    def test_invalid_shard_count_rejected(self):
        ctx = make_context(b=32, m=512)
        with pytest.raises(ConfigurationError):
            ShardedDictionary(ctx, _buffered, shards=0)


class TestAggregation:
    def test_stats_sum_over_shards(self, sharded):
        _, table = sharded
        keys = _keys()
        table.insert_batch(keys)
        table.lookup_batch(keys[:500])
        agg = table.stats
        per_shard = [t.stats for t in table.shard_tables()]
        assert agg.inserts == sum(s.inserts for s in per_shard) == len(keys)
        assert agg.lookups == sum(s.lookups for s in per_shard) == 500
        assert agg.hits == 500
        assert agg.merges == sum(s.merges for s in per_shard)

    def test_size_and_shard_sizes(self, sharded):
        _, table = sharded
        keys = _keys()
        table.insert_batch(keys)
        assert sum(table.shard_sizes()) == len(table) == len(set(keys))
        # The router hash spreads keys roughly evenly over 4 shards.
        assert min(table.shard_sizes()) > len(keys) // 10

    def test_shard_ledgers_fold_into_parent(self, sharded):
        ctx, table = sharded
        ledgers = [t.ctx.stats for t in table.shard_tables()]
        assert len({id(s) for s in [ctx.stats, *ledgers]}) == 1 + len(ledgers)

        def assert_folded():
            shard_sum = {}
            for s in ledgers:
                for field, value in s.snapshot().as_dict().items():
                    shard_sum[field] = shard_sum.get(field, 0) + value
            assert ctx.stats.snapshot().as_dict() == shard_sum

        assert_folded()
        # Enough keys that every shard leaves its in-memory bootstrap.
        keys = _keys(8000)
        table.insert_batch(keys[:7000])
        assert ctx.stats.total > 0
        assert_folded()
        for k in keys[7000:7040]:
            table.insert(k)
            assert_folded()
            table.lookup(k)
            assert_folded()
            table.delete(k)
            assert_folded()
        table.lookup_batch(keys[:500])
        assert_folded()
        before, costs = ctx.stats.total, []
        table.lookup_batch(keys[:500], cost_out=costs)
        assert_folded()
        assert sum(costs) == ctx.stats.total - before > 0
        table.delete_batch(keys[:100])
        assert_folded()
        before, costs = ctx.stats.total, []
        table.delete_batch(keys[100:200], cost_out=costs)
        assert_folded()
        assert sum(costs) == ctx.stats.total - before > 0
        before = ctx.stats.total
        slot = int(table.directory.shard_slots(0)[0])
        report = table.migrate_slots([(slot, 0, 1)])
        assert report.keys_moved > 0
        assert ctx.stats.total > before
        assert_folded()

    def test_memory_high_water_aggregates(self, sharded):
        _, table = sharded
        table.insert_batch(_keys())
        assert table.memory_high_water() == sum(
            sub.memory.high_water for sub in [t.ctx for t in table.shard_tables()]
        )
        assert table.memory_high_water() > 0

    def test_nonempty_disk_blocks_aggregates(self, sharded):
        _, table = sharded
        table.insert_batch(_keys(8000))
        assert table.nonempty_disk_blocks() == sum(
            sub.disk.nonempty_blocks() for sub in [t.ctx for t in table.shard_tables()]
        )
        assert table.nonempty_disk_blocks() > 0


class TestSnapshot:
    def test_block_id_namespaces_disjoint(self, sharded):
        _, table = sharded
        table.insert_batch(_keys())
        per_shard_ids = [set(t.layout_snapshot().blocks) for t in table.shard_tables()]
        for i, ids in enumerate(per_shard_ids):
            lo = i * SHARD_ID_STRIDE
            assert all(lo <= bid < lo + SHARD_ID_STRIDE for bid in ids)
            for other in per_shard_ids[i + 1 :]:
                assert not (ids & other)

    def test_union_snapshot_and_address_routing(self, sharded):
        _, table = sharded
        keys = _keys()
        table.insert_batch(keys)
        snap = table.layout_snapshot()
        shard_snaps = [t.layout_snapshot() for t in table.shard_tables()]
        assert len(snap.blocks) == sum(len(s.blocks) for s in shard_snaps)
        assert snap.memory_items == frozenset().union(
            *[s.memory_items for s in shard_snaps]
        )
        # The aggregated address function equals the owning shard's.
        for k in keys[::97]:
            shard = table.shard_of(k)
            assert snap.address(k) == shard_snaps[shard].address(k)
        assert snap.item_count() == len(table)

    def test_zone_analyser_consumes_sharded_snapshot(self, sharded):
        _, table = sharded
        keys = _keys()
        table.insert_batch(keys)
        z = decompose(table.layout_snapshot())
        assert len(z.memory) + len(z.fast) + len(z.slow) == len(table)
        assert z.query_cost_lower_bound() >= 0


class TestShardView:
    def test_shard_view_strides_and_shares(self):
        parent = make_context(b=32, m=512, backend="arena")
        sub = shard_view(parent, 3)
        assert sub.disk is not parent.disk
        assert sub.memory is not parent.memory
        assert sub.params == parent.params
        assert sub.disk.allocate() == 3 * SHARD_ID_STRIDE
        assert type(sub.disk.backend).name == "arena"

    def test_driver_integration(self):
        # measure_table with shards routes through the sharded wrapper
        # and reports aggregated load factor / memory peak.
        m = measure_table(
            lambda: make_context(b=32, m=512, backend="arena"),
            _buffered,
            8000,
            shards=4,
            seed=3,
        )
        assert m.n == 8000
        assert m.t_q >= 0
        assert m.load_factor > 0
        assert m.memory_high_water > 0

    def test_make_sharded_factory(self):
        factory = make_sharded(_buffered, 2, name="pair")
        ctx = make_context(b=32, m=512)
        table = factory(ctx)
        assert isinstance(table, ShardedDictionary)
        assert table.shards == 2
        assert table.name == "pair"
