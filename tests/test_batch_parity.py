"""Batch vs. scalar parity: the I/O-equivalence contract, enforced.

``insert_batch`` / ``lookup_batch`` / ``delete_batch`` promise
**bit-identical** I/O accounting to the scalar per-key loops: the same
:class:`~repro.em.iostats.IOStats` counters (reads, writes, combined
read-modify-writes, allocations), the same
:class:`~repro.tables.base.TableStats`, the same
:meth:`~repro.tables.base.ExternalDictionary.layout_snapshot` contents
(block ids included — allocation order must match), and the same memory
high-water mark — under both the paper's footnote-2 policy and the
strict one, across seeds, with duplicate keys in the stream, and when
batches interleave with queries mid-build.

Two context shapes are exercised: a roomy one where all buckets stay
single-block (the vectorised fast paths), and a cramped one (tiny
``b``) where overflow chains force every fallback branch.

Two further axes ride on top since the pluggable-backend PR:

* **backend parity** — every table, driven identically over the
  ``mapping`` and ``arena`` backends, must produce bit-identical I/O
  counters, layouts and memory peaks (the backend is a representation
  choice, never an accounting one);
* **shard sweep** — the :class:`ShardedDictionary` router over
  N ∈ {1, 2, 8} shards obeys the full scalar/batch contract at every N
  and backend (per-shard strided disk namespaces make shard state
  interleaving-independent), and N = 1 is bit-transparent against the
  bare inner table;
* **cached axis** — with a buffer pool attached (2 and 48 frames), the
  batch paths must also leave every pool exactly where the cached
  scalar loops leave it: hit/miss/negative-hit/eviction counts, the LRU
  resident order, and the pending read-modify-write block (each shard's,
  for the sharded router), after every ``lookup_batch``.
  The ``REPLAYING`` tables answer cached batches vectorised too,
  replaying the scalar walk's block ids through the pool, so this pins
  the replay order;
* **small batches** — 1, 3 and 45 lookups against those two tables
  past the bootstrap, with non-empty levels, chains in Ĥ and in a level
  (cramped) or up to six blocks deep (log-method), take the
  address-then-gather walk; costs, the pending RMW block and the pool
  must match the scalar lookups;
* **delete batches** — 1 key and either side of the removing walk's
  crossover, on the same shapes, with every pool size: repeated keys,
  misses, ``H_0`` keys and a batch that empties a log-method level;
* **per-op costs** — ``cost_out`` of ``lookup_batch`` and
  ``delete_batch`` equals each scalar op's ledger delta on every table,
  uncached and behind 2- and 8-frame pools, where a resident block
  costs nothing.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.btree import BTree
from repro.baselines.buffer_tree import BufferTree
from repro.baselines.lsm import LSMTree
from repro.core import logmethod
from repro.core.buffered import BufferedHashTable
from repro.core.logmethod import LogMethodHashTable
from repro.em import PAPER_POLICY, STRICT_POLICY, CachedDisk, Disk, make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.tables import (
    ChainedHashTable,
    ExtendibleHashTable,
    LinearHashingTable,
    LinearProbingHashTable,
    ShardedDictionary,
    make_sharded,
)

N_KEYS = 1800
N_PROBE = 600


def _chained(ctx):
    return ChainedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _linear_probing(ctx):
    return LinearProbingHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _logmethod(ctx):
    return LogMethodHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _buffered(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _lsm(ctx):
    return LSMTree(ctx, bloom_bits_per_key=4.0)


def _lsm_nobloom(ctx):
    return LSMTree(ctx)


def _sharded_buffered(ctx):
    return ShardedDictionary(ctx, _buffered, shards=2)


def _buffer_tree(ctx):
    return BufferTree(ctx)


def _btree(ctx):
    return BTree(ctx)


def _extendible(ctx):
    return ExtendibleHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _linear_hashing(ctx):
    return LinearHashingTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


#: factory -> context kwargs per shape ("roomy" single-block, "cramped"
#: chain-heavy).  BufferTree needs m >= 4b, so its cramped shape differs.
TABLES = {
    "chained": (_chained, dict(b=32, m=512), dict(b=4, m=128)),
    "linear_probing": (_linear_probing, dict(b=32, m=512), dict(b=4, m=128)),
    "logmethod": (_logmethod, dict(b=32, m=512), dict(b=4, m=128)),
    "buffered": (_buffered, dict(b=32, m=512), dict(b=4, m=128)),
    "lsm": (_lsm, dict(b=32, m=512), dict(b=4, m=128)),
    "lsm_nobloom": (_lsm_nobloom, dict(b=32, m=512), dict(b=4, m=128)),
    "buffer_tree": (_buffer_tree, dict(b=32, m=512), dict(b=8, m=64)),
    "btree": (_btree, dict(b=32, m=512), dict(b=8, m=256)),
    "extendible": (_extendible, dict(b=32, m=512), dict(b=8, m=256)),
    "linear_hashing": (_linear_hashing, dict(b=32, m=512), dict(b=8, m=256)),
    # The router over two buffered shards: full contract, every test.
    "sharded_buffered": (_sharded_buffered, dict(b=32, m=512), dict(b=4, m=128)),
}

POLICIES = {"paper": PAPER_POLICY, "strict": STRICT_POLICY}

BACKENDS = ("mapping", "arena")


def _keys(seed: int, *, dupes: bool) -> tuple[list[int], list[int]]:
    rnd = random.Random(seed)
    keys = rnd.sample(range(10**12), N_KEYS)
    if dupes:
        # Re-insertions scattered mid-stream exercise the dedup screens.
        keys = keys[:1200] + keys[200:500] + keys[1200:]
    probe = keys[::3] + rnd.sample(range(10**12), N_PROBE)
    return keys, probe


def _state(ctx, table):
    snap = table.layout_snapshot()
    return {
        "io": ctx.stats.snapshot(),
        "table_stats": table.stats,
        "memory_items": snap.memory_items,
        "blocks": snap.blocks,
        "size": len(table),
        # Table-level accessor: the context budget for plain tables, the
        # per-shard budget aggregate for the sharded router.
        "high_water": table.memory_high_water(),
    }


def _assert_same(scalar_state, batch_state, label: str) -> None:
    s, b = scalar_state["io"], batch_state["io"]
    assert (s.reads, s.writes, s.combined, s.allocations) == (
        b.reads,
        b.writes,
        b.combined,
        b.allocations,
    ), f"{label}: I/O counters diverge: scalar={s} batch={b}"
    assert scalar_state["table_stats"] == batch_state["table_stats"], label
    assert scalar_state["size"] == batch_state["size"], label
    assert scalar_state["memory_items"] == batch_state["memory_items"], label
    assert scalar_state["blocks"] == batch_state["blocks"], (
        f"{label}: disk layouts diverge"
    )
    assert scalar_state["high_water"] == batch_state["high_water"], label


def _cache_state(ctx, table):
    """Per disk (each shard's, for the sharded router): the pool's hits,
    misses, negative hits, evictions and LRU resident order, and the
    ledger's pending read-modify-write block."""
    contexts = (
        [t.ctx for t in table.shard_tables()]
        if isinstance(table, ShardedDictionary)
        else [ctx]
    )
    return {
        "pools": [
            (pool.stats.hits, pool.stats.misses, pool.stats.negative_hits,
             pool.stats.evictions, pool.resident())
            for pool in [sub.disk.cache for sub in contexts]
        ],
        "rmw": [sub.stats._last_read_block for sub in contexts],
    }


def _run_pair(factory, ctx_kwargs, policy, keys, probe, *, chunks: int,
              cache_blocks: int = 0):
    """Drive a scalar and a batch table identically; compare everything."""
    ctx_s = make_context(policy=policy, cache_blocks=cache_blocks, **ctx_kwargs)
    ctx_b = make_context(policy=policy, cache_blocks=cache_blocks, **ctx_kwargs)
    table_s = factory(ctx_s)
    table_b = factory(ctx_b)

    bounds = [len(keys) * i // chunks for i in range(chunks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = keys[lo:hi]
        table_s.insert_many(chunk)
        table_b.insert_batch(chunk)
        # Queries interleaved between insert batches (mix of hits and
        # misses) must agree in results and in charged I/Os.
        r_s = [table_s.lookup(k) for k in probe]
        r_b = table_b.lookup_batch(probe)
        assert r_s == r_b.tolist(), "lookup results diverge mid-build"
        assert isinstance(r_b, np.ndarray) and r_b.dtype == bool
        if cache_blocks:
            assert _cache_state(ctx_s, table_s) == _cache_state(ctx_b, table_b), (
                "cached lookup_batch leaves the pool or the pending RMW "
                "block where the scalar walk does not"
            )
        # Deletes ride the same interleaving: a thin slice of this
        # chunk's keys (some doubly listed in dupe streams — the second
        # delete must miss) plus guaranteed misses, scalar vs batch.
        victims = chunk[1::7] + [10**13 + lo, 10**13 + hi]
        d_s = table_s.delete_many(victims)
        d_b = table_b.delete_batch(victims)
        assert d_s == d_b.tolist(), "delete results diverge mid-build"
        assert isinstance(d_b, np.ndarray) and d_b.dtype == bool
    _assert_same(_state(ctx_s, table_s), _state(ctx_b, table_b), "final")
    if cache_blocks:
        assert _cache_state(ctx_s, table_s) == _cache_state(ctx_b, table_b), "final"
    table_s.check_invariants()
    table_b.check_invariants()


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_single_batch_parity(name, policy_name):
    factory, roomy, _ = TABLES[name]
    keys, probe = _keys(seed=11, dupes=False)
    _run_pair(factory, roomy, POLICIES[policy_name], keys, probe, chunks=1)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_interleaved_batches_parity(name, policy_name):
    factory, roomy, _ = TABLES[name]
    keys, probe = _keys(seed=23, dupes=True)
    _run_pair(factory, roomy, POLICIES[policy_name], keys, probe, chunks=4)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_cramped_chains_parity(name, policy_name):
    """Tiny blocks force overflow chains: the vectorised fast paths must
    detect them and fall back without breaking equivalence."""
    factory, _, cramped = TABLES[name]
    keys, probe = _keys(seed=37, dupes=True)
    keys, probe = keys[:700], probe[:300]
    # Soft memory budget: these deliberately under-sized contexts blow
    # the m-word limit (directories/fences alone exceed it); the
    # high-water mark is still compared for parity.
    cramped = dict(cramped, hard_memory=False)
    _run_pair(factory, cramped, POLICIES[policy_name], keys, probe, chunks=3)


#: Tables whose cached ``lookup_batch`` records its vectorised walk and
#: replays it through the pool (``Disk.charge_walk``) instead of taking
#: the per-key probes.
REPLAYING = (
    "btree", "buffer_tree", "buffered", "extendible", "logmethod", "lsm",
    "lsm_nobloom", "sharded_buffered",
)


@pytest.mark.parametrize("cache_blocks", [2, 48])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_cached_batch_parity(name, policy_name, cache_blocks, monkeypatch):
    """Cached batch vs cached scalar: the full contract plus the pool
    state (counts, LRU order) and the pending RMW block after every
    ``lookup_batch``; a 2-frame pool evicts on nearly every miss."""
    calls = []
    charge = CachedDisk.charge_walk

    def spy(self, n, rounds):
        calls.append(n)
        return charge(self, n, rounds)

    monkeypatch.setattr(CachedDisk, "charge_walk", spy)
    factory, roomy, _ = TABLES[name]
    keys, probe = _keys(seed=29, dupes=True)
    _run_pair(factory, roomy, POLICIES[policy_name], keys, probe, chunks=3,
              cache_blocks=cache_blocks)
    if name in REPLAYING:
        assert calls, "the cached batch never took the replay"


@pytest.mark.parametrize("name", ["btree", "buffered", "logmethod"])
def test_cached_parity_catches_a_misordered_replay(name, monkeypatch):
    """The cached parity check is sharp: replaying the right block ids
    in the wrong order must fail it."""
    charge = CachedDisk.charge_walk
    monkeypatch.setattr(
        CachedDisk,
        "charge_walk",
        lambda self, n, rounds: charge(
            self, n, [(n - 1 - pos, ids) for pos, ids in reversed(rounds)]
        )[::-1],
    )
    factory, roomy, _ = TABLES[name]
    keys, probe = _keys(seed=29, dupes=True)
    with pytest.raises(AssertionError, match="pending RMW"):
        _run_pair(factory, roomy, PAPER_POLICY, keys, probe, chunks=3,
                  cache_blocks=2)


def _logmethod_deep(ctx):
    """One base bucket: every level's buckets chain several blocks deep."""
    return LogMethodHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7), base_buckets=1)


#: (factory, context kwargs, keys inserted) per shape: past the
#: bootstrap with non-empty levels; the cramped shapes also chain
#: buckets in Ĥ and in a level, the deep one by up to six blocks
#: (asserted, so the cases cannot go stale).
SMALL_BATCH_SHAPES = {
    "buffered-roomy": (_buffered, dict(b=32, m=128), 2500),
    "buffered-cramped": (_buffered, dict(b=4, m=128), 2500),
    "logmethod-roomy": (_logmethod, dict(b=32, m=512), 1800),
    "logmethod-cramped": (_logmethod, dict(b=4, m=128), 1800),
    "logmethod-deep": (_logmethod_deep, dict(b=4, m=64), 1000),
}


def _walk_rows(table):
    """(Ĥ buckets or None, non-empty level bucket rows) of a table."""
    if isinstance(table, BufferedHashTable):
        assert not table._bootstrapping
        return table._hhat, [table._recent._levels[k - 1].buckets
                             for k in table._recent.nonempty_levels()]
    return None, [table._levels[k - 1].buckets for k in table.nonempty_levels()]


@pytest.mark.parametrize("cache_blocks", [0, 2, 48])
@pytest.mark.parametrize("shape", sorted(SMALL_BATCH_SHAPES))
def test_small_batches_take_the_gather_walk(shape, cache_blocks, monkeypatch):
    """Batches of 1, 3 and 45 keys probe each key's own block per row
    (``Disk.keys_in``) and must charge, cost and leave the pending RMW
    block and the pool exactly as the scalar lookups do."""
    gathers = []
    keys_in = Disk.keys_in

    def spy(disk, block_ids, keys):
        gathers.append(len(keys))
        return keys_in(disk, block_ids, keys)

    factory, ctx_kwargs, n_keys = SMALL_BATCH_SHAPES[shape]
    rnd = random.Random(83)
    keys = rnd.sample(range(10**12), n_keys)
    pool = keys[::2] + rnd.sample(range(10**12), n_keys // 4)
    ctx_s, ctx_b = (
        make_context(cache_blocks=cache_blocks, hard_memory=False, **ctx_kwargs)
        for _ in range(2)
    )
    table_s, table_b = factory(ctx_s), factory(ctx_b)
    table_s.insert_many(keys)
    table_b.insert_batch(keys)
    head, levels = _walk_rows(table_b)
    assert levels, "no non-empty level: the walk would not reach one"
    if not shape.endswith("roomy"):
        assert head is None or any(bkt._chain for bkt in head)
        assert any(bkt._chain for row in levels for bkt in row)
    if shape.endswith("deep"):
        assert max(bkt.chain_length for row in levels for bkt in row) >= 5
    monkeypatch.setattr(Disk, "keys_in", spy)
    for size, batches in ((1, 40), (3, 30), (45, 8)):
        del gathers[:]
        for _ in range(batches):
            batch = rnd.sample(pool, size)
            expected, expected_costs = [], []
            for k in batch:
                before = ctx_s.stats.snapshot()
                expected.append(table_s.lookup(k))
                expected_costs.append(ctx_s.stats.delta_since(before).total)
            costs: list[int] = []
            assert table_b.lookup_batch(batch, cost_out=costs).tolist() == expected
            assert costs == expected_costs
            assert ctx_b.stats._last_read_block == ctx_s.stats._last_read_block
            if cache_blocks:
                assert _cache_state(ctx_s, table_s) == _cache_state(ctx_b, table_b)
        assert gathers and max(gathers) <= size, "the walk never gathered"
    _assert_same(_state(ctx_s, table_s), _state(ctx_b, table_b), "small batches")


def _memory_keys(table):
    """The keys in the memory-resident level ``H_0``, sorted."""
    inner = table._recent if isinstance(table, BufferedHashTable) else table
    return sorted(inner._h0)


#: The smallest delete batch that takes the removing walk.
WALK_FROM = next(n for n in range(1, 10**4) if logmethod._walk_is_cheaper(n))


@pytest.mark.parametrize("cache_blocks", [0, 2, 48])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("shape", sorted(SMALL_BATCH_SHAPES))
def test_delete_batches_around_the_walk_crossover(shape, policy_name, cache_blocks,
                                                  monkeypatch):
    """Delete batches of 1 key, the crossover ± 1 and 420 keys — live keys
    in Ĥ, the levels and ``H_0``, a repeated key and a miss, after lookups
    that fill the pool — return, cost and charge what the scalar deletes
    do and leave the pending RMW block and the pool where they do; the
    walk runs from the crossover on.  The last batch empties a log-method
    level, with keys after the one that empties it."""
    walked = []
    walk = LogMethodHashTable.delete_levels_batch

    def spy(table, arr, mask, **kw):
        walked.append(len(arr))
        return walk(table, arr, mask, **kw)

    factory, ctx_kwargs, n_keys = SMALL_BATCH_SHAPES[shape]
    rnd = random.Random(89)
    keys = rnd.sample(range(10**12), n_keys)
    # The arena: its remove_keys is the gather the walk is for (the
    # mapping backend's is the remove_key loop the other cases run).
    ctx_s, ctx_b = (
        make_context(policy=POLICIES[policy_name], cache_blocks=cache_blocks,
                     hard_memory=False, backend="arena", **ctx_kwargs)
        for _ in range(2)
    )
    table_s, table_b = factory(ctx_s), factory(ctx_b)
    table_s.insert_many(keys)
    table_b.insert_batch(keys)
    monkeypatch.setattr(LogMethodHashTable, "delete_levels_batch", spy)

    def check(batch, with_costs):
        # Lookups first, so the deletes meet resident blocks in a pool.
        probes = batch[::2] + rnd.sample(keys, 8)
        assert table_b.lookup_batch(probes).tolist() == [table_s.lookup(k) for k in probes]
        expected, expected_costs = [], []
        for k in batch:
            before = ctx_s.stats.snapshot()
            expected.append(table_s.delete(k))
            expected_costs.append(ctx_s.stats.delta_since(before).total)
        # The walk charges in one sweep, or key by key to report costs.
        costs = [] if with_costs else None
        del walked[:]
        assert table_b.delete_batch(batch, cost_out=costs).tolist() == expected
        assert costs in (None, expected_costs)
        assert bool(walked) == (len(batch) >= WALK_FROM)
        assert ctx_b.stats._last_read_block == ctx_s.stats._last_read_block
        if cache_blocks:
            assert _cache_state(ctx_s, table_s) == _cache_state(ctx_b, table_b)
        _assert_same(_state(ctx_s, table_s), _state(ctx_b, table_b), shape)
        return expected

    live = set(keys)
    misses = iter(rnd.sample(range(10**12, 2 * 10**12), 100))
    sizes = (1,) * 6 + (WALK_FROM - 1, WALK_FROM, WALK_FROM + 1) * 2 + (420,)
    for i, size in enumerate(sizes):
        memory = _memory_keys(table_s)
        if size < 3:
            batch = [rnd.choice([*sorted(live)[:1], *memory[:1], next(misses)])]
        else:
            batch = rnd.sample(sorted(live), size - 3) + memory[:1] + [next(misses)]
            batch += [batch[0]] * (size - len(batch))
            rnd.shuffle(batch)
        assert len(batch) == size
        check(batch, with_costs=i % 2 == 0)
        live.difference_update(batch)

    _, levels = _walk_rows(table_b)
    row = min(levels, key=lambda r: sum(b.item_count() for b in r))
    doomed = [x for bkt in row for x in bkt.peek_all()]
    others = rnd.sample(sorted(live - set(doomed)), 2 * WALK_FROM + 20)
    batch = doomed + others[:WALK_FROM]
    rnd.shuffle(batch)
    # Live keys of every row and misses, after the key that empties it.
    check(batch + others[WALK_FROM:] + [next(misses) for _ in range(5)], with_costs=False)
    assert not any(bkt.peek_all() for bkt in row), "the batch left the level non-empty"
    table_s.check_invariants()
    table_b.check_invariants()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_sweep_buffered(seed):
    """The tentpole table, across seeds, paper policy, single batch."""
    factory, roomy, _ = TABLES["buffered"]
    keys, probe = _keys(seed=seed, dupes=seed % 2 == 0)
    _run_pair(factory, roomy, PAPER_POLICY, keys, probe, chunks=2)


#: ``(table, pool frames)`` for the two ``cost_out`` tests; an uncached
#: case keeps the bare table name as its id.
COST_OUT_CASES = [
    pytest.param(name, frames, id=f"{name}-cached{frames}" if frames else name)
    for name in sorted(TABLES)
    for frames in (0, 2, 8)
]


@pytest.mark.parametrize("name, cache_blocks", COST_OUT_CASES)
def test_cost_out_matches_snapshot_deltas(name, cache_blocks):
    """``lookup_batch(cost_out=...)`` reports exactly the per-query I/O
    deltas the old driver-side snapshot loop measured, uncached and
    behind a buffer pool (where a resident block costs nothing)."""
    factory, roomy, _ = TABLES[name]
    roomy = dict(roomy, cache_blocks=cache_blocks)
    keys, probe = _keys(seed=41, dupes=False)
    ctx = make_context(**roomy)
    table = factory(ctx)
    table.insert_batch(keys)

    costs: list[int] = []
    found = table.lookup_batch(probe, cost_out=costs)
    assert len(costs) == len(probe)

    ctx2 = make_context(**roomy)
    table2 = factory(ctx2)
    table2.insert_batch(keys)
    expected_costs = []
    expected_found = []
    for k in probe:
        before = ctx2.stats.snapshot()
        expected_found.append(table2.lookup(k))
        expected_costs.append(ctx2.stats.delta_since(before).total)
    assert costs == expected_costs
    assert found.tolist() == expected_found


@pytest.mark.parametrize("name, cache_blocks", COST_OUT_CASES)
def test_delete_cost_out_matches_snapshot_deltas(name, cache_blocks):
    """``delete_batch(cost_out=...)`` reports exactly the per-delete I/O
    deltas a driver-side snapshot loop around scalar deletes measures,
    uncached and behind a buffer pool."""
    factory, roomy, _ = TABLES[name]
    keys, probe = _keys(seed=43, dupes=False)
    victims = keys[::4] + probe[-200:]  # live keys + guaranteed misses
    # Soft budget: LSM tombstones for this many deletes legitimately
    # exceed the roomy m; the high-water mark is still compared.
    roomy = dict(roomy, hard_memory=False, cache_blocks=cache_blocks)

    ctx = make_context(**roomy)
    table = factory(ctx)
    table.insert_batch(keys)
    costs: list[int] = []
    removed = table.delete_batch(victims, cost_out=costs)
    assert len(costs) == len(victims)

    ctx2 = make_context(**roomy)
    table2 = factory(ctx2)
    table2.insert_batch(keys)
    expected_costs = []
    expected_removed = []
    for k in victims:
        before = ctx2.stats.snapshot()
        expected_removed.append(table2.delete(k))
        expected_costs.append(ctx2.stats.delta_since(before).total)
    assert costs == expected_costs
    assert removed.tolist() == expected_removed
    _assert_same(_state(ctx, table), _state(ctx2, table2), f"{name} delete costs")


def test_lsm_tombstone_resurrection_parity():
    """Deletes + re-inserts route through the LSM batch path's tombstone
    branch identically to the scalar one."""
    keys, _ = _keys(seed=53, dupes=False)
    pre, rest = keys[:800], keys[800:1400]
    ctx_s = make_context(b=32, m=512)
    ctx_b = make_context(b=32, m=512)
    t_s, t_b = LSMTree(ctx_s), LSMTree(ctx_b)
    for t in (t_s, t_b):
        t.insert_many(pre)
        for k in pre[::5]:
            t.delete(k)
    stream = pre[::5][:60] + rest  # resurrect some tombstoned keys
    t_s.insert_many(stream)
    t_b.insert_batch(stream)
    probe = pre + rest
    assert [t_s.lookup(k) for k in probe] == t_b.lookup_batch(probe).tolist()
    _assert_same(_state(ctx_s, t_s), _state(ctx_b, t_b), "lsm-tombstones")


def test_lsm_resurrect_memory_peak_without_flush():
    """The high-water mark must capture the pre-resurrect maximum even
    when no flush boundary charges it (fresh inserts grow the memtable,
    then resurrects shrink the tombstone set)."""

    def build(ctx):
        t = LSMTree(ctx, memtable_items=500)
        t.insert_many(range(1, 101))
        for k in range(1, 101):
            t.delete(k)  # all tombstoned (levels hold the copies)
        return t

    ctx_s = make_context(b=32, m=2048)
    ctx_b = make_context(b=32, m=2048)
    t_s, t_b = build(ctx_s), build(ctx_b)
    # 150 fresh keys then 100 resurrects: the peak (memtable 150 +
    # tombstones 100) occurs mid-stream, with no flush in between.
    stream = list(range(1000, 1150)) + list(range(1, 101))
    t_s.insert_many(stream)
    t_b.insert_batch(stream)
    _assert_same(_state(ctx_s, t_s), _state(ctx_b, t_b), "lsm-resurrect-peak")


def test_numpy_scalar_lists_do_not_corrupt_state():
    """A list of numpy scalars (e.g. elements of an ndarray) must behave
    exactly like the same list of Python ints — numpy uint64 arithmetic
    must never reach scalar ``hash()`` or the stored blocks."""
    keys = list(range(1, 1501))
    np_keys = [np.uint64(k) for k in keys]
    probe = keys[::5] + [99999991, 99999992]
    np_probe = [np.uint64(k) for k in probe]
    ctx_i = make_context(b=32, m=512)
    ctx_n = make_context(b=32, m=512)
    t_i, t_n = _buffered(ctx_i), _buffered(ctx_n)
    t_i.insert_batch(keys)
    t_n.insert_batch(np_keys)
    r_i = t_i.lookup_batch(probe)
    r_n = t_n.lookup_batch(np_probe)
    assert r_i.tolist() == r_n.tolist()
    _assert_same(_state(ctx_i, t_i), _state(ctx_n, t_n), "np-scalar-list")
    for items in t_n.layout_snapshot().blocks.values():
        assert all(type(x) is int for x in items)


# -- backend parity ----------------------------------------------------------


def _drive_batch(factory, ctx_kwargs, policy, backend, keys, probe):
    """One batch-driven build with interleaved queries; return the state."""
    ctx = make_context(policy=policy, backend=backend, **ctx_kwargs)
    table = factory(ctx)
    bounds = [0, len(keys) // 3, 2 * len(keys) // 3, len(keys)]
    results = []
    for lo, hi in zip(bounds, bounds[1:]):
        table.insert_batch(keys[lo:hi])
        results.append(table.lookup_batch(probe).tolist())
        results.append(
            table.delete_batch(keys[lo:hi][1::9] + [10**13 + lo]).tolist()
        )
    costs: list[int] = []
    table.lookup_batch(probe, cost_out=costs)
    table.delete_batch(keys[::11] + [10**13 + 7], cost_out=costs)
    table.check_invariants()
    state = _state(ctx, table)
    state["results"] = results
    state["costs"] = costs
    return state


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_backend_bit_identity(name, policy_name):
    """The arena backend must charge and lay out exactly like the mapping
    backend — same counters, same block ids and contents, same peaks."""
    factory, roomy, _ = TABLES[name]
    keys, probe = _keys(seed=61, dupes=True)
    mapping = _drive_batch(factory, roomy, POLICIES[policy_name], "mapping", keys, probe)
    arena = _drive_batch(factory, roomy, POLICIES[policy_name], "arena", keys, probe)
    assert mapping["results"] == arena["results"]
    assert mapping["costs"] == arena["costs"]
    _assert_same(mapping, arena, f"{name}/{policy_name} backends")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", ["buffered", "chained", "lsm"])
def test_cramped_backend_parity(name, policy_name, backend):
    """Scalar-vs-batch parity on the arena backend too, in the cramped
    shapes whose chains force the load/store and absorb fallback paths."""
    factory, _, cramped = TABLES[name]
    keys, probe = _keys(seed=67, dupes=True)
    keys, probe = keys[:700], probe[:300]
    cramped = dict(cramped, hard_memory=False, backend=backend)
    _run_pair(factory, cramped, POLICIES[policy_name], keys, probe, chunks=3)


# -- shard sweep -------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 8])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_sharded_scalar_batch_parity(shards, policy_name):
    """The router's batch path is bit-identical to per-key routing at
    every shard count (strided disk namespaces make shard state
    independent of interleaving)."""
    factory = make_sharded(_buffered, shards)
    keys, probe = _keys(seed=71, dupes=True)
    _run_pair(factory, dict(b=32, m=512), POLICIES[policy_name], keys, probe, chunks=3)


@pytest.mark.parametrize("shards", [1, 2, 8])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_sharded_backend_bit_identity(shards, policy_name):
    """Sharded-over-arena equals sharded-over-mapping bit for bit, at
    every shard count and under both I/O policies."""
    factory = make_sharded(_buffered, shards)
    keys, probe = _keys(seed=73, dupes=True)
    policy = POLICIES[policy_name]
    mapping = _drive_batch(factory, dict(b=32, m=512), policy, "mapping", keys, probe)
    arena = _drive_batch(factory, dict(b=32, m=512), policy, "arena", keys, probe)
    assert mapping["results"] == arena["results"]
    assert mapping["costs"] == arena["costs"]
    _assert_same(mapping, arena, f"sharded[{shards}]/{policy_name} backends")


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_shard_is_transparent(backend):
    """N=1 sharding is a no-op wrapper: bit-identical to the bare table
    — counters, block ids, snapshots, memory peaks, costs."""
    keys, probe = _keys(seed=79, dupes=True)
    bare = _drive_batch(_buffered, dict(b=32, m=512), PAPER_POLICY, backend, keys, probe)
    routed = _drive_batch(
        make_sharded(_buffered, 1), dict(b=32, m=512), PAPER_POLICY, backend, keys, probe
    )
    assert bare["results"] == routed["results"]
    assert bare["costs"] == routed["costs"]
    _assert_same(bare, routed, f"n=1 transparency/{backend}")


def test_insert_batch_accepts_numpy_arrays():
    ctx = make_context(b=32, m=512)
    table = _buffered(ctx)
    arr = np.array([5, 17, 29, 5, 17, 93], dtype=np.uint64)
    table.insert_batch(arr)
    assert len(table) == 4
    out = table.lookup_batch(np.array([5, 6, 93], dtype=np.uint64))
    assert out.tolist() == [True, False, True]
    snap = table.layout_snapshot()
    for items in snap.blocks.values():
        assert all(type(x) is int for x in items), "numpy ints leaked to disk"
