"""Caching as a policy axis: the CachedDisk exactness contract.

The ``cache_blocks`` axis must buy throughput without buying *drift*:

* **bit-identity of results** — a cached run returns the same lookup
  and delete outcomes and converges to the same disk layout as the
  uncached run of the identical stream (the cache is invisible to
  semantics);
* **the relabelling contract** — every read the uncached configuration
  charges is either a charged **miss** or an uncharged **hit**:
  ``hits + misses == uncached charged reads`` and
  ``misses == cached charged reads``, access for access, while
  ``writes + combined`` totals agree (a hit before a store turns one
  combined RMW into one plain write — same total, relabelled);
* **axis independence** — the contract holds across storage backends
  (mapping / arena / durable-arena produce bit-identical cached runs),
  both I/O policies, shard counts, and through the service layer's
  per-epoch cache-ledger merge;
* **negative caching** — LSM Bloom rejections count as
  ``negative_hits``, which charge nothing in either configuration and
  sit outside the hits+misses contract.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.btree import BTree
from repro.baselines.buffer_tree import BufferTree
from repro.baselines.lsm import LSMTree
from repro.core.buffered import BufferedHashTable
from repro.core.logmethod import LogMethodHashTable
from repro.em import (
    Block,
    CachedDisk,
    ConfigurationError,
    Disk,
    InvalidBlockError,
    IOStats,
    PAPER_POLICY,
    STRICT_POLICY,
    make_context,
)
from repro.em.storage import EMContext, ModelParams
from repro.hashing.family import MULTIPLY_SHIFT
from repro.tables import (
    ChainedHashTable,
    ExtendibleHashTable,
    LinearHashingTable,
    LinearProbingHashTable,
    ShardedDictionary,
    make_sharded,
)
from repro.tables.batching import partition_by_bucket
from repro.tables.overflow import ChainedBucket, bulk_fill_buckets, bulk_merge_into

N_KEYS = 1200
N_PROBE = 400
CACHE_BLOCKS = 48


def _chained(ctx):
    return ChainedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _logmethod(ctx):
    return LogMethodHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _buffered(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _lsm(ctx):
    return LSMTree(ctx, bloom_bits_per_key=4.0)


def _lsm_nobloom(ctx):
    return LSMTree(ctx)


def _buffer_tree(ctx):
    return BufferTree(ctx)


def _btree(ctx):
    return BTree(ctx)


def _extendible(ctx):
    return ExtendibleHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _linear_hashing(ctx):
    return LinearHashingTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _linear_probing(ctx):
    return LinearProbingHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


TABLES = {
    "buffered": _buffered,
    "logmethod": _logmethod,
    "chained": _chained,
    "lsm": _lsm,
    "lsm_nobloom": _lsm_nobloom,
    "buffer_tree": _buffer_tree,
    "btree": _btree,
    "extendible": _extendible,
    "linear_hashing": _linear_hashing,
    "linear_probing": _linear_probing,
    "sharded_buffered": make_sharded(_buffered, 2),
}

POLICIES = {"paper": PAPER_POLICY, "strict": STRICT_POLICY}


def _keys(seed: int) -> tuple[list[int], list[int]]:
    rnd = random.Random(seed)
    keys = rnd.sample(range(10**12), N_KEYS)
    probe = keys[::3] + rnd.sample(range(10**12), N_PROBE)
    return keys, probe


def _drive(factory, *, cache_blocks: int, policy=PAPER_POLICY,
           backend: str = "mapping", seed: int = 11, b: int = 32,
           m: int = 512):
    """One interleaved mixed run; returns results, layout, and ledgers."""
    ctx = make_context(b=b, m=m, policy=policy, backend=backend,
                       cache_blocks=cache_blocks)
    table = factory(ctx)
    keys, probe = _keys(seed)
    results = []
    bounds = [0, len(keys) // 3, 2 * len(keys) // 3, len(keys)]
    for lo, hi in zip(bounds, bounds[1:]):
        table.insert_batch(keys[lo:hi])
        results.append(table.lookup_batch(probe).tolist())
        results.append(
            table.delete_batch(keys[lo:hi][1::9] + [10**13 + lo]).tolist()
        )
        # Scalar singles between the batches: the per-key hot paths must
        # satisfy the same contract as the batch engine.
        results.append([table.lookup(k) for k in probe[:40]])
        results.append([table.delete(k) for k in keys[lo:hi][2::97]])
    table.check_invariants()
    snap = table.layout_snapshot()
    # Sharded tables keep per-shard pools; their aggregate is the run's
    # cache ledger.  Plain tables report the context pool.
    cache = (table.cache_stats() if hasattr(table, "cache_stats")
             else ctx.cache_stats())
    return {
        "results": results,
        "blocks": snap.blocks,
        "memory_items": snap.memory_items,
        "size": len(table),
        "io": ctx.stats.snapshot(),
        "cache": cache,
    }


def _assert_contract(uncached, cached, label: str) -> None:
    assert uncached["results"] == cached["results"], f"{label}: results diverge"
    assert uncached["blocks"] == cached["blocks"], f"{label}: layouts diverge"
    assert uncached["memory_items"] == cached["memory_items"], label
    assert uncached["size"] == cached["size"], label
    u, c = uncached["io"], cached["io"]
    cs = cached["cache"]
    assert cs is not None and uncached["cache"] is None
    assert cs.hits + cs.misses == u.reads, (
        f"{label}: hits({cs.hits}) + misses({cs.misses}) != "
        f"uncached reads({u.reads})"
    )
    assert c.reads == cs.misses, f"{label}: cached reads != misses"
    assert c.writes + c.combined == u.writes + u.combined, (
        f"{label}: write totals diverge (relabelling must conserve them)"
    )
    assert c.allocations == u.allocations, label


# -- the contract, across tables / policies / backends -----------------------


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_cached_run_matches_uncached(name, policy_name):
    policy = POLICIES[policy_name]
    uncached = _drive(TABLES[name], cache_blocks=0, policy=policy)
    cached = _drive(TABLES[name], cache_blocks=CACHE_BLOCKS, policy=policy)
    _assert_contract(uncached, cached, f"{name}/{policy_name}")
    assert cached["cache"].hits > 0, "workload never hit the cache"


@pytest.mark.parametrize("name", ["buffered", "lsm", "chained"])
def test_tiny_cache_still_exact(name):
    """A 2-frame pool thrashes constantly; the contract must survive
    every eviction path."""
    uncached = _drive(TABLES[name], cache_blocks=0)
    cached = _drive(TABLES[name], cache_blocks=2)
    _assert_contract(uncached, cached, f"{name}/tiny")


@pytest.mark.parametrize("backend", ["mapping", "arena", "durable-arena"])
def test_cache_backend_bit_identity(backend):
    """Cached runs are backend-invariant: same results, layouts and
    hit/miss totals on every block store."""
    base = _drive(_buffered, cache_blocks=CACHE_BLOCKS, backend="mapping")
    other = _drive(_buffered, cache_blocks=CACHE_BLOCKS, backend=backend)
    assert base["results"] == other["results"]
    assert base["blocks"] == other["blocks"]
    assert base["io"] == other["io"]
    bc, oc = base["cache"], other["cache"]
    assert (bc.hits, bc.misses, bc.negative_hits) == (
        oc.hits, oc.misses, oc.negative_hits
    )


@pytest.mark.parametrize("backend", ["arena", "durable-arena"])
@pytest.mark.parametrize("name", ["buffered", "lsm", "logmethod"])
def test_cache_contract_on_other_backends(name, backend):
    uncached = _drive(TABLES[name], cache_blocks=0, backend=backend)
    cached = _drive(TABLES[name], cache_blocks=CACHE_BLOCKS, backend=backend)
    _assert_contract(uncached, cached, f"{name}/{backend}")


def test_bloom_negative_hits_counted():
    """Bloom rejections are negative-cache hits: free in both configs,
    counted separately, and the hits+misses contract still closes."""
    uncached = _drive(_lsm, cache_blocks=0)
    cached = _drive(_lsm, cache_blocks=CACHE_BLOCKS)
    _assert_contract(uncached, cached, "lsm/bloom")
    assert cached["cache"].negative_hits > 0
    nobloom = _drive(_lsm_nobloom, cache_blocks=CACHE_BLOCKS)
    assert nobloom["cache"].negative_hits == 0


# -- context plumbing ---------------------------------------------------------


class TestContextAxis:
    def test_uncached_context_has_plain_disk(self):
        ctx = make_context(b=32, m=512)
        assert ctx.disk.cache is None
        assert ctx.cache_stats() is None

    def test_cached_context_routes_through_pool(self):
        ctx = make_context(b=32, m=512, cache_blocks=8)
        assert isinstance(ctx.disk, CachedDisk)
        assert ctx.disk.cache.capacity_blocks == 8
        assert ctx.cache_stats() is ctx.disk.cache.stats

    def test_cache_charges_dedicated_budget_words(self):
        plain = make_context(b=32, m=512)
        cached = make_context(b=32, m=512, cache_blocks=8)
        assert cached.memory.m == plain.memory.m + 8 * 32
        # The structures' own budget view is unchanged: same m.
        assert cached.m == plain.m
        assert cached.memory.charge_of("buffer-pool") == 8 * 32

    def test_negative_cache_blocks_rejected(self):
        with pytest.raises(ConfigurationError):
            make_context(b=32, m=512, cache_blocks=-1)

    def test_explicit_disk_with_cache_rejected(self):
        params = ModelParams(b=32, m=512, u=2**40)
        with pytest.raises(ConfigurationError):
            EMContext(params=params, disk=Disk(32), cache_blocks=4)


# -- bucket-row sweeps vs the per-bucket loops they replace -------------------


def _drain_loop(table, k):
    """``_drain_level``'s reference: ``read_all`` + ``replace_all([])``."""
    lvl = table._get_level(k)
    items = []
    for bkt in lvl.buckets:
        got = bkt.read_all()
        if got:
            items.extend(got)
            bkt.replace_all([])
    lvl.count = 0
    return items


def _pend(ctx, bkt):
    """Leave ``bkt``'s blocks resident and its primary the pending read."""
    for bid in reversed(bkt.block_ids):
        if ctx.disk.cache is not None:
            ctx.disk.cache.invalidate(bid)
        ctx.disk.probe_record(bid, 0)


def _sweep_state(ctx):
    """Ledger, pending RMW block, pool counts and LRU order, every block."""
    stats, pool, disk = ctx.stats, ctx.disk.cache, ctx.disk
    return (
        stats.snapshot(),
        stats._last_read_block,
        None if pool is None else (pool.stats.hits, pool.stats.misses,
                                   pool.stats.evictions, pool.resident()),
        {bid: tuple(disk.backend.records(bid)) for bid in disk.block_ids()},
    )


def _groups(parts):
    """``(bucket, items)`` per group of a partition, items as Python ints."""
    idx, bounds, items = parts
    return [
        (j, items[lo:hi].tolist())
        for j, lo, hi in zip(idx.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    ]


#: Policy x pool frames x backend; the mapping cases keep their
#: original ids (``paper-0`` ...), the arena ones add the backend name.
SWEEP_CASES = [
    pytest.param(
        policy, frames, backend,
        id=f"{policy}-{frames}" + ("" if backend == "mapping" else f"-{backend}"),
    )
    for backend in ("mapping", "arena", "durable-arena")
    for policy in ("paper", "strict")
    for frames in (0, 2, 8, 48)
]


@pytest.mark.parametrize("policy_name, cache_blocks, backend", SWEEP_CASES)
def test_sweeps_equal_their_per_bucket_loops(policy_name, cache_blocks, backend):
    """``_drain_level``, ``bulk_merge_into`` and ``bulk_fill_buckets``
    charge, and leave the pool, exactly as the loops their docstrings
    name, on a cramped log-method table warmed by lookups.  This pins
    three cases: a hit's write combines when the hit block is still the
    pending read; a chained bucket mid-sweep sees the pending block the
    sweep so far left; draining an empty bucket keeps its frame."""
    policy = {"paper": PAPER_POLICY, "strict": STRICT_POLICY}[policy_name]
    for seed in range(12):
        rnd = random.Random(seed)
        keys = rnd.sample(range(10**12), rnd.randrange(150, 500))
        twins = []
        for _ in range(2):
            ctx = make_context(b=8, m=64, policy=policy, backend=backend,
                               cache_blocks=cache_blocks, hard_memory=False)
            table = LogMethodHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))
            table.insert_batch(keys)
            twins.append((ctx, table))
        (ctx_s, sweep), (ctx_l, loop) = twins

        def warm():
            probe = rnd.sample(keys, 20) + rnd.sample(range(10**12), 10)
            for k in probe:
                assert sweep.lookup(k) == loop.lookup(k)

        def aim(k, order):
            """Warm both twins, then pend one bucket of level ``k`` that
            the sweep visits in ``order``: its first, or a chained one."""
            warm()
            rows = [t._levels[k - 1].buckets for _, t in twins]
            chained = [i for i in order[1:] if rows[0][i]._chain]
            i = rnd.choice(chained) if chained and rnd.random() < 0.5 else order[0]
            for (ctx, _), row in zip(twins, rows):
                _pend(ctx, row[i])

        def check(label):
            assert _sweep_state(ctx_s) == _sweep_state(ctx_l), (label, seed)

        k = rnd.choice(sweep.nonempty_levels())
        aim(k, range(len(sweep._levels[k - 1].buckets)))
        moving = sweep._drain_level(k)
        assert moving.tolist() == _drain_loop(loop, k)
        check("drain")

        target = sweep._get_level(k + 1).buckets
        loop._get_level(k + 1)
        arr = np.asarray(moving.tolist() + rnd.sample(range(10**12), 40),
                         dtype=np.uint64)
        parts = partition_by_bucket(
            arr, sweep.h.hash_array(arr) % np.uint64(len(target))
        )
        aim(k + 1, parts[0].tolist())
        bulk_merge_into(target, parts, ctx_s.disk)
        for idx, incoming in _groups(parts):
            loop._levels[k].buckets[idx].absorb(incoming)
        check("merge")

        warm()
        rows = [ChainedBucket.bulk_row(ctx.disk, 6) for ctx in (ctx_s, ctx_l)]
        items = rnd.sample(range(10**12), 48)
        parts = partition_by_bucket(items, np.asarray(items) % 6)
        bulk_fill_buckets(rows[0], parts, ctx_s.disk)
        for idx, group in _groups(parts):
            rows[1][idx].replace_all(group)
        check("fill")


@pytest.mark.parametrize("cache_blocks", [0, 2, 3])
def test_walk_charge_follows_the_scalar_key_order(cache_blocks):
    """A walk recorded round by round is charged key by key, each key's
    probes in round order: counters, per-key costs, the pending RMW block
    and the pool end where that ``probe_record`` loop leaves them, also
    when the last key to probe drops out after the first round."""
    rounds = [
        ([0, 1, 2, 3, 4], [0, 1, 2, 0, 3]),
        ([1, 3], [4, 5]),
        ([1], [0]),
    ]
    sides = []
    for _ in range(2):
        stats = IOStats(policy=PAPER_POLICY)
        disk = (
            CachedDisk(4, cache_blocks=cache_blocks, stats=stats)
            if cache_blocks
            else Disk(4, stats=stats)
        )
        ids = disk.allocate_many(6)
        for bid in ids:
            disk.write(bid, Block(4, data=[bid]))
        disk.stats.reset()
        sides.append((disk, ids))
    (loop, ids), (bulk, _) = sides
    costs = []
    for key in range(5):
        before = loop.stats.reads
        for pos, bids in rounds:
            if key in pos:
                loop.probe_record(ids[bids[pos.index(key)]], 0)
        costs.append(loop.stats.reads - before)
    charged = bulk.charge_walk(
        5, [(np.array(pos), np.array(ids)[bids]) for pos, bids in rounds]
    )
    assert charged.tolist() == costs
    assert bulk.stats.snapshot() == loop.stats.snapshot()
    assert bulk.stats._last_read_block == loop.stats._last_read_block == ids[3]
    if cache_blocks:
        assert bulk.cache.stats == loop.cache.stats
        assert bulk.cache.resident() == loop.cache.resident()


def test_linear_probing_lookups_hit_the_pool():
    """Linear-probing lookups read their probe blocks through the pool, so
    a repeated lookup is a hit, scalar or batch, and hits + misses still
    equal the uncached twin's reads."""
    keys, _ = _keys(seed=5)
    runs = []
    for cache_blocks in (0, 8):
        ctx = make_context(b=32, m=512, cache_blocks=cache_blocks)
        table = _linear_probing(ctx)
        table.insert_batch(keys)
        phases = []
        for lookup in (lambda: [table.lookup(keys[0]) for _ in range(5)],
                       lambda: table.lookup_batch([keys[0]] * 5).tolist()):
            io, pool = ctx.stats.snapshot(), ctx.cache_stats()
            pool = pool and pool.snapshot()
            assert lookup() == [True] * 5
            after = ctx.cache_stats()
            phases.append((
                ctx.stats.delta_since(io).reads,
                after and (after.hits - pool.hits, after.misses - pool.misses),
            ))
        runs.append(phases)
    (scalar, _), (batch, _) = runs[0]
    probes = scalar // 5
    assert probes >= 1 and batch == scalar
    # The first scalar lookup misses and installs its probe blocks; every
    # later probe hits, the batch's included.
    assert runs[1] == [(probes, (4 * probes, probes)), (0, (5 * probes, 0))]


# -- CachedDisk unit behaviour ------------------------------------------------


def _store_after_load(disk, bid):
    blk = disk.load(bid)
    blk.append(99)
    disk.store(bid, blk)


def _bulk_merge(disk, bid):
    parts = (np.array([0]), np.array([0, 1]), np.array([99], dtype=np.uint64))
    bulk_merge_into([ChainedBucket(disk, primary=bid)], parts, disk)


_GROUP_99 = (np.array([99], dtype=np.uint64), [0, 1])

#: Each path that mutates a block holding ``[7]``, and the records it
#: holds afterwards.
MUTATIONS = {
    "write": (lambda disk, bid: disk.write(bid, Block(4, data=[99])), [99]),
    "load-store": (_store_after_load, [7, 99]),
    "remove_record": (lambda disk, bid: disk.remove_record(bid, 7), []),
    "append_run": (lambda disk, bid: disk.append_run([bid], *_GROUP_99), [7, 99]),
    "replace_run": (lambda disk, bid: disk.replace_run([bid], *_GROUP_99), [99]),
    "drain_run": (lambda disk, bid: disk.drain_run([bid]), []),
    "bulk_merge_into": (_bulk_merge, [7, 99]),
}


class TestCachedDisk:
    def _disk(self, policy=STRICT_POLICY, cache_blocks=4):
        return CachedDisk(4, cache_blocks=cache_blocks,
                          stats=IOStats(policy=policy))

    def _fill(self, disk, n):
        ids = disk.allocate_many(n)
        for bid in ids:
            disk.write(bid, Block(4, data=[bid]))
        disk.stats.reset()
        return ids

    def test_read_miss_then_hit(self):
        disk = self._disk()
        (bid,) = self._fill(disk, 1)
        disk.read(bid)
        before = disk.stats.reads
        blk = disk.read(bid)
        assert disk.stats.reads == before  # hit: uncharged
        assert disk.cache.stats == disk.cache.stats.__class__(hits=1, misses=1)
        assert blk.records() == [bid]

    def test_write_invalidates_frame(self):
        disk = self._disk()
        (bid,) = self._fill(disk, 1)
        disk.read(bid)
        disk.write(bid, Block(4, data=[99]))
        assert not disk.cache.is_resident(bid)
        assert disk.read(bid).records() == [99]  # fresh miss, new contents
        assert disk.cache.stats.misses == 2

    def test_read_returns_private_copy(self):
        disk = self._disk()
        (bid,) = self._fill(disk, 1)
        blk = disk.read(bid)
        blk.append(4242)
        assert disk.read(bid).records() == [bid]

    def test_hit_load_store_relabels_combined_as_write(self):
        """PAPER policy: the uncached run's load charges a read that the
        following store combines with.  A cache hit-load avoids the read
        and does not reset the pending-RMW block, so the store is a
        plain write — same write total, relabelled."""
        cached = CachedDisk(4, cache_blocks=4,
                            stats=IOStats(policy=PAPER_POLICY))
        cb, cb2 = self._fill(cached, 2)
        plain = Disk(4, stats=IOStats(policy=PAPER_POLICY))
        pb, pb2 = plain.allocate(), plain.allocate()
        for bid in (pb, pb2):
            plain.write(bid, Block(4, data=[bid]))
        plain.stats.reset()

        for disk, bid, other in ((cached, cb, cb2), (plain, pb, pb2)):
            disk.read(bid)
            disk.read(other)  # clears the pending RMW block for `bid`
            blk = disk.load(bid)
            blk.append(7)
            disk.store(bid, blk)
        assert plain.stats.reads == 3 and plain.stats.combined == 1
        assert plain.stats.writes == 0
        # Cached: 2 miss reads, then a hit-load (uncharged) whose store
        # cannot combine — no physical read of `bid` preceded it.
        assert cached.stats.reads == 2 and cached.stats.combined == 0
        assert cached.stats.writes == 1
        assert cached.cache.stats.hits == 1
        assert (cached.stats.writes + cached.stats.combined
                == plain.stats.writes + plain.stats.combined)
        assert (cached.cache.stats.hits + cached.cache.stats.misses
                == plain.stats.reads)
        assert cached.read(cb).records() == plain.read(pb).records()

    def test_probe_record_set_membership(self):
        disk = self._disk()
        (bid,) = self._fill(disk, 1)
        assert disk.probe_record(bid, bid)  # miss: charges, installs
        assert disk.stats.reads == 1
        assert disk.probe_record(bid, bid)  # hit via the membership set
        assert not disk.probe_record(bid, 12345)  # resident: still free
        assert disk.stats.reads == 1
        assert disk.cache.stats.hits == 2

    def test_remove_record_hit_paths(self):
        disk = self._disk()
        (bid,) = self._fill(disk, 1)
        disk.read(bid)  # install
        assert not disk.remove_record(bid, 777)  # absent: free, no write
        assert (disk.stats.reads, disk.stats.writes) == (1, 0)
        assert disk.remove_record(bid, bid)  # present: drops frame, writes
        assert disk.stats.writes == 1 and disk.stats.reads == 1
        assert not disk.cache.is_resident(bid)
        assert disk.read(bid).records() == []

    def test_bulk_reads_never_install(self):
        """Scan resistance: one cold sweep must not flush the pool."""
        disk = self._disk(cache_blocks=2)
        ids = self._fill(disk, 6)
        disk.read(ids[0])  # hot frame
        out = disk.read_records(ids)
        assert sorted(out) == sorted(ids)
        assert disk.cache.resident() == [ids[0]]  # sweep installed nothing
        assert disk.cache.stats.hits == 1  # the hot frame served its block
        assert disk.cache.stats.misses == 6  # read miss + 5 sweep misses
        assert disk.stats.reads == 6

    def test_scan_counts_like_read_records(self):
        disk = self._disk(cache_blocks=2)
        ids = self._fill(disk, 4)
        disk.read(ids[1])
        blocks = disk.scan(ids)
        assert [b.records() for b in blocks] == [[i] for i in ids]
        assert disk.cache.stats.hits == 1
        assert disk.stats.reads == 4  # 1 install miss + 3 sweep misses

    def test_charge_walk_equals_a_probe_loop(self):
        """The vectorised lookups' bulk charge labels, evicts and leaves
        the pending RMW block exactly like per-id ``probe_record``."""
        refs = [0, 1, 2, 0, 3, 0, 4, 1, 1, 5, 2, 0, 5, 5, 3, 1]
        disks = []
        for _ in range(2):
            disk = self._disk(policy=PAPER_POLICY, cache_blocks=3)
            ids = self._fill(disk, 6)
            disk.probe_record(ids[2], ids[2])  # a resident frame...
            disk.probe_record(ids[2], ids[2])  # ...with a memo
            disks.append((disk, [ids[i] for i in refs]))
        (loop, seq), (bulk, _) = disks
        for bid in seq:
            loop.probe_record(bid, 0)
        bulk.charge_walk(len(seq), [(np.arange(len(seq)), np.asarray(seq))])
        assert bulk.cache.stats == loop.cache.stats
        assert bulk.cache.stats.evictions > 0
        assert bulk.cache.resident() == loop.cache.resident()
        assert bulk.stats.snapshot() == loop.stats.snapshot()
        assert bulk.stats._last_read_block == loop.stats._last_read_block

    def test_memo_built_on_first_probe_hit(self):
        disk = self._disk(cache_blocks=2)
        a, b, c = self._fill(disk, 3)
        disk.probe_record(a, a)  # miss: installs a frame, no memo
        assert disk.cache.is_resident(a) and a not in disk._memo
        assert disk.probe_record(a, a)  # hit: builds the memo
        assert disk._memo[a] == {a}
        disk.probe_record(b, b)
        disk.probe_record(c, c)  # evicts a: its memo goes with it
        assert not disk.cache.is_resident(a) and a not in disk._memo

    @pytest.mark.parametrize("path", sorted(MUTATIONS))
    def test_no_stale_memo(self, path):
        """After any mutation of a memoised block, probes answer from the
        new contents: the miss that re-installs it and the hit after."""
        mutate, expected = MUTATIONS[path]
        disk = self._disk(policy=PAPER_POLICY)
        bid = disk.allocate()
        disk.write(bid, Block(4, data=[7]))
        disk.probe_record(bid, 7)
        assert disk.probe_record(bid, 7) and bid in disk._memo
        mutate(disk, bid)
        hits = disk.cache.stats.hits
        for _ in range(2):
            for key in (7, 99):
                assert disk.probe_record(bid, key) == (key in expected), key
        assert disk.cache.stats.hits > hits  # the memo was rebuilt and used
        assert disk._memo[bid] == set(expected)

    def test_free_drops_the_memo(self):
        disk = self._disk()
        (bid,) = self._fill(disk, 1)
        disk.probe_record(bid, bid)
        assert disk.probe_record(bid, bid)
        disk.free(bid)
        assert bid not in disk._memo and not disk.cache.is_resident(bid)
        with pytest.raises(InvalidBlockError):
            disk.probe_record(bid, bid)


# -- shards and the service ledger -------------------------------------------


class TestShardedAndService:
    def test_sharded_cache_stats_aggregate(self):
        # Small per-shard memory so the workload actually reaches disk.
        ctx = make_context(b=32, m=128, cache_blocks=16, hard_memory=False)
        table = ShardedDictionary(ctx, _buffered, shards=4)
        keys, probe = _keys(seed=17)
        table.insert_batch(keys)
        table.lookup_batch(probe)
        table.delete_batch(keys[::5])
        table.lookup_batch(probe)
        agg = table.cache_stats()
        per_shard = [sub.cache_stats() for sub in [t.ctx for t in table.shard_tables()]]
        assert agg.hits == sum(s.hits for s in per_shard) > 0
        assert agg.misses == sum(s.misses for s in per_shard) > 0

    def test_uncached_sharded_reports_none(self):
        ctx = make_context(b=32, m=512)
        table = ShardedDictionary(ctx, _buffered, shards=2)
        assert table.cache_stats() is None

    def test_service_merges_cache_ledger_at_epoch_close(self):
        from repro.service import ClosedLoopClient, DictionaryService
        from repro.workloads.generators import UniformKeys
        from repro.workloads.trace import BulkMixedWorkload

        wl = BulkMixedWorkload(
            UniformKeys(10**12, seed=5), mix=(0.3, 0.5, 0.1, 0.1), seed=6,
            chunk=512,
        )
        kinds, keys = wl.take_arrays(4000)

        def run(cache_blocks):
            # Small per-shard memory so epochs actually charge reads.
            ctx = make_context(b=32, m=128, cache_blocks=cache_blocks,
                               hard_memory=False)
            with DictionaryService(ctx, _buffered, shards=4,
                                   epoch_ops=512) as svc:
                rep = ClosedLoopClient(svc, window=1024).drive(kinds, keys)
                shard_caches = [
                    sub.cache_stats() for sub in [t.ctx for t in svc.shard_tables()]
                ]
                return svc.io_snapshot(), svc.cache_snapshot(), rep, shard_caches

        u_io, u_cache, u_rep, _ = run(0)
        c_io, c_cache, c_rep, shard_caches = run(16)
        # Cluster ledger equals the sum of the per-shard pools...
        assert c_cache.hits == sum(s.hits for s in shard_caches) > 0
        assert c_cache.misses == sum(s.misses for s in shard_caches)
        # ...and satisfies the relabelling contract against the uncached
        # cluster, epoch merges included.
        assert u_cache.hits == u_cache.misses == 0
        assert c_cache.hits + c_cache.misses == u_io.reads
        assert c_io.reads == c_cache.misses
        assert c_io.writes + c_io.combined == u_io.writes + u_io.combined
        # The client report surfaces the delta: zero-filled uncached.
        assert u_rep.hit_rate == 0.0 and u_rep.negative_hits == 0
        assert c_rep.hit_rate == pytest.approx(c_cache.hit_rate)

    def test_executor_invariant_cache_ledger(self):
        from repro.service import DictionaryService
        from repro.workloads.generators import UniformKeys
        from repro.workloads.trace import BulkMixedWorkload

        from reversed_executor import ReversedExecutor

        wl = BulkMixedWorkload(
            UniformKeys(10**12, seed=9), mix=(0.4, 0.4, 0.1, 0.1), seed=10,
            chunk=512,
        )
        kinds, keys = wl.take_arrays(3000)
        reverse = ReversedExecutor()
        totals = []
        for executor in (None, reverse):
            ctx = make_context(b=32, m=128, cache_blocks=16,
                               hard_memory=False)
            with DictionaryService(ctx, _buffered, shards=4,
                                   epoch_ops=512) as svc:
                if executor is not None:
                    svc.executor = executor
                svc.run(kinds, keys)
                totals.append(svc.cache_snapshot())
        assert reverse.reordered > 0
        assert totals[0] == totals[1]
