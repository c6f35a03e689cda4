"""The dictionary service layer: epochs, executors, client.

Three guarantees are pinned here:

* **program-order equivalence** — for any interleaved mixed request
  stream, the service's per-op results (lookup hits, delete removals)
  and final contents equal a scalar program-order execution, at every
  shard count and epoch size, despite the conflict-aware cross-kind
  regrouping inside epochs;
* **executor determinism** — the ``threads`` executor produces
  bit-identical per-shard I/O ledgers, merged cluster counters, disk
  layouts and memory peaks to the ``serial`` executor, under both I/O
  policies and over both storage backends;
* **placement compatibility** — a service over N shards stores keys on
  exactly the shard a :class:`~repro.tables.sharded.ShardedDictionary`
  over N shards would pick (same fixed-seed router).

Plus one golden pin: a combined run (rebalancing, journal, tracing,
snapshot + recovery, an overloaded open-loop drive with breakers)
compared against fixed ledger, metric, layout and trace values, so a
change to the epoch-close fold that shifted a counter everywhere at
once still fails.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro.core.buffered import BufferedHashTable
from repro.core.config import ObsConfig, RebalanceConfig
from repro.em import PAPER_POLICY, STRICT_POLICY, make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.obs import scan_trace, strip_wall
from repro.service import (
    AdmissionController,
    ClosedLoopClient,
    DictionaryService,
    EpochJournal,
    OpenLoopClient,
    PoissonArrivals,
    ShardBreakerBoard,
    build_epochs,
    make_executor,
    recover,
)
from repro.service.client import _weighted_percentile
from repro.tables import ChainedHashTable, ShardedDictionary
from repro.workloads.generators import UniformKeys, make_generator
from repro.workloads.trace import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    BulkMixedWorkload,
    MixedWorkload,
    encode_ops,
)


def _chained(ctx):
    return ChainedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _buffered(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _mixed_stream(n, seed=0, u=10**12):
    """A hand-rolled interleaved stream with plenty of same-key traffic."""
    rnd = random.Random(seed)
    live: list[int] = []
    kinds, keys = [], []
    for _ in range(n):
        r = rnd.random()
        if not live or r < 0.45:
            k = rnd.randrange(u)
            kinds.append(OP_INSERT)
            live.append(k)
        elif r < 0.80:
            # Mix of hits, misses, and keys deleted earlier in-stream.
            k = rnd.choice(live) if rnd.random() < 0.7 else rnd.randrange(u)
            kinds.append(OP_LOOKUP)
        else:
            k = rnd.choice(live) if rnd.random() < 0.8 else rnd.randrange(u)
            kinds.append(OP_DELETE)
        keys.append(k)
    return np.array(kinds, dtype=np.uint8), np.array(keys, dtype=np.uint64)


def _reference(kinds, keys):
    """Scalar program-order execution over a Python set."""
    live: set[int] = set()
    lookup_found = np.zeros(len(kinds), dtype=bool)
    delete_removed = np.zeros(len(kinds), dtype=bool)
    for i, (kind, key) in enumerate(zip(kinds.tolist(), keys.tolist())):
        if kind == OP_INSERT:
            live.add(key)
        elif kind == OP_LOOKUP:
            lookup_found[i] = key in live
        else:
            if key in live:
                live.discard(key)
                delete_removed[i] = True
    return live, lookup_found, delete_removed


# -- epoch builder -----------------------------------------------------------


def test_epochs_cover_stream_without_cross_kind_keys():
    kinds, keys = _mixed_stream(4000, seed=3)
    epochs = build_epochs(kinds, keys, max_ops=512)
    assert epochs[0].start == 0 and epochs[-1].stop == len(kinds)
    for prev, cur in zip(epochs, epochs[1:]):
        assert prev.stop == cur.start
    for ep in epochs:
        assert 0 < ep.ops <= 512
        ins = set(ep.insert_keys.tolist())
        look = set(ep.lookup_keys.tolist())
        dele = set(ep.delete_keys.tolist())
        assert not (ins & look) and not (ins & dele) and not (look & dele), (
            "a key crossed kinds inside one epoch"
        )
        # Regrouped keys must be exactly the window's ops, kind by kind.
        k = kinds[ep.start : ep.stop]
        q = keys[ep.start : ep.stop]
        assert ep.insert_keys.tolist() == q[k == OP_INSERT].tolist()
        assert ep.lookup_keys.tolist() == q[k == OP_LOOKUP].tolist()
        assert ep.delete_keys.tolist() == q[k == OP_DELETE].tolist()
        assert kinds[ep.lookup_pos].tolist() == [OP_LOOKUP] * len(ep.lookup_pos)
        assert kinds[ep.delete_pos].tolist() == [OP_DELETE] * len(ep.delete_pos)


def test_epochs_cut_exactly_at_conflicts():
    # insert x · lookup x  → cut between them; same-kind repeats don't cut.
    kinds = np.array(
        [OP_INSERT, OP_INSERT, OP_LOOKUP, OP_LOOKUP, OP_DELETE], dtype=np.uint8
    )
    keys = np.array([5, 5, 5, 5, 5], dtype=np.uint64)
    epochs = build_epochs(kinds, keys, max_ops=100)
    assert [(e.start, e.stop) for e in epochs] == [(0, 2), (2, 4), (4, 5)]

    # Distinct keys never cut.
    kinds2 = np.array([OP_INSERT, OP_LOOKUP, OP_DELETE] * 5, dtype=np.uint8)
    keys2 = np.arange(15, dtype=np.uint64)
    assert len(build_epochs(kinds2, keys2, max_ops=100)) == 1


def test_epochs_max_ops_cuts():
    kinds = np.full(10, OP_INSERT, dtype=np.uint8)
    keys = np.arange(10, dtype=np.uint64)
    epochs = build_epochs(kinds, keys, max_ops=4)
    assert [(e.start, e.stop) for e in epochs] == [(0, 4), (4, 8), (8, 10)]


def test_epochs_validation():
    with pytest.raises(ValueError, match="max_ops"):
        build_epochs([OP_INSERT], [1], max_ops=0)
    with pytest.raises(ValueError, match="align"):
        build_epochs([OP_INSERT], [1, 2])
    with pytest.raises(ValueError, match="op code"):
        build_epochs([7], [1])
    assert build_epochs([], []) == []


# -- program-order equivalence ----------------------------------------------


@pytest.mark.parametrize("shards", [1, 3, 8])
@pytest.mark.parametrize("epoch_ops", [64, 1024])
def test_service_matches_program_order(shards, epoch_ops):
    kinds, keys = _mixed_stream(5000, seed=11)
    live, want_found, want_removed = _reference(kinds, keys)
    ctx = make_context(b=32, m=512, backend="arena", hard_memory=False)
    with DictionaryService(
        ctx, _chained, shards=shards, epoch_ops=epoch_ops
    ) as svc:
        run = svc.run(kinds, keys)
        assert run.ops == len(kinds)
        assert run.lookup_found.tolist() == want_found.tolist()
        assert run.delete_removed.tolist() == want_removed.tolist()
        assert len(svc) == len(live)
        # Final contents: every live key present, every other key absent.
        probe = sorted(live)[:500] + [10**13 + i for i in range(50)]
        final = svc.run(
            np.full(len(probe), OP_LOOKUP, dtype=np.uint8),
            np.array(probe, dtype=np.uint64),
        )
        assert final.lookup_found.tolist() == [k in live for k in probe]
        svc.check_invariants()


def test_run_trace_equals_encoded_run():
    wl = MixedWorkload(UniformKeys(10**12, seed=5), seed=9)
    ops = wl.take(1200)
    kinds, keys = encode_ops(ops)
    ctx1 = make_context(b=32, m=512)
    ctx2 = make_context(b=32, m=512)
    with DictionaryService(ctx1, _chained, shards=4) as a, DictionaryService(
        ctx2, _chained, shards=4
    ) as b:
        ra = a.run_trace(ops)
        rb = b.run(kinds, keys)
        assert ra.lookup_found.tolist() == rb.lookup_found.tolist()
        assert ra.delete_removed.tolist() == rb.delete_removed.tolist()
        assert a.io_snapshot() == b.io_snapshot()


# -- executor determinism ----------------------------------------------------


def _drive(executor, policy, backend, factory=_buffered, shards=6):
    gen = UniformKeys(10**12, seed=21)
    wl = BulkMixedWorkload(gen, mix=(0.4, 0.4, 0.1, 0.1), seed=2, chunk=512)
    kinds, keys = wl.take_arrays(6000)
    ctx = make_context(
        b=32, m=512, policy=policy, backend=backend, hard_memory=False
    )
    svc = DictionaryService(
        ctx, factory, shards=shards, executor=executor, epoch_ops=512
    )
    try:
        run = svc.run(kinds, keys)
        snap = svc.layout_snapshot()
        return {
            "found": run.lookup_found.tolist(),
            "removed": run.delete_removed.tolist(),
            "epoch_ios": [e.io for e in run.epochs],
            "shard_ledgers": [
                (s.reads, s.writes, s.combined, s.allocations)
                for s in svc.shard_io_snapshots()
            ],
            "cluster": svc.io_snapshot(),
            "blocks": snap.blocks,
            "memory_items": snap.memory_items,
            "peak": svc.memory_high_water(),
            "sizes": svc.shard_sizes(),
        }
    finally:
        svc.close()


@pytest.mark.parametrize("backend", ["mapping", "arena"])
@pytest.mark.parametrize(
    "policy", [PAPER_POLICY, STRICT_POLICY], ids=["paper", "strict"]
)
def test_threads_bit_identical_to_serial(policy, backend):
    serial = _drive("serial", policy, backend)
    threads = _drive("threads", policy, backend)
    assert serial["found"] == threads["found"]
    assert serial["removed"] == threads["removed"]
    assert serial["epoch_ios"] == threads["epoch_ios"]
    assert serial["shard_ledgers"] == threads["shard_ledgers"]
    assert serial["cluster"] == threads["cluster"]
    assert serial["blocks"] == threads["blocks"], "disk layouts diverge"
    assert serial["memory_items"] == threads["memory_items"]
    assert serial["peak"] == threads["peak"]
    assert serial["sizes"] == threads["sizes"]


def test_cluster_ledger_equals_shard_sum():
    out = _drive("threads", PAPER_POLICY, "arena")
    total = np.sum(np.array(out["shard_ledgers"]), axis=0).tolist()
    c = out["cluster"]
    assert total == [c.reads, c.writes, c.combined, c.allocations]
    assert sum(out["epoch_ios"]) == c.reads + c.writes


# -- placement compatibility -------------------------------------------------


@pytest.mark.parametrize("shards", [2, 5])
def test_service_places_keys_like_sharded_router(shards):
    keys = UniformKeys(10**12, seed=31).take(3000)
    ctx_r = make_context(b=32, m=512)
    router = ShardedDictionary(ctx_r, _chained, shards=shards)
    router.insert_batch(keys)
    ctx_s = make_context(b=32, m=512)
    with DictionaryService(ctx_s, _chained, shards=shards) as svc:
        svc.run(
            np.full(len(keys), OP_INSERT, dtype=np.uint8),
            np.array(keys, dtype=np.uint64),
        )
        assert svc.shard_sizes() == router.shard_sizes()
        # Same per-shard contents, not just sizes.
        for mine, theirs in zip(svc.shard_tables(), router.shard_tables()):
            snap_m = mine.layout_snapshot()
            snap_t = theirs.layout_snapshot()
            items_m = set(snap_m.memory_items) | {
                x for blk in snap_m.blocks.values() for x in blk
            }
            items_t = set(snap_t.memory_items) | {
                x for blk in snap_t.blocks.values() for x in blk
            }
            assert items_m == items_t


# -- construction / validation ----------------------------------------------


def test_executor_registry_and_validation():
    assert type(make_executor("serial")).name == "serial"
    assert type(make_executor("threads")).name == "threads"
    with pytest.raises(Exception, match="unknown executor"):
        make_executor("fibers")
    ctx = make_context(b=32, m=512)
    with pytest.raises(Exception, match="shard count"):
        DictionaryService(ctx, _chained, shards=0)
    with pytest.raises(Exception, match="epoch_ops"):
        DictionaryService(ctx, _chained, epoch_ops=-1)


def test_thread_executor_propagates_thunk_exception():
    ex = make_executor("threads", max_workers=2)
    ran = []

    def boom():
        raise RuntimeError("shard 1 exploded")

    def ok(tag):
        def thunk():
            ran.append(tag)
            return tag
        return thunk

    try:
        # The failure must surface (deterministically the first in
        # submission order), not deadlock, and not abandon siblings:
        # every other thunk still runs to completion first.
        with pytest.raises(RuntimeError, match="shard 1 exploded"):
            ex.run([ok("a"), boom, ok("b"), ok("c")])
        assert sorted(ran) == ["a", "b", "c"]
        with pytest.raises(ValueError, match="first"):
            ex.run([lambda: (_ for _ in ()).throw(ValueError("first")),
                    lambda: (_ for _ in ()).throw(KeyError("second"))])
        # The pool survives a failed round and is immediately reusable.
        assert ex.run([ok("d"), ok("e")]) == ["d", "e"]
    finally:
        ex.close()


def test_thread_executor_close_is_idempotent():
    ex = make_executor("threads", max_workers=2)
    assert ex.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]
    ex.close()
    ex.close()
    assert ex.run([lambda: 4, lambda: 5]) == [4, 5]  # pool rebuilt on demand
    ex.close()


# -- closed-loop client ------------------------------------------------------


def test_weighted_percentile_exact():
    pairs = [(0.010, 90), (0.100, 9), (1.000, 1)]
    assert _weighted_percentile(pairs, 50) == 0.010
    assert _weighted_percentile(pairs, 99) == 0.100
    assert _weighted_percentile(pairs, 99.5) == 1.000
    assert _weighted_percentile([], 50) == 0.0


def test_weighted_percentile_tiny_samples():
    # Degenerate samples must stay well-defined: a single pair is every
    # percentile; zero mass is 0.0; q is clamped into [0, 100].
    assert _weighted_percentile([(0.25, 1)], 50) == 0.25
    assert _weighted_percentile([(0.25, 1)], 99) == 0.25
    assert _weighted_percentile([(0.25, 1)], 0) == 0.25
    assert _weighted_percentile([(0.25, 0)], 99) == 0.0
    assert _weighted_percentile([(0.1, 0), (0.2, 3)], 50) == 0.2
    assert _weighted_percentile([(0.5, 2)], -5) == 0.5
    assert _weighted_percentile([(0.5, 2)], 150) == 0.5


def test_client_tiny_runs_report_sane_percentiles():
    ctx = make_context(b=32, m=512, backend="arena", hard_memory=False)
    with DictionaryService(ctx, _buffered, shards=2) as svc:
        client = ClosedLoopClient(svc, window=64)
        empty = client.drive(
            np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint64)
        )
        assert empty.ops == 0 and empty.epochs == 0
        assert empty.p50_ms == empty.p99_ms == empty.max_ms == 0.0
        assert empty.kops == 0.0 and empty.amortized_io == 0.0
        one = client.drive(
            np.array([OP_INSERT], dtype=np.uint8),
            np.array([12345], dtype=np.uint64),
        )
        assert one.ops == 1 and one.epochs == 1
        assert 0 <= one.p50_ms == one.p99_ms == one.max_ms
        assert np.isfinite(one.p50_ms) and np.isfinite(one.kops)


def test_client_reports_mix_and_latencies():
    gen = UniformKeys(10**12, seed=41)
    wl = BulkMixedWorkload(gen, mix=(0.3, 0.55, 0.05, 0.1), seed=4, chunk=512)
    kinds, keys = wl.take_arrays(4000)
    ctx = make_context(b=32, m=512, backend="arena", hard_memory=False)
    with DictionaryService(ctx, _buffered, shards=4, epoch_ops=512) as svc:
        rep = ClosedLoopClient(svc, window=1024).drive(kinds, keys, check=True)
    assert rep.ops == 4000
    assert rep.inserts == int((kinds == OP_INSERT).sum())
    assert rep.lookups == int((kinds == OP_LOOKUP).sum())
    assert rep.deletes == int((kinds == OP_DELETE).sum())
    assert rep.epochs >= 4
    assert rep.seconds > 0 and rep.kops > 0
    assert 0 < rep.p50_ms <= rep.p99_ms <= rep.max_ms
    assert rep.io_total == ctx_total(svc)
    row = rep.row()
    assert set(row) == {
        "ops",
        "epochs",
        "kops",
        "goodput_kops",
        "p50_ms",
        "p99_ms",
        "queue_p99",
        "io/op",
        "shed",
        "rejected",
        "deadline_exceeded",
        "hit_rate",
        "negative_hits",
        "imbalance",
        "migrated_slots",
    }
    # Closed-loop runs execute everything: the overload columns are zero
    # and goodput equals throughput.  Uncached clusters zero-fill the
    # cache columns, and static (non-rebalancing) runs zero the
    # migration column, keeping one row schema for every configuration.
    assert row["shed"] == row["rejected"] == row["deadline_exceeded"] == 0
    assert row["queue_p99"] == 0.0
    assert row["hit_rate"] == 0.0 and row["negative_hits"] == 0
    assert row["migrated_slots"] == 0 and row["imbalance"] >= 0.0
    assert rep.executed_ops == rep.ops
    assert rep.goodput_kops == rep.kops


def ctx_total(svc):
    s = svc.io_snapshot()
    return s.reads + s.writes


# -- bulk mixed workload -----------------------------------------------------


def test_bulk_mixed_workload_semantics():
    gen = UniformKeys(10**12, seed=51)
    wl = BulkMixedWorkload(gen, mix=(0.4, 0.3, 0.2, 0.1), seed=6, chunk=256)
    kinds, keys = wl.take_arrays(5000)
    assert len(kinds) == len(keys) == 5000
    assert kinds.dtype == np.uint8 and keys.dtype == np.uint64
    # Program-order replay: every delete removes, every hit-lookup hits.
    live, found, removed = _reference(kinds, keys)
    assert bool(removed[kinds == OP_DELETE].all()), "a delete targeted a dead key"
    assert len(live) == wl.live_keys
    # Determinism given (generator seed, workload seed).
    wl2 = BulkMixedWorkload(
        UniformKeys(10**12, seed=51), mix=(0.4, 0.3, 0.2, 0.1), seed=6, chunk=256
    )
    kinds2, keys2 = wl2.take_arrays(5000)
    assert kinds2.tolist() == kinds.tolist()
    assert keys2.tolist() == keys.tolist()
    assert wl.take_arrays(0)[0].size == 0


def test_bulk_mixed_workload_validation():
    gen = UniformKeys(10**12, seed=1)
    with pytest.raises(ValueError, match="mix"):
        BulkMixedWorkload(gen, mix=(1.0, -0.1, 0.0, 0.0))
    with pytest.raises(ValueError, match="chunk"):
        BulkMixedWorkload(gen, chunk=0)
    with pytest.raises(ValueError, match="count"):
        BulkMixedWorkload(gen).take_arrays(-1)


# -- golden pin of one combined run ------------------------------------------


def _combined_run(tmp_path, cache_blocks):
    """Every service feature at once, over a skewed stream.

    Thirds of one Zipf(1.3) trace: a journaled, traced, rebalancing
    ``run``; a snapshot and a second ``run``; then an open-loop drive at
    3x the service rate with shedding and per-shard breakers.  The twin
    is recovered from the snapshot plus the journal's second third.
    """
    wl = BulkMixedWorkload(
        make_generator("zipf", 10**12, 5, theta=1.3),
        mix=(0.45, 0.30, 0.15, 0.10),
        seed=9,
        chunk=256,
    )
    kinds, keys = wl.take_arrays(20000)
    ctx = make_context(
        b=16, m=256, u=10**12, backend="arena", cache_blocks=cache_blocks
    )
    svc = DictionaryService(
        ctx,
        _buffered,
        shards=4,
        epoch_ops=256,
        journal=EpochJournal(tmp_path / "epochs.journal"),
        rebalance=RebalanceConfig(threshold=1.1, window=2, cooldown=1, min_io=1),
        obs=ObsConfig(trace_path=str(tmp_path / "trace.jsonl"), wall_clock=False),
    )
    third = len(kinds) // 3
    first = svc.run(kinds[:third], keys[:third])
    svc.snapshot(tmp_path / "snap.pkl")
    second = svc.run(kinds[third : 2 * third], keys[third : 2 * third])
    twin = recover(
        tmp_path / "snap.pkl", tmp_path / "epochs.journal", resume_journal=False
    ).service
    report = OpenLoopClient(
        svc,
        PoissonArrivals(60000.0, seed=3),
        controller=AdmissionController(queue_depth=128, policy="shed"),
        breaker=ShardBreakerBoard(4, threshold=2, cooldown=0.01),
        service_rate=20000.0,
    ).drive(kinds[2 * third :], keys[2 * third :])
    svc.close()
    svc.journal.close()
    twin.close()
    return svc, twin, first.epochs + second.epochs, report


def _ledgers(svc):
    return {
        "io": svc.io_snapshot().as_dict(),
        "cache": svc.cache_snapshot().as_dict(),
        "shard_io": [s.as_dict() for s in svc.shard_io_snapshots()],
        "metrics": svc.metrics().as_dict(),
    }


#: cache_blocks -> (cluster I/O, cache hits/misses, migrated slots,
#: epochs, live keys, open-loop executed/shed, sha256 of everything).
GOLDEN = {
    0: (
        {"reads": 14933, "writes": 1771, "combined": 8953, "allocations": 1977},
        (0, 0),
        75,
        84,
        5878,
        (2408, 4260),
        "bfab3e3d3dc33dd4d706be2a58359af2e9bcb12c01eac45c1a8567c4db7e865c",
    ),
    4: (
        {"reads": 14147, "writes": 1978, "combined": 8413, "allocations": 2002},
        (445, 14147),
        68,
        84,
        5878,
        (2408, 4260),
        "a4f3fbde6bce917f89ef528882387668ebe7789425ad48cccfdd741e866ea21f",
    ),
}


@pytest.mark.parametrize("cache_blocks", sorted(GOLDEN))
def test_combined_run_golden(tmp_path, cache_blocks):
    svc, twin, epochs, report = _combined_run(tmp_path, cache_blocks)
    snap = svc.layout_snapshot()
    cache = svc.cache_snapshot()
    payload = {
        **_ledgers(svc),
        "setup_io": svc.setup_io,
        "epoch_io": [e.io for e in epochs],
        "blocks": sorted((b, list(v)) for b, v in snap.blocks.items()),
        "memory_items": sorted(snap.memory_items),
        "address_words": snap.address_description_words,
        "twin": _ledgers(twin),
        "trace": [
            strip_wall(r) for r in scan_trace(tmp_path / "trace.jsonl").records
        ],
        "client": report.row(),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    assert (
        svc.io_snapshot().as_dict(),
        (cache.hits, cache.misses),
        svc.migrated_slots,
        svc.epochs_run,
        len(svc),
        (report.executed, report.shed),
        digest,
    ) == GOLDEN[cache_blocks]
