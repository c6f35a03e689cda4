"""The request-path kernels equal the plain versions they replace.

``conflict_bounds`` sorts keys unstably and, when some key is seen
under two kinds, orders each key's positions with one integer sort; ``partition_positions`` radix-sorts narrow ids;
``membership`` sorts its queries before its binary search; the
service's ``_route`` makes one stable split over ``shard * 3 + kind``;
``BufferPool.access_sequence`` inlines its installs and reports its
victims after the replay.  Each is pinned here, over hypothesis-drawn
inputs, to a reference that does the same job the plain way: a stable
argsort of every key, a stable argsort of the ids as given, a search in
arrival order, a per-shard split of the stable shard groups, and a loop
of :meth:`BufferPool.access`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.em import Disk, make_context
from repro.em.cache import BufferPool
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import DictionaryService
from repro.service.epochs import Epoch, build_epochs, conflict_bounds
from repro.tables import ChainedHashTable
from repro.tables.batching import membership, partition_positions
from repro.workloads.trace import OP_DELETE, OP_INSERT, OP_LOOKUP

KERNELS = settings(derandomize=True, deadline=None, max_examples=150)


# -- references ----------------------------------------------------------------


def reference_bounds(kinds, keys, *, max_ops):
    """Epoch bounds from one stable argsort of every key."""
    n = len(kinds)
    if n == 0:
        return [0]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev_idx = order[:-1][same]
    cur_idx = order[1:][same]
    diff = kinds[prev_idx] != kinds[cur_idx]
    cur_conf = cur_idx[diff]
    prev_conf = prev_idx[diff]
    by_cur = np.argsort(cur_conf, kind="stable")
    bounds = [0]
    start = 0
    for cur, prev in zip(cur_conf[by_cur].tolist(), prev_conf[by_cur].tolist()):
        while cur - start > max_ops:
            start += max_ops
            bounds.append(start)
        if prev >= start:
            bounds.append(cur)
            start = cur
    while n - start > max_ops:
        start += max_ops
        bounds.append(start)
    bounds.append(n)
    return bounds


def reference_partition(bucket_idx):
    """Stable groups from a stable argsort of the ids as given."""
    n = len(bucket_idx)
    if n == 0:
        return []
    idx = np.asarray(bucket_idx)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    bounds = starts.tolist() + [n]
    return [
        (int(sorted_idx[bounds[j]]), order[bounds[j] : bounds[j + 1]])
        for j in range(len(starts))
    ]


def reference_membership(queries, values):
    """Binary search of every query in arrival order."""
    if values.size == 0:
        return np.zeros(len(queries), dtype=bool)
    sv = np.sort(values)
    pos = np.searchsorted(sv, queries)
    return sv[np.minimum(pos, sv.size - 1)] == queries


def reference_route(svc, epoch):
    """Each shard's stable group split at the insert/delete/lookup cuts."""
    keys = np.concatenate([epoch.insert_keys, epoch.delete_keys, epoch.lookup_keys])
    if not len(keys):
        return {}
    n_ins = len(epoch.insert_keys)
    pos = np.concatenate([np.zeros(n_ins, int), epoch.delete_pos, epoch.lookup_pos])
    cuts = [n_ins, n_ins + len(epoch.delete_keys)]
    shards = svc.directory.slot_map[svc.directory.slots_of(keys)]
    work = {}
    for shard, group in reference_partition(shards):
        ins, dels, looks = np.split(group, np.searchsorted(group, cuts))
        work[shard] = [
            values[at] if len(at) else None
            for values, at in (
                (keys, ins), (keys, dels), (pos, dels), (keys, looks), (pos, looks)
            )
        ]
    return work


def same_groups(got, want):
    assert [g for g, _ in got] == [g for g, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.tolist() == b.tolist()


# -- conflict_bounds -------------------------------------------------------------


@st.composite
def op_streams(draw):
    """0–200 ops over 1–12 keys, with all three kinds, and a cap."""
    pool = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12, unique=True)
    )
    n = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    keys = np.asarray(pool, dtype=np.uint64)[rng.integers(0, len(pool), size=n)]
    kinds = rng.choice(
        np.array([OP_INSERT, OP_LOOKUP, OP_DELETE], dtype=np.uint8), size=n
    )
    max_ops = draw(st.sampled_from([1, 2, 7, 64, max(n, 1)]))
    return kinds, keys, max_ops


@KERNELS
@given(op_streams())
def test_conflict_bounds_match_the_full_stable_sort(stream):
    kinds, keys, max_ops = stream
    want = reference_bounds(kinds, keys, max_ops=max_ops)
    assert conflict_bounds(kinds, keys, max_ops=max_ops) == want
    starts = [e.start for e in build_epochs(kinds, keys, max_ops=max_ops)]
    assert starts + [len(kinds)] == want if starts else want == [0]


def test_conflict_bounds_of_single_kind_and_all_conflict_streams():
    keys = np.array([3, 1, 3, 2, 1, 3], dtype=np.uint64)
    for kinds in (
        np.full(6, OP_LOOKUP, dtype=np.uint8),
        np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8),
    ):
        for max_ops in (1, 2, 6):
            assert conflict_bounds(kinds, keys, max_ops=max_ops) == reference_bounds(
                kinds, keys, max_ops=max_ops
            )


# -- partition_positions -----------------------------------------------------------


@st.composite
def id_arrays(draw):
    """Ids below 2^8, below 2^16 or reaching past 2^16, in several dtypes."""
    n = draw(st.integers(0, 300))
    high = draw(st.sampled_from([1, 3, 2**8, 2**16, 2**16 + 1, 2**40]))
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.int32, np.uint16, np.uint8]))
    if np.iinfo(dtype).max < high - 1:
        high = int(np.iinfo(dtype).max) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.integers(0, high, size=n, dtype=np.int64)
    if n and draw(st.booleans()):
        ids[rng.integers(0, n)] = high - 1  # the top id itself
    return ids.astype(dtype)


@KERNELS
@given(id_arrays())
def test_partition_positions_matches_the_stable_sort_of_the_ids(ids):
    got = partition_positions(ids)
    same_groups(got, reference_partition(ids))
    assert all(isinstance(g, int) for g, _ in got)


def test_partition_positions_of_empty_and_negative_ids():
    assert partition_positions(np.zeros(0, dtype=np.int64)) == []
    ids = np.array([5, -3, 5, 0, -3, 70000, 0], dtype=np.int64)
    same_groups(partition_positions(ids), reference_partition(ids))


# -- membership ----------------------------------------------------------------------


@st.composite
def query_sets(draw):
    """Small and large query sets (both sides of 512), with repeats and
    misses."""
    near = 512
    n_q = draw(
        st.sampled_from([0, 1, 7, near - 2, near - 1, near, near + 1, 2 * near + 5])
    )
    n_v = draw(st.sampled_from([0, 1, 5, 100, 3000]))
    universe = draw(st.sampled_from([4, 50, 2**20, 2**64 - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, universe, size=n_v, dtype=np.uint64, endpoint=True)
    queries = rng.integers(0, universe, size=n_q, dtype=np.uint64, endpoint=True)
    if n_v and n_q:
        hits = rng.random(n_q) < 0.5
        queries[hits] = values[rng.integers(0, n_v, size=int(hits.sum()))]
    return queries, values


@KERNELS
@given(query_sets())
def test_membership_matches_the_arrival_order_search(case):
    queries, values = case
    got = membership(queries, values)
    assert got.dtype == bool
    assert got.tolist() == reference_membership(queries, values).tolist()


# -- the service's shard split -------------------------------------------------------


#: The epoch of an empty stream, which ``build_epochs`` never emits.
EMPTY = Epoch(
    start=0,
    stop=0,
    insert_keys=np.zeros(0, dtype=np.uint64),
    lookup_keys=np.zeros(0, dtype=np.uint64),
    lookup_pos=np.zeros(0, dtype=np.int64),
    delete_keys=np.zeros(0, dtype=np.uint64),
    delete_pos=np.zeros(0, dtype=np.int64),
)


def _chained(ctx):
    return ChainedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


@st.composite
def routed_epochs(draw):
    """An epoch over 1, 3 or 8 shards, some slots moved, kinds missing."""
    shards = draw(st.sampled_from([1, 3, 8]))
    n = draw(st.integers(0, 150))
    present = draw(
        st.sets(st.sampled_from([OP_INSERT, OP_LOOKUP, OP_DELETE]), min_size=1)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.choice(np.array(sorted(present), dtype=np.uint8), size=n)
    # Distinct keys, so one epoch holds the whole stream.
    keys = rng.choice(2**40, size=n, replace=False).astype(np.uint64)
    moves = draw(
        st.lists(
            st.tuples(st.integers(0, 64 * shards - 1), st.integers(0, shards - 1)),
            max_size=6,
        )
    )
    return shards, kinds, keys, moves


@KERNELS
@given(routed_epochs())
def test_route_matches_the_per_shard_split(case):
    shards, kinds, keys, moves = case
    ctx = make_context(b=8, m=256, backend="arena", hard_memory=False)
    with DictionaryService(ctx, _chained, shards=shards, rebalance=True) as svc:
        for slot, shard in moves:
            svc.directory.assign(slot, shard)
        (epoch,) = build_epochs(kinds, keys, max_ops=max(len(kinds), 1)) or [EMPTY]
        svc._epoch_slot_ops = np.zeros(svc.directory.slots, dtype=np.int64)
        got = svc._route(epoch)
        want = reference_route(svc, epoch)
        assert sorted(got) == sorted(want)
        for shard, batch in want.items():
            for mine, theirs in zip(got[shard], batch):
                assert (mine is None) == (theirs is None)
                if theirs is not None:
                    assert mine.tolist() == theirs.tolist()
        all_keys = np.concatenate(
            [epoch.insert_keys, epoch.delete_keys, epoch.lookup_keys]
        )
        tally = np.bincount(
            svc.directory.slots_of(all_keys), minlength=svc.directory.slots
        )
        assert svc._epoch_slot_ops.tolist() == tally.tolist()


# -- the LRU replay --------------------------------------------------------------------


@st.composite
def replays(draw):
    """A pool of 1–64 frames, empty or full, and a walk of block ids."""
    capacity = draw(st.integers(1, 64))
    full = draw(st.booleans())
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1, 2, 4]))
    ids = rng.integers(0, capacity * spread + 1, size=n)
    return capacity, full, ids


def _pool(capacity, full):
    pool = BufferPool(Disk(4), capacity)
    if full:
        # Residents the walk will hit, in an LRU order it must keep.
        for bid in reversed(range(capacity)):
            pool.access(bid)
    dropped: list[int] = []
    pool.on_evict = dropped.append
    return pool, dropped


@KERNELS
@given(replays())
def test_access_sequence_matches_a_loop_of_access(case):
    capacity, full, ids = case
    loop, loop_dropped = _pool(capacity, full)
    replay, replay_dropped = _pool(capacity, full)
    expected = [loop.access(bid) for bid in ids.tolist()]
    assert replay.access_sequence(ids).tolist() == expected
    assert replay.stats == loop.stats
    assert replay.resident() == loop.resident()
    assert replay_dropped == loop_dropped
