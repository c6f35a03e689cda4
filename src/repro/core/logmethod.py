"""The logarithmic method applied to external hashing (Lemma 5).

A series of hash tables ``H_0, H_1, H_2, ...`` where ``H_k`` has
``γ^k · (m/b)`` buckets and stores up to ``(1/2) γ^k m`` items (load
factor ≤ 1/2).  ``H_0`` lives in memory; the rest on disk.  New items
go to ``H_0``; when ``H_k`` fills, its items migrate into ``H_{k+1}``
by a parallel scan costing ``O(γ^{k+1} m/b)`` I/Os — each ``H_k``
bucket maps onto γ buckets of ``H_{k+1}`` determined by more bits of
the hash value.

Costs (Lemma 5): insertion ``O((γ/b) log(n/m))`` amortized; lookup
``O(log_γ(n/m))`` expected (one bucket probe per non-empty level).

Addressing detail: level ``k`` assigns ``x`` to bucket
``h(x) mod d_k`` with ``d_k = γ^k d_0``; bucket ``j`` of ``H_k``
corresponds to the γ buckets ``{j + i·d_k}`` of ``H_{k+1}`` — a strided
rather than consecutive grouping, with the identical merge cost.  The
per-level bucket directory is an arithmetic base+offset (buckets are
allocated contiguously), so addressing needs O(1) memory words per
level, matching the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..em.storage import EMContext
from ..hashing.base import HashFunction
from ..tables.base import ExternalDictionary, LayoutSnapshot
from ..tables.batching import (
    concat_records,
    fresh_in_order,
    membership,
    normalize_keys,
    partition_by_bucket,
)
from ..tables.overflow import ChainedBucket, bulk_merge_into


def _gather_is_cheaper(n: int, per_block: int, stored: int) -> bool:
    """Should ``n`` keys probe their own blocks of ``per_block`` records
    rather than one sorted copy of a bucket row holding ``stored`` items?

    Measured on one arena shard (b = 128 to 1024, 40k to 125k keys in
    ``Ĥ``): the gather won up to ``n · per_block = 10 · stored`` and lost
    from ``12 · stored`` at b = 1024, where it outgrows the CPU caches.
    """
    return n * per_block <= 10 * stored


class _DiskLevel:
    """One disk-resident level ``H_k``: an array of chained buckets."""

    __slots__ = ("k", "buckets", "count", "capacity")

    def __init__(self, ctx: EMContext, k: int, d_k: int, capacity: int) -> None:
        self.k = k
        self.buckets = ChainedBucket.bulk_row(ctx.disk, d_k)
        self.count = 0
        self.capacity = capacity

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    @property
    def empty(self) -> bool:
        return self.count == 0

    def free_all(self) -> None:
        for bkt in self.buckets:
            bkt.free_all()


class LogMethodHashTable(ExternalDictionary):
    """Bentley's logarithmic method over external hash tables.

    Parameters
    ----------
    ctx, hash_fn:
        Context and hash function.
    gamma:
        Level growth factor ``γ >= 2``.
    h0_capacity:
        Items ``H_0`` holds before migrating; defaults to ``m/2``
        (load factor 1/2 on the memory table, as in the paper).
    base_buckets:
        ``d_0 = m/b`` by default.
    """

    def __init__(
        self,
        ctx: EMContext,
        hash_fn: HashFunction,
        *,
        gamma: int = 2,
        h0_capacity: int | None = None,
        base_buckets: int | None = None,
    ) -> None:
        super().__init__(ctx)
        if gamma < 2:
            raise ValueError(f"γ must be at least 2, got {gamma}")
        self.h = hash_fn
        self.gamma = gamma
        self.h0_capacity = h0_capacity if h0_capacity is not None else max(1, ctx.m // 2)
        self.d0 = base_buckets if base_buckets is not None else max(1, ctx.m // ctx.b)
        self._h0: set[int] = set()
        self._levels: list[_DiskLevel | None] = []
        # Simulator-side membership shadow for set semantics.  The paper
        # inserts distinct items and its structure performs no duplicate
        # probe on insertion; the shadow keeps the Python API honest
        # without charging I/Os the modelled algorithm would not do.
        self._shadow: set[int] = set()
        self._charge_memory()

    # -- memory accounting ---------------------------------------------------

    def memory_words(self) -> int:
        # H0's items plus O(1) addressing words per level (contiguous
        # bucket arrays) plus the hash seed.
        return len(self._h0) + 2 * len(self._levels) + 2

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- level geometry --------------------------------------------------------

    def level_buckets(self, k: int) -> int:
        """``d_k = γ^k d_0`` (k >= 1 for disk levels)."""
        return self.gamma**k * self.d0

    def level_capacity(self, k: int) -> int:
        """``(1/2) γ^k m`` scaled from the H0 capacity."""
        return self.gamma**k * self.h0_capacity

    def nonempty_levels(self) -> list[int]:
        return [
            lvl.k for lvl in self._levels if lvl is not None and not lvl.empty
        ]

    # -- operations ----------------------------------------------------------------

    def insert(self, key: int) -> None:
        if key in self._shadow:
            return
        self._shadow.add(key)
        self._h0.add(key)
        self._size += 1
        self.stats.inserts += 1
        if len(self._h0) >= self.h0_capacity:
            self._migrate_h0()
        self._charge_memory()

    def lookup(self, key: int) -> bool:
        self.stats.lookups += 1
        if key in self._h0:
            self.stats.hits += 1
            return True
        if self.lookup_disk_only(key):
            self.stats.hits += 1
            return True
        return False

    def delete(self, key: int) -> bool:
        """Remove ``key``: free from ``H_0``, else one chain walk per
        non-empty level until found (charged like a lookup)."""
        if key in self._h0:
            self._h0.discard(key)
            self._shadow.discard(key)
            self._size -= 1
            self.stats.deletes += 1
            self._charge_memory()
            return True
        return self.delete_disk_only(key)

    def delete_disk_only(self, key: int, *, hashed: int | None = None) -> bool:
        """Remove ``key`` from whichever disk level holds it.

        The deletion counterpart of :meth:`lookup_disk_only`: probes the
        key's bucket in each non-empty level (charged chain walk) and
        rewrites the block it is found in.  ``hashed`` lets batch
        callers pass a precomputed ``h(key)``.
        """
        hv = int(self.h.hash(key)) if hashed is None else hashed
        for lvl in self._levels:
            if lvl is None or lvl.empty:
                continue
            if lvl.buckets[hv % len(lvl.buckets)].delete(key):
                lvl.count -= 1
                self._shadow.discard(key)
                self._size -= 1
                self.stats.deletes += 1
                return True
        return False

    def in_memory(self, key: int) -> bool:
        """Is ``key`` resident in the memory table ``H_0`` (no I/O)?

        Public accessor so wrappers (e.g. the Theorem 2 table's probe
        order) never reach into the private ``_h0`` set.
        """
        return key in self._h0

    def lookup_disk_only(self, key: int) -> bool:
        """Probe each non-empty disk level once (a charged chain walk of
        the key's bucket), stopping at the first hit."""
        hv = int(self.h.hash(key))
        return any(
            lvl.buckets[hv % len(lvl.buckets)].lookup(key)[0]
            for lvl in self._levels
            if lvl is not None and not lvl.empty
        )

    # -- batch operations -------------------------------------------------------------

    def insert_batch(self, keys: Sequence[int] | np.ndarray) -> None:
        """Bulk insert with the scalar path's exact migration schedule.

        Keys are deduplicated against the shadow in one pass, then fed
        to ``H_0`` in segments that stop precisely where the scalar loop
        would trigger :meth:`_migrate_h0`; the per-insert bookkeeping
        (size, stats, memory charge) is amortised over each segment.
        """
        fresh = fresh_in_order(keys, self._shadow)
        if fresh:
            self._insert_fresh(fresh)

    def _insert_fresh(self, fresh: list[int]) -> None:
        """Segmented ``H_0`` fill for keys guaranteed new to this table.

        ``insert_batch`` calls this after its shadow dedup; wrappers
        with their own duplicate screen (the Theorem 2 table) call it
        directly, skipping a second per-key pass — every key they feed
        is globally fresh, so this table's shadow never needs to see it.
        """
        h0 = self._h0
        cap = self.h0_capacity
        pos = 0
        n = len(fresh)
        while pos < n:
            seg = fresh[pos : pos + cap - len(h0)]
            # Bulk add is order-safe: drains emit H_0 in sorted order, so
            # the set's internal build history is unobservable.
            h0.update(seg)
            took = len(seg)
            pos += took
            self._size += took
            self.stats.inserts += took
            if len(h0) >= cap:
                # The scalar loop's memory peak is the charge taken at
                # the end of the insert *before* the migrating one, when
                # H_0 held cap-1 items; replicate it before migrating.
                self.ctx.memory.set_charge(self._charge_key, self.memory_words() - 1)
                self._migrate_h0()
        self._charge_memory()

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        key_list, arr = normalize_keys(keys)
        in_h0 = self.memory_membership(key_list)
        found, cost = self.probe_levels_batch(arr, ~in_h0)
        out = in_h0 | found
        self.stats.lookups += len(key_list)
        self.stats.hits += int(np.count_nonzero(out))
        if cost_out is not None:
            cost_out.extend(cost.tolist())
        return out

    def delete_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Vectorised-hash deletes; the level walk stays per key.

        Deletion never migrates levels, so one ``hash_array`` call
        serves the whole batch; ``H_0`` hits stay free, disk hits charge
        exactly the scalar chain walk.
        """
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        hv = self.h.hash_array(arr).tolist()
        h0 = self._h0
        stats = self.ctx.stats
        for i in range(n):
            key = key_list[i]
            if key in h0:
                h0.discard(key)
                self._shadow.discard(key)
                self._size -= 1
                self.stats.deletes += 1
                self._charge_memory()
                out[i] = True
                if cost_out is not None:
                    cost_out.append(0)
                continue
            if cost_out is None:
                out[i] = self.delete_disk_only(key, hashed=hv[i])
            else:
                before = stats.reads + stats.writes
                out[i] = self.delete_disk_only(key, hashed=hv[i])
                cost_out.append(stats.reads + stats.writes - before)
        return out

    # -- vectorised probing helpers ---------------------------------------------------

    def memory_membership(self, key_list: list[int]) -> np.ndarray:
        """:meth:`in_memory` of every key, by set probes (no I/O)."""
        return np.fromiter(
            map(self._h0.__contains__, key_list), dtype=bool, count=len(key_list)
        )

    def probe_levels_batch(
        self,
        arr: np.ndarray,
        mask: np.ndarray,
        *,
        head: tuple[list[ChainedBucket], int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`lookup_disk_only` for ``arr[mask]``.

        Each masked key probes its bucket in ``head`` — a bucket row
        probed ahead of the levels with its stored-item count, the
        Theorem 2 table's ``Ĥ`` — then in each non-empty level, stopping
        at its first hit: the scalar walk.  Address, then gather: every
        row's primaries are contiguous, so a still-searching key's block
        is ``row[0].primary + h % d`` and one :meth:`Disk.keys_in` call
        probes all of them; a key that misses a chained bucket takes one
        more round per chain block.  Large batches test the primary
        round against the whole row's records instead (an item lives
        only in its own bucket, so the answer is the same) where
        :func:`_gather_is_cheaper` says that costs less.  Each key is
        hashed once; the walk's block ids are charged by
        :meth:`_charge_walk`.  Returns ``(found, charged reads)`` per
        key of ``arr``, zero for unmasked keys.
        """
        rows = [] if head is None else [head]
        rows += [
            (lvl.buckets, lvl.count)
            for lvl in self._levels
            if lvl is not None and not lvl.empty
        ]
        found = np.zeros(len(arr), dtype=bool)
        cost = np.zeros(len(arr), dtype=np.int64)
        probing = np.flatnonzero(mask)
        if not rows or probing.size == 0:
            return found, cost
        disk = self.ctx.disk
        keys = arr[probing]
        hv = self.h.hash_array(keys)
        per_block = disk.b // disk.record_words
        # (key positions, block ids) of each probe round, in walk order.
        rounds: list[tuple[np.ndarray, np.ndarray]] = []
        searching = np.arange(len(keys))
        for row, stored in rows:
            if searching.size == 0:
                break
            bkt = (hv[searching] % np.uint64(len(row))).astype(np.int64)
            bids = bkt + row[0].primary
            probe = keys[searching]
            if _gather_is_cheaper(len(probe), per_block, stored):
                hit = disk.keys_in(bids, probe)
            else:
                items = concat_records(disk.records_arr(b.primary) for b in row)
                hit = membership(probe, items)
            rounds.append((searching, bids))
            missed = np.flatnonzero(~hit)
            if len(missed) > len(row):  # one pass over the row is cheaper
                missed = missed[np.array([bool(b._chain) for b in row])[bkt[missed]]]
            chained = [
                (i, row[j]._chain)
                for i, j in zip(missed.tolist(), bkt[missed].tolist())
                if row[j]._chain
            ]
            depth = 0
            while chained:
                pos = np.array([i for i, _ in chained])
                ids = np.array([chain[depth] for _, chain in chained])
                hit[pos] = disk.keys_in(ids, probe[pos])
                rounds.append((searching[pos], ids))
                depth += 1
                chained = [(i, c) for i, c in chained if not hit[i] and len(c) > depth]
            searching = searching[~hit]
        ids = np.full((len(keys), len(rounds)), -1, dtype=np.int64)
        for r, (pos, bids) in enumerate(rounds):
            ids[pos, r] = bids
        found[probing] = True
        found[probing[searching]] = False
        cost[probing] = self._charge_walk(ids)
        return found, cost

    def _charge_walk(self, ids: np.ndarray) -> np.ndarray:
        """Charge a vectorised walk exactly as the scalar walk would.

        ``ids[i, r]`` is the block key ``i`` probes in round ``r`` (-1
        when it took no part); row-major order is the scalar order, key
        by key.  Uncached, each probe is one read, charged in bulk, the
        last one left as the pending read-modify-write block; with a
        buffer pool, :meth:`~repro.em.cache.CachedDisk.charge_probes`
        replays the ids and charges the misses.  Returns each key's
        charged reads.
        """
        disk = self.ctx.disk
        visits = ids >= 0
        walk = ids[visits]
        if disk.cache is None:
            disk.stats.record_reads(walk)
            return visits.sum(axis=1)
        charged = visits.copy()
        charged[visits] = ~disk.charge_probes(walk)
        return charged.sum(axis=1)

    # -- migration -------------------------------------------------------------------

    def _migrate_h0(self) -> None:
        """Flush ``H_0`` into ``H_1``, cascading full levels downward.

        ``H_0`` is drained in sorted order: within-bucket placement is
        order-insensitive for cost, and a canonical order keeps block
        contents independent of the set's build history (the batch and
        scalar paths then agree bit-for-bit by construction).
        """
        items = np.sort(
            np.fromiter(self._h0, dtype=np.uint64, count=len(self._h0))
        ).tolist()
        self._h0.clear()
        self._merge_into_level(1, items)
        k = 1
        while True:
            lvl = self._get_level(k)
            if not lvl.full:
                break
            moving = self._drain_level(k)
            self._merge_into_level(k + 1, moving)
            k += 1

    def _get_level(self, k: int) -> _DiskLevel:
        while len(self._levels) < k:
            self._levels.append(None)
        if self._levels[k - 1] is None:
            self._levels[k - 1] = _DiskLevel(
                self.ctx, k, self.level_buckets(k), self.level_capacity(k)
            )
            self._charge_memory()
        return self._levels[k - 1]  # type: ignore[return-value]

    def _drain_level(self, k: int) -> list[int]:
        """Read out every item of ``H_k`` (charged) and empty it.

        Equivalent to ``read_all()`` + ``replace_all([])`` per bucket —
        every bucket is read (empty ones too), non-empty ones are
        rewritten empty — but the common chain-free case is charged in
        bulk: one read per bucket, one combining write per non-empty
        bucket, and the pending RMW block left exactly as the scalar
        loop's last bucket would.
        """
        lvl = self._get_level(k)
        disk = self.ctx.disk
        stats = disk.stats
        cache = disk.cache
        drain = disk.drain_uncharged
        items: list[int] = []
        reads = 0
        drained = 0
        hits = 0
        hit_drained = 0
        last_nonempty = False
        last_was_hit = False
        for bkt in lvl.buckets:
            if bkt._chain:
                last_was_hit = cache is not None and cache.is_resident(
                    bkt.block_ids[-1]
                )
                got = bkt.read_all()
                last_nonempty = bool(got)
                if got:
                    items.extend(got)
                    bkt.replace_all([])
                continue
            reads += 1
            # Residency must be sampled before the drain: a cached
            # drain_uncharged drops the frame for coherence.
            hit = cache is not None and cache.is_resident(bkt.primary)
            if hit:
                hits += 1
            last_was_hit = hit
            got = drain(bkt.primary)
            if got:
                items.extend(got)
                drained += 1
                if hit:
                    hit_drained += 1
                last_nonempty = True
            else:
                last_nonempty = False
        if cache is None:
            if reads:
                stats.reads += reads
            if drained:
                # Each rewrite immediately follows the read of its own
                # block: a combining policy nets it out, and a non-empty
                # block is never an allocation.
                if stats.policy.combine_rmw:
                    stats.combined += drained
                else:
                    stats.writes += drained
            last = lvl.buckets[-1]
            stats._last_read_block = None if last_nonempty else last.block_ids[-1]
        else:
            # Resident buckets are hits: read not charged, and their
            # rewrites cannot combine (no physical read preceded them).
            cache.stats.hits += hits
            cache.stats.misses += reads - hits
            stats.reads += reads - hits
            miss_drained = drained - hit_drained
            if miss_drained:
                if stats.policy.combine_rmw:
                    stats.combined += miss_drained
                else:
                    stats.writes += miss_drained
            stats.writes += hit_drained
            # The pending RMW block must name the last *physical* read;
            # that is only knowable when the final bucket was an empty
            # miss (read charged, nothing written after it).
            if not last_nonempty and not last_was_hit:
                stats._last_read_block = lvl.buckets[-1].block_ids[-1]
            else:
                stats._last_read_block = None
        lvl.count = 0
        return items

    def _merge_into_level(self, k: int, items: list[int]) -> None:
        """Merge ``items`` (already in memory) into ``H_k`` by bucket scan.

        For each target bucket receiving items: read its chain, append,
        rewrite — the "scan the two tables in parallel" of the paper,
        bucket-group at a time so peak memory stays O(γ·b) words.
        """
        if not items:
            return
        self.stats.merges += 1
        lvl = self._get_level(k)
        d_k = len(lvl.buckets)
        arr = np.asarray(items, dtype=np.uint64)
        parts = partition_by_bucket(arr, self.h.hash_array(arr) % np.uint64(d_k))
        bulk_merge_into(lvl.buckets, parts, self.ctx.disk)
        lvl.count += len(items)

    # -- instrumentation --------------------------------------------------------------

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks: dict[int, tuple[int, ...]] = {}
        for lvl in self._levels:
            if lvl is None:
                continue
            for bkt in lvl.buckets:
                for bid, blk_items in bkt.peek_blocks():
                    blocks[bid] = blk_items
        # One-I/O address: the deepest (largest) non-empty level's bucket —
        # the best single guess for where an item lives.
        deepest = None
        for lvl in self._levels:
            if lvl is not None and not lvl.empty:
                deepest = lvl
        h = self.h

        def address(key: int) -> int | None:
            if deepest is None:
                return None
            return deepest.buckets[int(h.hash(key)) % len(deepest.buckets)].primary

        return LayoutSnapshot(
            memory_items=frozenset(self._h0),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        assert len(self._h0) < self.h0_capacity or self.h0_capacity == 0
        total = len(self._h0)
        seen = set(self._h0)
        for lvl in self._levels:
            if lvl is None:
                continue
            stored = 0
            for idx, bkt in enumerate(lvl.buckets):
                assert bkt.primary == lvl.buckets[0].primary + idx  # addressing
                for x in bkt.peek_all():
                    assert int(self.h.hash(x)) % len(lvl.buckets) == idx
                    assert x not in seen, f"duplicate {x}"
                    seen.add(x)
                    stored += 1
            assert stored == lvl.count, f"level {lvl.k}: {stored} != {lvl.count}"
            total += stored
        assert total == self._size

    def clear(self) -> None:
        """Free all disk state and reset to empty (used by Theorem 2's table)."""
        self._h0.clear()
        self._shadow.clear()
        for lvl in self._levels:
            if lvl is not None:
                lvl.free_all()
        self._levels = []
        self._size = 0
        self._charge_memory()

    def drain_all(self) -> list[int]:
        """Read out *all* items (charged), leaving the table empty.

        Used by the bootstrapped table when merging the recent items
        into ``Ĥ``.  ``H_0`` items lead, in sorted order (see
        :meth:`_migrate_h0`).
        """
        items = np.sort(
            np.fromiter(self._h0, dtype=np.uint64, count=len(self._h0))
        ).tolist()
        self._h0.clear()
        for lvl in self._levels:
            if lvl is None or lvl.empty:
                continue
            items.extend(self._drain_level(lvl.k))
        for lvl in self._levels:
            if lvl is not None:
                lvl.free_all()
        self._levels = []
        self._size = 0
        self._shadow.clear()
        self._charge_memory()
        return items
