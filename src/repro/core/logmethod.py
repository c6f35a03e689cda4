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
from ..tables.overflow import ChainedBucket, bulk_drain, bulk_merge_into


#: A bucket row probed ahead of the levels, with its stored-item count.
Head = tuple[list[ChainedBucket], int]
#: A row of a walk: its buckets, stored-item count and level (None for a head).
Row = tuple[list[ChainedBucket], int, "_DiskLevel | None"]
#: One probe round of a walk: (row index, key positions, block ids, hits).
Round = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def _gather_is_cheaper(n: int, per_block: int, stored: int) -> bool:
    """Should ``n`` keys probe their own blocks of ``per_block`` records
    rather than one sorted copy of a bucket row holding ``stored`` items?

    Measured on one arena shard (b = 128 to 1024, 40k to 125k keys in
    ``Ĥ``): the gather won up to ``n · per_block = 10 · stored`` and lost
    from ``12 · stored`` at b = 1024, where it outgrows the CPU caches.
    """
    return n * per_block <= 10 * stored


def _walk_is_cheaper(n: int) -> bool:
    """Should a delete batch of ``n`` hit keys take the removing walk
    (:meth:`LogMethodHashTable.delete_levels_batch`) rather than the
    per-key loop?

    Measured on one Theorem 2 arena shard with b = 1024, m = 4096 and
    75k or 125k keys (9 alternating runs, median µs per batch, loop vs
    walk): n = 1 12 vs 137, n = 16 153–159 vs 197–235, n = 24 227–234
    vs 222–249, n = 32 305–312 vs 305–314, n = 40 390 vs 333–345,
    n = 64 601–618 vs 406–433.  The walk's fixed cost is about 130 µs
    of array operations; the loop costs about 10 µs a key.
    """
    return n >= 32


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
        rewrites the block it is found in.  ``hashed`` lets a caller that
        already hashed the key (the Theorem 2 table) pass ``h(key)``.
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
        """``H_0`` by set removals, then one removing walk of the levels
        (:meth:`delete_levels_batch`) where :func:`_walk_is_cheaper`;
        smaller batches take the per-key loop.  Either way each key is
        charged what :meth:`delete` charges it.
        """
        key_list, arr = normalize_keys(keys)
        if not _walk_is_cheaper(len(key_list)):
            return super().delete_batch(key_list, cost_out=cost_out)
        in_mem = self.delete_from_memory(key_list)
        out, _ = self.delete_levels_batch(arr, ~in_mem, cost_out=cost_out)
        return out | in_mem

    # -- vectorised probing helpers ---------------------------------------------------

    def memory_membership(self, key_list: list[int]) -> np.ndarray:
        """:meth:`in_memory` of every key, by set probes (no I/O)."""
        return np.fromiter(
            map(self._h0.__contains__, key_list), dtype=bool, count=len(key_list)
        )

    def delete_from_memory(self, key_list: list[int]) -> np.ndarray:
        """:meth:`delete`'s free ``H_0`` branch for every key it takes, in
        order (a repeated key's first occurrence takes it); returns the
        mask of the keys removed."""
        out = self.memory_membership(key_list)
        h0 = self._h0
        for i in np.flatnonzero(out).tolist():
            key = key_list[i]
            if key in h0:
                h0.remove(key)
                self._shadow.discard(key)
            else:
                out[i] = False
        taken = int(np.count_nonzero(out))
        self._size -= taken
        self.stats.deletes += taken
        self._charge_memory()
        return out

    def _rows(self, head: Head | None) -> list[Row]:
        """The walk's bucket rows: ``head``, then each non-empty level."""
        rows = [] if head is None else [(*head, None)]
        return rows + [
            (lvl.buckets, lvl.count, lvl)
            for lvl in self._levels
            if lvl is not None and not lvl.empty
        ]

    def _walk(self, keys: np.ndarray, rows: list[Row], *, remove: bool) -> list[Round]:
        """The scalar walk of every key over ``rows``, stopping at its
        first hit, as probe rounds in walk order.

        Address, then gather: every row's primaries are contiguous, so a
        still-searching key's block is ``row[0].primary + h % d`` and one
        :meth:`Disk.keys_in` call probes all of them (with ``remove``,
        one :meth:`Disk.remove_uncharged` call, which removes the hits);
        a key that misses a chained bucket takes one more round per chain
        block.  Large lookup batches test the primary round against the
        whole row's records instead (an item lives only in its own
        bucket, so the answer is the same) where :func:`_gather_is_cheaper`
        says that costs less.  Each key is hashed once.  A round is
        ``(row index, key positions, block ids, hits)``.
        """
        disk = self.ctx.disk
        gather = disk.remove_uncharged if remove else disk.keys_in
        per_block = disk.b // disk.record_words
        hv = self.h.hash_array(keys)
        rounds: list[Round] = []
        searching = np.arange(len(keys))
        for r, (row, stored, _) in enumerate(rows):
            if searching.size == 0:
                break
            bkt = (hv[searching] % np.uint64(len(row))).astype(np.int64)
            bids = bkt + row[0].primary
            probe = keys[searching]
            if remove or _gather_is_cheaper(len(probe), per_block, stored):
                hit = gather(bids, probe)
            else:
                items = concat_records(disk.records_arr(b.primary) for b in row)
                hit = membership(probe, items)
            rounds.append((r, searching, bids, hit.copy()))
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
                hit[pos] = got = gather(ids, probe[pos])
                rounds.append((r, searching[pos], ids, got))
                depth += 1
                chained = [(i, c) for i, c in chained if not hit[i] and len(c) > depth]
            searching = searching[~hit]
        return rounds

    def probe_levels_batch(
        self,
        arr: np.ndarray,
        mask: np.ndarray,
        *,
        head: Head | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`lookup_disk_only` for ``arr[mask]``.

        Each masked key probes its bucket in ``head`` — a bucket row
        probed ahead of the levels with its stored-item count, the
        Theorem 2 table's ``Ĥ`` — then in each non-empty level, stopping
        at its first hit: one :meth:`_walk`, whose block ids are charged
        by :meth:`~repro.em.disk.Disk.charge_walk`.  Returns ``(found,
        charged reads)`` per key of ``arr``, zero for unmasked keys.
        """
        found = np.zeros(len(arr), dtype=bool)
        cost = np.zeros(len(arr), dtype=np.int64)
        probing = np.flatnonzero(mask)
        rows = self._rows(head)
        if not rows or probing.size == 0:
            return found, cost
        rounds = self._walk(arr[probing], rows, remove=False)
        for _, pos, _, hit in rounds:
            found[probing[pos[hit]]] = True
        walk = [(pos, bids) for _, pos, bids, _ in rounds]
        cost[probing] = self.ctx.disk.charge_walk(len(probing), walk)
        return found, cost

    def delete_levels_batch(
        self,
        arr: np.ndarray,
        mask: np.ndarray,
        *,
        head: Head | None = None,
        cost_out: list[int] | None = None,
    ) -> tuple[np.ndarray, int]:
        """Vectorised :meth:`delete_disk_only` for ``arr[mask]``, in order.

        The rows of :meth:`probe_levels_batch`, walked by one removing
        :meth:`_walk`: a repeated key's first occurrence removes it, so
        the rest miss and walk every row, as in the loop.  A level the
        batch empties is skipped by the keys after the one that emptied
        it, as the loop skips empty levels; ``head`` is probed by every
        key.  The probes are charged in scalar key-major order by
        :meth:`~repro.em.disk.Disk.charge_sweep` with the hits written,
        :meth:`~repro.em.disk.Disk.remove_record`'s rule: in one call, or
        key by key when ``cost_out`` takes each key's charged I/Os (zero
        for unmasked keys).  Levels lose their hits here; returns which
        keys of ``arr`` were removed and how many of them ``head`` lost.
        """
        removed = np.zeros(len(arr), dtype=bool)
        cost = np.zeros(len(arr), dtype=np.int64)
        probing = np.flatnonzero(mask)
        rows = self._rows(head)
        rounds = self._walk(arr[probing], rows, remove=True) if probing.size else []
        charged: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        head_hits = 0
        for r, (_, _, lvl) in enumerate(rows):
            mine = [(pos, bids, hit) for rr, pos, bids, hit in rounds if rr == r]
            if not mine:  # every key stopped before this row
                break
            gone = np.concatenate([pos[hit] for pos, _, hit in mine])
            removed[probing[gone]] = True
            if lvl is None:
                head_hits = len(gone)
            elif len(gone):
                lvl.count -= len(gone)
                self._shadow.difference_update(arr[probing[gone]].tolist())
                self._size -= len(gone)
                self.stats.deletes += len(gone)
                if lvl.empty:  # emptied by this batch: no later key probes it
                    last = gone.max()
                    mine = [(p[p <= last], b[p <= last], h[p <= last]) for p, b, h in mine]
            charged += mine
        if charged:
            pos = np.concatenate([p for p, _, _ in charged])
            order = np.argsort(pos, kind="stable")
            pos = pos[order]
            bids = np.concatenate([b for _, b, _ in charged])[order]
            hit = np.concatenate([h for _, _, h in charged])[order]
            disk, stats = self.ctx.disk, self.ctx.stats
            if cost_out is None:
                disk.charge_sweep(bids, written=hit)
            else:
                ends = np.searchsorted(pos, np.arange(len(probing)), side="right")
                start = 0
                for i, end in zip(probing.tolist(), ends.tolist()):
                    before = stats.total
                    disk.charge_sweep(bids[start:end], written=hit[start:end])
                    cost[i] = stats.total - before
                    start = end
        if cost_out is not None:
            cost_out.extend(cost.tolist())
        return removed, head_hits

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
        """Read out every item of ``H_k`` (charged) and empty it: every
        bucket is read, non-empty ones are rewritten empty."""
        lvl = self._get_level(k)
        items = bulk_drain(lvl.buckets, self.ctx.disk)
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
