"""Extendible hashing (Fagin, Nievergelt, Pippenger, Strong [10]).

A memory-resident directory of ``2^g`` pointers (global depth ``g``)
maps the ``g`` low bits of ``h(x)`` to bucket blocks, each annotated
with a *local depth* ``l ≤ g``.  A full bucket of depth ``l < g``
splits in two (redistributing by bit ``l``); a full bucket with
``l = g`` first doubles the directory.

Guarantees exactly one I/O per successful lookup (the directory is in
memory) and ``1 + O(1/b)``-ish amortized insertion — the scheme the
paper cites for load-factor maintenance at ``O(1/b)`` extra cost.  The
directory occupies ``2^g`` words of the memory budget, which is the
structure's real memory price and is charged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..em.storage import EMContext
from ..hashing.base import HashFunction
from .base import ExternalDictionary, LayoutSnapshot
from .batching import membership, normalize_keys


class ExtendibleHashTable(ExternalDictionary):
    """Directory-based dynamic hashing with bucket splitting."""

    def __init__(
        self,
        ctx: EMContext,
        hash_fn: HashFunction,
        *,
        initial_global_depth: int = 1,
        max_global_depth: int = 28,
    ) -> None:
        super().__init__(ctx)
        if initial_global_depth < 0:
            raise ValueError("global depth must be non-negative")
        self.h = hash_fn
        self.global_depth = initial_global_depth
        self.max_global_depth = max_global_depth
        # One shared bucket per distinct pointer; initially all distinct.
        self._directory: list[int] = []
        self._local_depth: dict[int, int] = {}
        for _ in range(1 << initial_global_depth):
            bid = ctx.disk.allocate()
            self._directory.append(bid)
            self._local_depth[bid] = initial_global_depth
        self._charge_memory()

    # -- memory accounting ----------------------------------------------------

    def memory_words(self) -> int:
        # Directory pointers + per-bucket local depths + hash seed.
        return len(self._directory) + len(self._local_depth) + 2

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- addressing -----------------------------------------------------------------

    def _dir_index(self, key: int) -> int:
        return int(self.h.low_bits(key, self.global_depth)) if self.global_depth else 0

    def bucket_of(self, key: int) -> int:
        return self._directory[self._dir_index(key)]

    # -- operations --------------------------------------------------------------------

    def lookup(self, key: int) -> bool:
        self.stats.lookups += 1
        blk = self.ctx.disk.read(self.bucket_of(key))
        found = key in blk
        if found:
            self.stats.hits += 1
        return found

    def insert(self, key: int) -> None:
        while True:
            bid = self.bucket_of(key)
            blk = self.ctx.disk.read(bid)
            if key in blk:
                return
            if not blk.full:
                blk.append(key)
                self.ctx.disk.write(bid, blk)
                self._size += 1
                self.stats.inserts += 1
                return
            self._split(bid)

    def delete(self, key: int) -> bool:
        bid = self.bucket_of(key)
        blk = self.ctx.disk.read(bid)
        if blk.remove(key):
            self.ctx.disk.write(bid, blk)
            self._size -= 1
            self.stats.deletes += 1
            return True
        return False

    # -- batch operations ---------------------------------------------------------

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Fully vectorised membership: every lookup reads one block.

        The directory lives in memory and every bucket is a single
        block, so the walk is one block per key, in key order, charged
        by :meth:`~repro.em.disk.Disk.charge_walk`; each distinct bucket
        is probed once with a sorted-membership scan — bit-identical
        counters (and pool state) to the scalar loop.
        """
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        g = self.global_depth
        hv = self.h.hash_array(arr)
        idx = (
            (hv & np.uint64((1 << g) - 1)).astype(np.int64)
            if g
            else np.zeros(n, dtype=np.int64)
        )
        bids = np.asarray(self._directory, dtype=np.int64)[idx]
        costs = self.ctx.disk.charge_walk(n, [(np.arange(n), bids)])
        records_arr = self.ctx.disk.records_arr
        order = np.argsort(bids)
        sorted_bids = bids[order]
        starts = np.flatnonzero(np.r_[True, sorted_bids[1:] != sorted_bids[:-1]])
        bounds = starts.tolist()
        bounds.append(n)
        for j in range(len(starts)):
            pos = order[bounds[j] : bounds[j + 1]]
            vals = records_arr(int(sorted_bids[bounds[j]]))
            out[pos] = membership(arr[pos], np.asarray(vals, dtype=np.uint64))
        if cost_out is not None:
            cost_out.extend(costs.tolist())
        self.stats.lookups += n
        self.stats.hits += int(np.count_nonzero(out))
        return out

    # -- splitting ----------------------------------------------------------------------

    def _split(self, bid: int) -> None:
        depth = self._local_depth[bid]
        if depth == self.global_depth:
            self._double_directory()
        self.stats.bump("splits")
        new_depth = depth + 1
        sibling = self.ctx.disk.allocate()
        self._local_depth[bid] = new_depth
        self._local_depth[sibling] = new_depth

        old_blk = self.ctx.disk.read(bid)
        bit = 1 << depth
        items = np.asarray(old_blk.records(), dtype=np.uint64)
        # Redistribute by bit `depth` of the hash in one vectorised
        # pass: low_bits(x, new_depth) & bit == hash(x) & bit.
        moving = (self.h.hash_array(items) & np.uint64(bit)).astype(bool)
        keep = items[~moving].tolist()
        move = items[moving].tolist()
        old_blk.replace_contents(keep)
        self.ctx.disk.write(bid, old_blk)
        sib_blk = self.ctx.disk.read(sibling)
        sib_blk.replace_contents(move)
        self.ctx.disk.write(sibling, sib_blk)

        # Repoint the half of bid's directory entries whose bit `depth`
        # is set.
        for i, ptr in enumerate(self._directory):
            if ptr == bid and (i & bit):
                self._directory[i] = sibling
        self._charge_memory()

    def _double_directory(self) -> None:
        if self.global_depth >= self.max_global_depth:
            raise RuntimeError(
                f"extendible directory exceeded max depth {self.max_global_depth}"
            )
        self.stats.bump("directory_doublings")
        self._directory = self._directory + self._directory
        self.global_depth += 1
        self._charge_memory()

    # -- instrumentation -------------------------------------------------------------------

    def distinct_buckets(self) -> set[int]:
        return set(self._directory)

    def load_factor(self) -> float:
        blocks = len(self.distinct_buckets())
        if blocks == 0:
            return 0.0
        return -(-self._size // self.ctx.b) / blocks

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks = {
            bid: tuple(self.ctx.disk.peek(bid).records())
            for bid in self.distinct_buckets()
        }
        directory = list(self._directory)
        g = self.global_depth
        h = self.h

        def address(key: int) -> int:
            return directory[int(h.low_bits(key, g)) if g else 0]

        return LayoutSnapshot(
            memory_items=frozenset(),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        assert len(self._directory) == 1 << self.global_depth
        total = 0
        for bid in self.distinct_buckets():
            depth = self._local_depth[bid]
            assert depth <= self.global_depth
            # Every directory slot pointing here agrees on the low
            # `depth` bits.
            slots = [i for i, p in enumerate(self._directory) if p == bid]
            assert len(slots) == 1 << (self.global_depth - depth)
            mask = (1 << depth) - 1
            prefixes = {s & mask for s in slots}
            assert len(prefixes) == 1, f"bucket {bid} slots disagree: {slots}"
            blk = self.ctx.disk.peek(bid)
            total += len(blk)
            for x in blk:
                assert self.h.low_bits(x, depth) == next(iter(prefixes))
        assert total == self._size
