"""The standard external hash table with chaining (Knuth [13]).

``d`` primary buckets, each a disk block with an overflow chain.  With
load factor ``α < 1`` bounded away from 1 and an ideal hash function,
the expected average cost of a successful lookup is ``1 + 1/2^{Ω(b)}``
I/Os and an insertion is one read-modify-write, also
``1 + 1/2^{Ω(b)}`` — the upper bound the paper cites for the
``t_q = 1 + 1/2^{Ω(b)}`` point of Figure 1.

The table can optionally *rebuild* (double its bucket count) when the
load factor passes ``max_load``, the extensible/linear-hashing style
maintenance the paper notes costs only ``O(1/b)`` extra amortized I/Os.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..em.storage import EMContext
from ..hashing.base import HashFunction
from .base import ExternalDictionary, LayoutSnapshot
from .batching import partition_by_bucket
from .overflow import ChainedBucket, bulk_fill_buckets


class ChainedHashTable(ExternalDictionary):
    """Blocked chaining over ``d`` primary buckets.

    Parameters
    ----------
    ctx:
        Shared external-memory context.
    hash_fn:
        Hash function; bucket of ``x`` is ``hash_fn.bucket(x, d)``.
    buckets:
        Initial number of primary buckets ``d``.
    max_load:
        Load-factor threshold triggering a rebuild; ``None`` disables
        resizing (fixed-capacity mode used in the lower-bound drivers).
    """

    def __init__(
        self,
        ctx: EMContext,
        hash_fn: HashFunction,
        *,
        buckets: int = 16,
        max_load: float | None = 0.8,
    ) -> None:
        super().__init__(ctx)
        if buckets <= 0:
            raise ValueError(f"bucket count must be positive, got {buckets}")
        if max_load is not None and not 0 < max_load:
            raise ValueError(f"max_load must be positive, got {max_load}")
        self.h = hash_fn
        self.max_load = max_load
        self._buckets: list[ChainedBucket] = [
            ChainedBucket(ctx.disk) for _ in range(buckets)
        ]
        #: Overflow blocks across all buckets, maintained incrementally
        #: so the load-factor denominator is O(1) instead of an O(d)
        #: sweep per insert (``check_invariants`` cross-checks it).
        self._chain_blocks = 0
        self._charge_memory()

    # -- memory accounting ---------------------------------------------------

    def memory_words(self) -> int:
        # Resident state: the hash seed (O(1) words) and one word per
        # bucket for the primary-block address (the table directory).
        return 2 + len(self._buckets)

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- core operations ---------------------------------------------------------

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    def bucket_of(self, key: int) -> int:
        return int(self.h.bucket(key, len(self._buckets)))

    def insert(self, key: int) -> None:
        bucket = self._buckets[self.bucket_of(key)]
        chain_before = bucket.chain_length
        if bucket.insert(key):
            self._chain_blocks += bucket.chain_length - chain_before
            self._size += 1
            self.stats.inserts += 1
            if self.max_load is not None and self.load_factor() > self.max_load:
                self._rebuild(2 * len(self._buckets))

    def lookup(self, key: int) -> bool:
        self.stats.lookups += 1
        found = self._buckets[self.bucket_of(key)].lookup(key)
        if found:
            self.stats.hits += 1
        return found

    def delete(self, key: int) -> bool:
        if self._buckets[self.bucket_of(key)].delete(key):
            self._size -= 1
            self.stats.deletes += 1
            return True
        return False

    # -- maintenance -----------------------------------------------------------------

    def load_factor(self) -> float:
        """``ceil(n/b) / blocks used`` (paper footnote 1), O(1) via the
        incrementally maintained chain-block counter."""
        blocks = len(self._buckets) + self._chain_blocks
        if blocks == 0:
            return 0.0
        return -(-self._size // self.ctx.b) / blocks

    def fill_fraction(self) -> float:
        """Plain occupancy ``n / (d * b)`` of the primary area."""
        return self._size / (len(self._buckets) * self.ctx.b)

    def _rebuild(self, new_buckets: int) -> None:
        """Migrate into ``new_buckets`` fresh buckets (a full scan).

        The scan charges what the scalar original did (read each old
        bucket, free it, then write receiving buckets ascending); only
        the staging is vectorised — the old buckets are read as one
        charged stream before they are freed, and one ``hash_array`` over
        all items replaces a per-item ``bucket()`` call.
        """
        self.stats.rebuilds += 1
        old = self._buckets
        disk = self.ctx.disk
        self._buckets = ChainedBucket.bulk_row(disk, new_buckets)
        self._charge_memory()
        moved = disk.read_records_arr([bid for bkt in old for bid in bkt.block_ids])
        for bkt in old:
            bkt.free_all()
        d = np.uint64(new_buckets)
        parts = partition_by_bucket(moved, self.h.hash_array(moved) % d)
        bulk_fill_buckets(self._buckets, parts, disk)
        # One O(d) recount per rebuild (replace_all may have grown
        # chains for over-full groups); inserts then stay O(1).
        self._chain_blocks = sum(bkt.chain_length for bkt in self._buckets)

    # -- instrumentation ----------------------------------------------------------------

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks: dict[int, tuple[int, ...]] = {}
        for bkt in self._buckets:
            for bid, items in bkt.peek_blocks():
                blocks[bid] = items
        d = len(self._buckets)
        h = self.h
        primaries = [bkt.primary for bkt in self._buckets]

        def address(key: int, _h: Callable = h.bucket, _p=primaries, _d=d) -> int:
            return _p[int(_h(key, _d))]

        return LayoutSnapshot(
            memory_items=frozenset(),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        assert self._chain_blocks == sum(
            bkt.chain_length for bkt in self._buckets
        ), "incremental chain-block counter out of sync"
        seen: set[int] = set()
        total = 0
        for idx, bkt in enumerate(self._buckets):
            items = bkt.peek_all()
            total += len(items)
            for x in items:
                assert self.bucket_of(x) == idx, (
                    f"item {x} stored in bucket {idx}, hashes to {self.bucket_of(x)}"
                )
                assert x not in seen, f"duplicate item {x}"
                seen.add(x)
        assert total == self._size, f"size {self._size} != stored {total}"
