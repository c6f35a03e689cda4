"""A Jensen–Pagh-style high-load hash table (the paper's prior work).

Jensen and Pagh [12] showed how to keep the load factor at
``α = 1 − O(1/√b)`` while supporting queries *and* updates in
``1 + O(1/√b)`` I/Os — and then asked whether buffering could push the
update cost below 1, the question this paper answers.  This module
implements a structure with the same cost profile so benchmarks can
place [12] on the tradeoff plane next to Theorems 1 and 2.

Design (shape-faithful to [12]'s parameters, simplified mechanics):

* ``d ≈ n/(αb)`` primary blocks, target load ``α = 1 − 1/√b``;
* an item hashes to one primary block; if that block is full the item
  goes to a shared **overflow table** (blocked chaining at load ½);
* with ``α = 1 − 1/√b``, a ``Θ(1/√b)`` fraction of items overflows
  (Poisson tail at occupancy ``αb``), so

  - a successful lookup costs ``1 + O(1/√b)`` expected I/Os
    (primary block, plus the overflow probe for the overflowed few),
  - an insertion costs ``1 + O(1/√b)`` amortized
    (read-modify-write the primary block; occasionally the overflow
    table; a rebuild doubling adds ``O(1/b)``),
  - total space is ``n/(αb)·(1 + O(1/√b))`` blocks: load ``1 − O(1/√b)``.

The structure deliberately does **not** buffer insertions — it is the
best known point on the "no buffering" frontier, which is exactly why
the paper's Theorem 1 (buffering can't beat it when queries stay this
fast) resolves [12]'s conjecture.
"""

from __future__ import annotations

import math

from ..em.block import Block
from ..em.storage import EMContext
from ..hashing.base import HashFunction
from ..tables.base import ExternalDictionary, LayoutSnapshot
from ..tables.overflow import ChainedBucket


class JensenPaghTable(ExternalDictionary):
    """High-load external hash table: queries and updates ``1 + O(1/√b)``.

    Parameters
    ----------
    ctx, hash_fn:
        Context and hash function.
    alpha:
        Target primary load factor; defaults to ``1 − 1/√b``.
    initial_capacity:
        Items the initial primary area is sized for (defaults to ``4b``).
    """

    def __init__(
        self,
        ctx: EMContext,
        hash_fn: HashFunction,
        *,
        alpha: float | None = None,
        initial_capacity: int | None = None,
    ) -> None:
        super().__init__(ctx)
        b = ctx.b
        self.h = hash_fn
        self.alpha = alpha if alpha is not None else 1.0 - 1.0 / math.sqrt(b)
        if not 0 < self.alpha < 1:
            raise ValueError(f"α must lie in (0,1), got {self.alpha}")
        capacity = initial_capacity if initial_capacity is not None else 4 * b
        self._primary: list[int] = []  # block ids
        self._overflow_buckets: list[ChainedBucket] = []
        self._overflow_count = 0
        self._build_primary(capacity)
        self._charge_memory()

    # -- geometry ------------------------------------------------------------

    def _build_primary(self, capacity: int) -> None:
        d = max(1, math.ceil(capacity / (self.alpha * self.ctx.b)))
        self._capacity = capacity
        for bid in self._primary:
            self.ctx.disk.free(bid)
        self._primary = self.ctx.disk.allocate_many(d)
        for bkt in self._overflow_buckets:
            bkt.free_all()
        # Overflow area: chaining sized for the expected Θ(n/√b)
        # overflow at load ½, at least one bucket.
        overflow_capacity = max(1, int(2 * capacity / math.sqrt(self.ctx.b)))
        n_overflow = max(1, -(-overflow_capacity // self.ctx.b))
        self._overflow_buckets = [
            ChainedBucket(self.ctx.disk) for _ in range(n_overflow)
        ]
        self._overflow_count = 0

    def _primary_index(self, key: int) -> int:
        return int(self.h.bucket(key, len(self._primary)))

    def _overflow_bucket(self, key: int) -> ChainedBucket:
        # A different slice of the hash avoids correlation with the
        # primary index.
        idx = int(self.h.hash(key) // max(1, len(self._primary))) % len(
            self._overflow_buckets
        )
        return self._overflow_buckets[idx]

    # -- memory ------------------------------------------------------------

    def memory_words(self) -> int:
        # Hash seed + table geometry + the two directories.
        return 4 + len(self._primary) + len(self._overflow_buckets)

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- operations ------------------------------------------------------------

    def insert(self, key: int) -> None:
        bid = self._primary[self._primary_index(key)]
        inserted = overflowed = False
        with self.ctx.disk.modify(bid) as blk:
            if key in blk:
                pass  # duplicate: idempotent no-op
            elif not blk.full:
                blk.append(key)
                inserted = True
            else:
                # Sticky marker: this block has spilled at least once,
                # so a miss here can no longer rule out the overflow
                # area (deletions may later un-fill the block).
                blk.header["ovf"] = True
                overflowed = True
        # Growth must happen outside the modify context: the rebuild
        # frees the very block the context would write back.
        if overflowed:
            if self._overflow_bucket(key).insert(key):
                self._size += 1
                self._overflow_count += 1
                self.stats.inserts += 1
                self.stats.bump("overflow_inserts")
                self._maybe_grow()
        elif inserted:
            self._size += 1
            self.stats.inserts += 1
            self._maybe_grow()

    def lookup(self, key: int) -> bool:
        self.stats.lookups += 1
        bid = self._primary[self._primary_index(key)]
        blk = self.ctx.disk.read(bid)
        if key in blk:
            self.stats.hits += 1
            return True
        if not blk.header.get("ovf"):
            # This block never spilled, so the key cannot be in the
            # overflow area: definitive miss in one I/O.
            return False
        found = self._overflow_bucket(key).lookup(key)
        if found:
            self.stats.hits += 1
        return found

    def delete(self, key: int) -> bool:
        bid = self._primary[self._primary_index(key)]
        with self.ctx.disk.modify(bid) as blk:
            if blk.remove(key):
                self._size -= 1
                self.stats.deletes += 1
                return True
            spilled = bool(blk.header.get("ovf"))
        if not spilled:
            return False
        if self._overflow_bucket(key).delete(key):
            self._size -= 1
            self._overflow_count -= 1
            self.stats.deletes += 1
            return True
        return False

    def _maybe_grow(self) -> None:
        """Double when the primary area is past its design load.

        The rebuild reads every block once and writes the new area —
        ``O(1/b)`` amortized per insertion, as in extendible/linear
        hashing [10, 14].
        """
        if self._size <= self._capacity:
            return
        self.stats.rebuilds += 1
        items: list[int] = []
        for bid in self._primary:
            items.extend(self.ctx.disk.read(bid).records())
        for bkt in self._overflow_buckets:
            items.extend(bkt.read_all())
        self._build_primary(2 * self._capacity)
        # Stage per target block and write each block exactly once —
        # the whole rebuild is one read pass + one write pass, O(n/b).
        staged: dict[int, list[int]] = {}
        overflowed: list[int] = []
        for x in items:
            lst = staged.setdefault(self._primary_index(x), [])
            if len(lst) < self.ctx.b:
                lst.append(x)
            else:
                overflowed.append(x)
        for idx, lst in staged.items():
            self.ctx.disk.write(self._primary[idx], Block(self.ctx.b, data=lst))
        for x in overflowed:
            self._overflow_bucket(x).insert(x)
            self._overflow_count += 1
        self._charge_memory()

    # -- instrumentation ---------------------------------------------------------

    def overflow_fraction(self) -> float:
        """Fraction of items in the overflow area — the Θ(1/√b) tail."""
        return self._overflow_count / self._size if self._size else 0.0

    def load_factor(self) -> float:
        """Footnote-1 load: minimal blocks over blocks in use."""
        used = len(self._primary) + sum(
            1 + bkt.chain_length
            for bkt in self._overflow_buckets
            if bkt.item_count() > 0
        )
        if used == 0:
            return 0.0
        return -(-self._size // self.ctx.b) / used

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks: dict[int, tuple[int, ...]] = {}
        for bid in self._primary:
            blocks[bid] = tuple(self.ctx.disk.peek(bid).records())
        for bkt in self._overflow_buckets:
            for bid, items in bkt.peek_blocks():
                blocks[bid] = items
        primary = self._primary
        h = self.h

        def address(key: int) -> int | None:
            return primary[int(h.bucket(key, len(primary)))]

        return LayoutSnapshot(
            memory_items=frozenset(),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        primary_items: list[int] = []
        for idx, bid in enumerate(self._primary):
            records = self.ctx.disk.peek(bid).records()
            for x in records:
                assert self._primary_index(x) == idx, "item in wrong primary block"
            primary_items.extend(records)
        overflow_items: list[int] = []
        for bkt in self._overflow_buckets:
            overflow_items.extend(bkt.peek_all())
        assert len(overflow_items) == self._overflow_count
        all_items = primary_items + overflow_items
        assert len(all_items) == len(set(all_items)) == self._size
        # Every overflowed item's primary block carries the spill marker
        # (it was full at spill time; deletions may have un-filled it).
        for x in overflow_items:
            bid = self._primary[self._primary_index(x)]
            assert self.ctx.disk.peek(bid).header.get(
                "ovf"
            ), "overflow without a spill marker on the primary block"
