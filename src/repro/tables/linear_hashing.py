"""Linear hashing (Litwin [14]).

Buckets split one at a time in a fixed cyclic order, controlled by a
*split pointer* ``p`` and *level* ``l``: keys address into
``2^l * n0`` buckets via the low bits, except keys landing before the
split pointer use one more bit.  A split is triggered whenever the
overall fill passes ``split_threshold`` — decoupling *which* bucket
splits from *which* bucket overflowed (overflow chains absorb the
difference).

This is the other classic the paper cites for maintaining the load
factor at ``O(1/b)`` amortized extra cost, and unlike extendible
hashing it needs only O(1) words of memory for addressing.
"""

from __future__ import annotations

import numpy as np

from ..em.storage import EMContext
from ..hashing.base import HashFunction
from .base import ExternalDictionary, LayoutSnapshot
from .overflow import ChainedBucket


class LinearHashingTable(ExternalDictionary):
    """Litwin's linear hashing with overflow chains."""

    def __init__(
        self,
        ctx: EMContext,
        hash_fn: HashFunction,
        *,
        initial_buckets: int = 4,
        split_threshold: float = 0.75,
    ) -> None:
        super().__init__(ctx)
        if initial_buckets <= 0:
            raise ValueError("initial_buckets must be positive")
        if not 0 < split_threshold:
            raise ValueError("split_threshold must be positive")
        self.h = hash_fn
        self.n0 = initial_buckets
        self.level = 0
        self.split_ptr = 0
        self.split_threshold = split_threshold
        self._buckets: list[ChainedBucket] = [
            ChainedBucket(ctx.disk) for _ in range(initial_buckets)
        ]
        self._charge_memory()

    # -- memory accounting ------------------------------------------------------

    def memory_words(self) -> int:
        # Addressing needs n0, level, split pointer, seed, plus the
        # bucket directory (base addresses).  Litwin's scheme can place
        # buckets contiguously, needing O(1) words; we keep the directory
        # for simulator flexibility but charge the O(1) canonical cost
        # plus one word per bucket to stay honest about our layout.
        return 4 + len(self._buckets)

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- addressing -------------------------------------------------------------------

    def bucket_index(self, key: int) -> int:
        """Litwin addressing: low ``level`` bits, one more before the pointer."""
        hv = int(self.h.hash(key))
        idx = hv % (self.n0 << self.level)
        if idx < self.split_ptr:
            idx = hv % (self.n0 << (self.level + 1))
        return idx

    # -- operations -----------------------------------------------------------------------

    def lookup(self, key: int) -> bool:
        self.stats.lookups += 1
        found = self._buckets[self.bucket_index(key)].lookup(key)
        if found:
            self.stats.hits += 1
        return found

    def insert(self, key: int) -> None:
        if self._buckets[self.bucket_index(key)].insert(key):
            self._size += 1
            self.stats.inserts += 1
            if self.fill_fraction() > self.split_threshold:
                self._split_next()

    def delete(self, key: int) -> bool:
        if self._buckets[self.bucket_index(key)].delete(key):
            self._size -= 1
            self.stats.deletes += 1
            return True
        return False

    # -- splitting --------------------------------------------------------------------------

    def _split_next(self) -> None:
        """Split the bucket at the split pointer and advance it."""
        self.stats.bump("splits")
        victim = self._buckets[self.split_ptr]
        items = victim.read_all()
        new_bucket = ChainedBucket(self.ctx.disk)
        self._buckets.append(new_bucket)

        wide = self.n0 << (self.level + 1)
        # One hash_array pass decides stay-or-move for the whole bucket.
        arr = np.asarray(items, dtype=np.uint64)
        moving = (self.h.hash_array(arr) % np.uint64(wide)) != self.split_ptr
        keep = arr[~moving].tolist()
        move = arr[moving].tolist()
        victim.replace_all(keep)
        new_bucket.replace_all(move)

        self.split_ptr += 1
        if self.split_ptr == self.n0 << self.level:
            self.split_ptr = 0
            self.level += 1
        self._charge_memory()

    def fill_fraction(self) -> float:
        return self._size / (len(self._buckets) * self.ctx.b)

    def load_factor(self) -> float:
        blocks = sum(1 + bkt.chain_length for bkt in self._buckets)
        if blocks == 0:
            return 0.0
        return -(-self._size // self.ctx.b) / blocks

    # -- instrumentation ----------------------------------------------------------------------

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks: dict[int, tuple[int, ...]] = {}
        for bkt in self._buckets:
            for bid, items in bkt.peek_blocks():
                blocks[bid] = items
        primaries = [bkt.primary for bkt in self._buckets]
        index_of = self.bucket_index

        def address(key: int) -> int:
            return primaries[index_of(key)]

        return LayoutSnapshot(
            memory_items=frozenset(),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        assert 0 <= self.split_ptr < (self.n0 << self.level) or (
            self.split_ptr == 0 and self.level >= 0
        )
        assert len(self._buckets) == (self.n0 << self.level) + self.split_ptr
        total = 0
        for idx, bkt in enumerate(self._buckets):
            items = bkt.peek_all()
            total += len(items)
            for x in items:
                assert self.bucket_index(x) == idx, (
                    f"item {x} in bucket {idx}, addresses to {self.bucket_index(x)}"
                )
        assert total == self._size
