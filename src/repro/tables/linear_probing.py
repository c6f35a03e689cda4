"""Blocked linear probing (Knuth [13, §6.4]).

``d`` blocks arranged in a circular array.  An item hashes to a home
block and is stored in the first non-full block at or after it
(wrapping).  Lookups probe forward from the home block and may stop at
the first block that has never overflowed — tracked by the classic
per-block *overflow bit* kept in the block header.

With load factor ``α < 1`` the expected successful-lookup cost is
``1 + 1/2^{Ω(b)}`` I/Os: the probability an item overflows its home
block decays geometrically in ``b`` (the carry process analysed
numerically in :mod:`repro.analysis.knuth`).

Deletion uses per-block tombstone-free compaction: deleting from block
``i`` pulls back eligible items from following blocks while their home
precedes the gap — the standard backward-shift repair specialised to
blocks.  (The paper only needs insertions; deletion is provided for API
completeness and is linear in the cluster length.)
"""

from __future__ import annotations

from ..em.storage import EMContext
from ..hashing.base import HashFunction
from .base import ExternalDictionary, LayoutSnapshot


class LinearProbingHashTable(ExternalDictionary):
    """Open addressing with block-granularity linear probing."""

    def __init__(
        self,
        ctx: EMContext,
        hash_fn: HashFunction,
        *,
        blocks: int = 16,
        max_fill: float = 0.9,
    ) -> None:
        super().__init__(ctx)
        if blocks <= 0:
            raise ValueError(f"block count must be positive, got {blocks}")
        if not 0 < max_fill < 1:
            raise ValueError(f"max_fill must lie in (0,1), got {max_fill}")
        self.h = hash_fn
        self.max_fill = max_fill
        self._block_ids = ctx.disk.allocate_many(blocks)
        self._charge_memory()

    # -- memory accounting -----------------------------------------------------

    def memory_words(self) -> int:
        # Seed + base block address + block count: O(1) resident words.
        return 4

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- addressing ----------------------------------------------------------------

    def home_of(self, key: int) -> int:
        """Index (not block id) of the home block."""
        return int(self.h.bucket(key, len(self._block_ids)))

    def _probe_sequence(self, start: int):
        d = len(self._block_ids)
        for step in range(d):
            yield (start + step) % d

    # -- operations ---------------------------------------------------------------------

    def insert(self, key: int) -> None:
        """Probe forward from the home block and place ``key``
        (read-modify-write of each block it updates)."""
        if self._size + 1 > self.max_fill * len(self._block_ids) * self.ctx.b:
            self._rebuild(2 * len(self._block_ids))
        disk = self.ctx.disk
        ids = self._block_ids
        d = len(ids)
        home = self.home_of(key)
        for step in range(d):
            bid = ids[(home + step) % d]
            blk = disk.load(bid)
            if key in blk:
                return
            if not blk.full:
                blk.append(key)
                disk.store(bid, blk)
                self._size += 1
                self.stats.inserts += 1
                return
            # Overflowing this block: set its overflow bit so lookups
            # know to keep probing past it.
            if not blk.header.get("overflowed"):
                blk.header["overflowed"] = True
                disk.store(bid, blk)
        raise RuntimeError("linear probing table full despite max_fill guard")

    def lookup(self, key: int) -> bool:
        """Probe forward from the home block until ``key`` or a block
        that never overflowed."""
        self.stats.lookups += 1
        disk = self.ctx.disk
        ids = self._block_ids
        d = len(ids)
        home = self.home_of(key)
        for step in range(d):
            blk = disk.read(ids[(home + step) % d], copy=False)
            if key in blk:
                self.stats.hits += 1
                return True
            if not blk.header.get("overflowed"):
                return False
        return False

    def delete(self, key: int) -> bool:
        """Probe forward from the home block and remove ``key``
        (backward-shift repair on a hit)."""
        for idx in self._probe_sequence(self.home_of(key)):
            bid = self._block_ids[idx]
            blk = self.ctx.disk.read(bid)
            if blk.remove(key):
                self.ctx.disk.write(bid, blk)
                self._size -= 1
                self.stats.deletes += 1
                self._compact_after(idx)
                return True
            if not blk.header.get("overflowed"):
                return False
        return False

    def _compact_after(self, gap_idx: int) -> None:
        """Backward-shift repair: refill the gap from overflow runs.

        Walks forward while predecessors had overflowed, pulling back any
        item whose home-to-position run covers the gap.  Conservative
        (may leave stale overflow bits, which only costs extra probes,
        never correctness).
        """
        d = len(self._block_ids)
        gap_bid = self._block_ids[gap_idx]
        cursor = gap_idx
        while True:
            cur_blk = self.ctx.disk.peek(self._block_ids[cursor])
            if not cur_blk.header.get("overflowed"):
                return
            nxt = (cursor + 1) % d
            nxt_bid = self._block_ids[nxt]
            nxt_blk = self.ctx.disk.read(nxt_bid)
            moved = None
            for item in nxt_blk.records():
                home = self.home_of(item)
                if _wraps_before(home, gap_idx, nxt, d):
                    moved = item
                    break
            if moved is None:
                return
            nxt_blk.remove(moved)
            self.ctx.disk.write(nxt_bid, nxt_blk)
            gap_blk = self.ctx.disk.read(gap_bid)
            gap_blk.append(moved)
            self.ctx.disk.write(gap_bid, gap_blk)
            gap_idx = nxt
            gap_bid = nxt_bid
            cursor = nxt

    # -- maintenance -----------------------------------------------------------------------

    def fill_fraction(self) -> float:
        return self._size / (len(self._block_ids) * self.ctx.b)

    def _rebuild(self, new_blocks: int) -> None:
        self.stats.rebuilds += 1
        old_ids = self._block_ids
        items: list[int] = []
        for blk in self.ctx.disk.scan(old_ids):
            items.extend(blk)
        for bid in old_ids:
            self.ctx.disk.free(bid)
        self._block_ids = self.ctx.disk.allocate_many(new_blocks)
        self._charge_memory()
        self._size = 0
        saved = self.stats.inserts
        for item in items:
            self.insert(item)
        self.stats.inserts = saved

    # -- instrumentation --------------------------------------------------------------------

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks = {
            bid: tuple(self.ctx.disk.peek(bid).records()) for bid in self._block_ids
        }
        ids = list(self._block_ids)
        d = len(ids)
        h = self.h

        def address(key: int) -> int:
            return ids[int(h.bucket(key, d))]

        return LayoutSnapshot(
            memory_items=frozenset(),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        d = len(self._block_ids)
        total = 0
        seen: set[int] = set()
        for idx, bid in enumerate(self._block_ids):
            blk = self.ctx.disk.peek(bid)
            total += len(blk)
            for x in blk:
                assert x not in seen, f"duplicate item {x}"
                seen.add(x)
                # Every block strictly between home and position must
                # have its overflow bit set (otherwise lookups miss x).
                home = self.home_of(x)
                cur = home
                while cur != idx:
                    between = self.ctx.disk.peek(self._block_ids[cur])
                    assert between.header.get("overflowed"), (
                        f"item {x}: block {cur} between home {home} and "
                        f"position {idx} lacks overflow bit"
                    )
                    cur = (cur + 1) % d
        assert total == self._size


def _wraps_before(home: int, gap: int, pos: int, d: int) -> bool:
    """Is ``home`` positioned at or before ``gap`` on the wrap-around walk to ``pos``?

    True iff moving the item at ``pos`` back to ``gap`` keeps it at or
    after its home block, i.e. the circular interval ``[home, pos]``
    contains ``gap``.
    """
    if home <= pos:
        return home <= gap <= pos
    return gap >= home or gap <= pos
