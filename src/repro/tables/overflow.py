"""Overflow-chain buckets.

Several structures (chained hashing, linear hashing, the big table ``Ĥ``
of Theorem 2) share the same bucket shape: one *primary* block plus a
linked chain of *overflow* blocks, each holding up to ``b`` items, with
the chain pointer kept in the block header (O(1) words, conventionally
un-charged in EM analyses).

:class:`ChainedBucket` encapsulates the I/O discipline:

* a lookup reads the primary block, then overflow blocks until found —
  expected ``1 + 2^{-Ω(b)}`` I/Os at constant load; a delete walks the
  same blocks and writes the one it removes from;
* an insert reads/writes the first block with room (one combined I/O
  under the footnote-2 policy), allocating a new tail block when all are
  full.

All charged accesses ride the disk's copy-light loan API
(:meth:`~repro.em.disk.Disk.load` / :meth:`~repro.em.disk.Disk.store`),
so a read-merge-write cycle moves each record once; the I/O counters are
identical to the copying path by the disk's contract.
"""

from __future__ import annotations

from typing import Iterator

from ..em.disk import Disk


class ChainedBucket:
    """A primary disk block with an overflow chain."""

    __slots__ = ("disk", "primary", "_chain")

    def __init__(self, disk: Disk, *, primary: int | None = None) -> None:
        self.disk = disk
        self.primary = disk.allocate() if primary is None else primary
        # Chain block ids, in order after the primary.  Kept in memory by
        # the *bucket object* only as a convenience mirror of the header
        # pointers; the I/O discipline below never uses it to skip reads.
        self._chain: list[int] = []

    @classmethod
    def bulk_row(cls, disk: Disk, count: int) -> list["ChainedBucket"]:
        """Allocate ``count`` buckets over one bulk primary-block grab.

        Used by the rebuild/merge code so doubling a ``d``-bucket table
        costs one :meth:`~repro.em.disk.Disk.allocate_many` instead of
        ``d`` allocator round trips.  Block ids come out identical to a
        loop of single allocations.
        """
        return [cls(disk, primary=bid) for bid in disk.allocate_many(count)]

    # -- chain structure -----------------------------------------------------

    @property
    def block_ids(self) -> list[int]:
        return [self.primary, *self._chain]

    @property
    def chain_length(self) -> int:
        """Number of overflow blocks."""
        return len(self._chain)

    # -- charged operations ------------------------------------------------------

    def lookup(self, key: int) -> tuple[bool, int]:
        """Search the chain for ``key``.

        Returns ``(found, ios)`` where ``ios`` is the number of blocks
        read (the chain is walked via header pointers, so the search
        stops one block after the hit or at the chain's end).
        """
        disk = self.disk
        if not self._chain:
            # Chain-free bucket: one charged read, served record-level.
            return disk.probe_record(self.primary, key), 1
        ios = 0
        for bid in self.block_ids:
            blk = disk.read(bid, copy=False)
            ios += 1
            if key in blk:
                return True, ios
            if blk.header.get("next") is None:
                break
        return False, ios

    def insert(self, key: int) -> bool:
        """Insert ``key`` unless present; returns ``True`` if inserted.

        Walks the chain once: the first block with room receives the key
        (read + write, combining to one I/O); a full chain grows a new
        tail block.
        """
        disk = self.disk
        prev_bid: int | None = None
        for bid in self.block_ids:
            blk = disk.load(bid)
            if key in blk:
                return False
            if not blk.full:
                blk.append(key)
                disk.store(bid)
                return True
            prev_bid = bid
        # Every block full: allocate a tail and link it from the last block.
        new_bid = disk.allocate()
        assert prev_bid is not None
        with disk.modify(prev_bid) as prev_blk:
            prev_blk.header["next"] = new_bid
        with disk.modify(new_bid) as new_blk:
            new_blk.append(key)
        self._chain.append(new_bid)
        return True

    def delete(self, key: int) -> bool:
        """Remove ``key`` from whichever chain block holds it.

        Each block up to the hit is one :meth:`~repro.em.disk.Disk.remove_record`:
        a read, plus a combining write on the hit, served record-level
        without materialising a Block.
        """
        remove = self.disk.remove_record
        if not self._chain:
            return remove(self.primary, key)
        return any(remove(bid, key) for bid in self.block_ids)

    def read_all(self) -> list[int]:
        """Read every block of the chain (charged) and return all items."""
        return self.disk.read_records(self.block_ids)

    def absorb(self, incoming: list[int]) -> None:
        """Read the chain, append ``incoming``, rewrite — one RMW pass.

        Charges exactly like ``replace_all(read_all() + incoming)``,
        which is also its literal fallback implementation.
        """
        self.replace_all(self.read_all() + incoming)

    def replace_all(self, items: list[int]) -> None:
        """Rewrite the bucket to contain exactly ``items`` (charged writes).

        Packs items ``b`` per block, reusing existing chain blocks and
        allocating/freeing as needed.
        """
        disk = self.disk
        b = disk.b // disk.record_words
        needed = max(1, -(-len(items) // b)) - 1  # overflow blocks needed
        while len(self._chain) < needed:
            self._chain.append(disk.allocate())
        while len(self._chain) > needed:
            victim = self._chain.pop()
            disk.free(victim)
        ids = self.block_ids
        last = len(ids) - 1
        for i, bid in enumerate(ids):
            blk = disk.stage(bid)
            blk.replace_contents(items[i * b : (i + 1) * b])
            blk.header.pop("next", None)
            if i < last:
                blk.header["next"] = ids[i + 1]
            # No rmw invalidation: a rewrite immediately after reading
            # the same block (the read_all → replace_all merge pattern)
            # is footnote 2's one-I/O read-modify-write.
            disk.store(bid)

    # -- uncharged introspection ---------------------------------------------------

    def peek_all(self) -> list[int]:
        """All items in the bucket without charging I/O (instrumentation)."""
        items: list[int] = []
        for bid in self.block_ids:
            items.extend(self.disk.peek(bid, copy=False).records())
        return items

    def peek_blocks(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        for bid in self.block_ids:
            yield bid, tuple(self.disk.peek(bid, copy=False).records())

    def item_count(self) -> int:
        return len(self.peek_all())

    def free_all(self) -> None:
        """Release every block of the bucket back to the disk."""
        for bid in self.block_ids:
            self.disk.free(bid)
        self._chain.clear()


def _sweep(disk: Disk, run: list, mutate, **charge) -> None:
    """Charge ``run``'s chain-free buckets as one sweep, then apply
    ``mutate(block id, payload)`` to each, in order, and empty ``run``.

    The charge comes first: a cached disk samples residency before the
    uncharged mutators drop frames.  The callers below flush their run
    before every fallback bucket, so charges land in bucket order.
    """
    if run:
        disk.charge_sweep([bid for bid, _ in run], **charge)
        for bid, payload in run:
            mutate(bid, payload)
        run.clear()


def bulk_merge_into(
    buckets: list[ChainedBucket],
    parts: list[tuple[int, list[int]]],
    disk: Disk,
) -> None:
    """Merge per-bucket item groups into ``buckets`` at bulk prices.

    ``parts`` is the output of
    :func:`~repro.tables.batching.partition_by_bucket`.  Charges exactly
    the per-bucket loop of :meth:`ChainedBucket.absorb` (``read_all`` +
    ``replace_all``): a chain-free bucket whose merged contents still fit
    one block is appended to uncharged and charged by
    :meth:`~repro.em.disk.Disk.charge_sweep` — one read, then a write
    (a first write when the block was fresh); a chained or overflowing
    bucket runs ``absorb`` itself.
    """
    cap = disk.b // disk.record_words
    backend = disk.backend
    run: list[tuple[int, list[int]]] = []

    def flush() -> None:
        fresh = [backend.is_fresh(bid) for bid, _ in run]
        _sweep(disk, run, disk.append_uncharged, fresh=fresh)

    for idx, incoming in parts:
        bkt = buckets[idx]
        if bkt._chain or backend.length(bkt.primary) + len(incoming) > cap:
            flush()
            bkt.absorb(incoming)
        else:
            run.append((bkt.primary, incoming))
    flush()


def bulk_fill_buckets(
    buckets: list[ChainedBucket],
    parts: list[tuple[int, list[int]]],
    disk: Disk,
) -> None:
    """Write staged groups into freshly allocated, never-written buckets.

    The rebuild counterpart of :func:`bulk_merge_into`: charges exactly
    the per-bucket loop of :meth:`ChainedBucket.replace_all`.  A group
    that fits one block is written uncharged and charged as a write-only
    sweep of first writes; a larger group runs ``replace_all`` itself.
    """
    cap = disk.b // disk.record_words
    run: list[tuple[int, list[int]]] = []

    def flush() -> None:
        _sweep(disk, run, disk.replace_uncharged, fresh=[True] * len(run), read=False)

    for idx, items in parts:
        if len(items) > cap:
            flush()
            buckets[idx].replace_all(items)
        else:
            run.append((buckets[idx].primary, items))
    flush()


def bulk_drain(buckets: list[ChainedBucket], disk: Disk) -> list[int]:
    """Read out and empty every bucket of a row; return the items.

    Charges exactly the per-bucket loop ``got = read_all()``, then
    ``replace_all([])`` when ``got`` is non-empty: every bucket is read,
    empty ones too.  Chain-free buckets are drained uncharged and charged
    by :meth:`~repro.em.disk.Disk.charge_sweep`, rewriting the non-empty
    ones; chained buckets run the loop itself.
    """
    length = disk.backend.length
    items: list[int] = []
    run: list[tuple[int, None]] = []

    def drain(bid: int, _) -> None:
        items.extend(disk.drain_uncharged(bid))

    def flush() -> None:
        _sweep(disk, run, drain, written=[length(bid) > 0 for bid, _ in run])

    for bkt in buckets:
        if bkt._chain:
            flush()
            got = bkt.read_all()
            if got:
                items.extend(got)
                bkt.replace_all([])
        else:
            run.append((bkt.primary, None))
    flush()
    return items
