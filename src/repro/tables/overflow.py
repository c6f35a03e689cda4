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

An insert updates a private copy from :meth:`~repro.em.disk.Disk.load`
and commits it with :meth:`~repro.em.disk.Disk.store`; a rewrite stores
freshly built blocks, and the chain-free probes run record-level.

The bulk sweeps at the end (:func:`bulk_merge_into`,
:func:`bulk_fill_buckets`, :func:`bulk_drain`) merge into, fill and
drain a whole bucket row, with the items as ``uint64`` arrays.  Each run
of chain-free buckets between two fallback buckets costs one
:meth:`~repro.em.disk.Disk.charge_sweep` and one run-form disk call
(``append_run``, ``replace_run``, ``drain_run``), not a Python step per
bucket; a chained or overflowing bucket takes the per-bucket path in
bucket order.  Each sweep charges exactly the per-bucket loop it
replaces.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..em.block import Block
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

    def lookup(self, key: int) -> bool:
        """Search the chain for ``key``.

        Reads the blocks in chain order via the header pointers and stops
        at the hit or at the chain's end.  What the search costs is the
        disk's to say: read the ledger (``disk.stats``), where a cached
        disk charges nothing for a resident block.
        """
        disk = self.disk
        if not self._chain:
            # Chain-free bucket: one charged read, served record-level.
            return disk.probe_record(self.primary, key)
        for bid in self.block_ids:
            blk = disk.read(bid, copy=False)
            if key in blk:
                return True
            if blk.header.get("next") is None:
                break
        return False

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
                disk.store(bid, blk)
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
        rw = disk.record_words
        b = disk.b // rw
        needed = max(1, -(-len(items) // b)) - 1  # overflow blocks needed
        while len(self._chain) < needed:
            self._chain.append(disk.allocate())
        while len(self._chain) > needed:
            victim = self._chain.pop()
            disk.free(victim)
        ids = self.block_ids
        last = len(ids) - 1
        for i, bid in enumerate(ids):
            blk = Block(disk.b, record_words=rw, data=items[i * b : (i + 1) * b])
            if i < last:
                blk.header["next"] = ids[i + 1]
            # No rmw invalidation: a rewrite immediately after reading
            # the same block (the read_all → replace_all merge pattern)
            # is footnote 2's one-I/O read-modify-write.
            disk.store(bid, blk)

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


#: A partition's ``(buckets, bounds, items)`` arrays: bucket
#: ``buckets[j]`` receives ``items[bounds[j] : bounds[j + 1]]``.
Parts = tuple[np.ndarray, np.ndarray, np.ndarray]


def _primaries(buckets: list[ChainedBucket]) -> tuple[np.ndarray, np.ndarray]:
    """Each bucket's primary block id, and whether it has a chain."""
    primary = np.fromiter((b.primary for b in buckets), np.int64, count=len(buckets))
    chained = np.fromiter((bool(b._chain) for b in buckets), bool, count=len(buckets))
    return primary, chained


def _runs(fallback: np.ndarray):
    """Walk positions ``0 .. len(fallback) - 1`` in order: yield
    ``(lo, hi, f)`` for each fallback position ``f``, ``[lo, hi)`` the
    run of sweepable positions before it, and a last ``(lo, n, None)``."""
    lo = 0
    for f in np.flatnonzero(fallback).tolist():
        yield lo, f, f
        lo = f + 1
    yield lo, len(fallback), None


def bulk_merge_into(buckets: list[ChainedBucket], parts: Parts, disk: Disk) -> None:
    """Merge per-bucket item groups into ``buckets`` at bulk prices.

    ``parts`` is the output of
    :func:`~repro.tables.batching.partition_by_bucket`.  Charges exactly
    the per-bucket loop of :meth:`ChainedBucket.absorb` (``read_all`` +
    ``replace_all``).  A run of chain-free buckets whose merged contents
    still fit one block is charged by one
    :meth:`~repro.em.disk.Disk.charge_sweep` — a read, then a write of
    each block (a first write when the block was fresh) — and then
    appended to by one :meth:`~repro.em.disk.Disk.append_run`; a chained
    or overflowing bucket runs ``absorb`` itself, in bucket order between
    the runs.
    """
    idx, bounds, items = parts
    receiving = [buckets[j] for j in idx.tolist()]
    primary, chained = _primaries(receiving)
    backend = disk.backend
    cap = disk.b // disk.record_words
    fits = ~chained & (backend.length_many(primary) + np.diff(bounds) <= cap)
    for lo, hi, f in _runs(~fits):
        if lo < hi:
            run = primary[lo:hi]
            disk.charge_sweep(run.tolist(), fresh=backend.is_fresh_many(run))
            disk.append_run(run, items, bounds[lo : hi + 1])
        if f is not None:
            receiving[f].absorb(items[bounds[f] : bounds[f + 1]].tolist())


def bulk_fill_buckets(buckets: list[ChainedBucket], parts: Parts, disk: Disk) -> None:
    """Write staged groups into freshly allocated, never-written buckets.

    The rebuild counterpart of :func:`bulk_merge_into`: charges exactly
    the per-bucket loop of :meth:`ChainedBucket.replace_all`.  A run of
    groups that each fit one block is charged as one write-only sweep of
    first writes and written by one :meth:`~repro.em.disk.Disk.replace_run`;
    a larger group runs ``replace_all`` itself.
    """
    idx, bounds, items = parts
    receiving = [buckets[j] for j in idx.tolist()]
    primary, _ = _primaries(receiving)
    over = np.diff(bounds) > disk.b // disk.record_words
    for lo, hi, f in _runs(over):
        if lo < hi:
            run = primary[lo:hi]
            disk.charge_sweep(run.tolist(), fresh=[True] * (hi - lo), read=False)
            disk.replace_run(run, items, bounds[lo : hi + 1])
        if f is not None:
            receiving[f].replace_all(items[bounds[f] : bounds[f + 1]].tolist())


def bulk_drain(buckets: list[ChainedBucket], disk: Disk) -> np.ndarray:
    """Read out and empty every bucket of a row; return the items.

    Charges exactly the per-bucket loop ``got = read_all()``, then
    ``replace_all([])`` when ``got`` is non-empty: every bucket is read,
    empty ones too.  A run of chain-free buckets is charged by one
    :meth:`~repro.em.disk.Disk.charge_sweep`, rewriting the non-empty
    ones, and emptied by one :meth:`~repro.em.disk.Disk.drain_run`; a
    chained bucket runs the loop itself.  The items come out in bucket
    order, as a ``uint64`` array.
    """
    primary, chained = _primaries(buckets)
    lengths = disk.backend.length_many(primary)
    out: list[np.ndarray] = []
    for lo, hi, f in _runs(chained):
        if lo < hi:
            run = primary[lo:hi]
            disk.charge_sweep(run.tolist(), written=lengths[lo:hi] > 0)
            out.append(disk.drain_run(run))
        if f is not None:
            got = disk.read_records_arr(buckets[f].block_ids)
            if got.size:
                out.append(got)
                buckets[f].replace_all([])
    return np.concatenate(out) if out else np.empty(0, dtype=np.uint64)
