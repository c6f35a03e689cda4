"""Caching as a policy axis: the LRU buffer pool and the cached disk.

The paper's whole subject is the limit of what buffering can buy an
external-memory dictionary.  This module makes that buying power an
explicit **third I/O-policy axis**, alongside PAPER/STRICT read-modify-
write combining and the mapping/arena/durable-arena storage backends:

* :class:`BufferPool` — a write-back LRU cache of disk blocks with
  hit/dirty accounting, usable standalone by baselines;
* :class:`CachedDisk` — a :class:`~repro.em.disk.Disk` whose charged hot
  paths (``read``/``write``/``modify``/``load``/``store``, the
  record-level ``probe_record``/``remove_record``/``scan``/
  ``read_records`` and the bulk ``charge_walk``/``charge_sweep``) route
  through a private pool.

Cache hits charge **no** I/O — that is the entire point of buffering and
exactly the effect whose limits the paper studies.  Exactness is
preserved, not abandoned:

* uncached configs (``cache_blocks=0``) never construct a pool and stay
  bit-identical to the uncached ledgers and layouts;
* in a cached run every charged backend read is counted as a **miss**
  and every avoided one as a **hit**, so
  ``hits + misses == uncached charged reads`` — the cache only
  *relabels* I/Os, it never loses them.  (Bloom-filter rejections, which
  charge nothing in either configuration, are counted separately as
  ``negative_hits``.)

Coherence discipline of :class:`CachedDisk`: a frame is an LRU
*residency entry* plus a lazily built membership memo, never a copy of
the block.  Every mutating path — ``write``/``store``/``free``, the
copy-light loans (``load``/``stage``), ``remove_record`` on a hit, and
the uncharged bulk mutators — drops the resident frame (write-invalidate;
draining an empty block mutates nothing and keeps it), so a resident
block always equals its committed backend state: whole-block hits
(``read``/``scan``/``read_records``) read the backend without charging,
and probe hits answer from the frame's memo, a set of the block's
records built on its first probe hit and dropped with the frame.
Streaming bulk reads (``scan``/``read_records``) count hits and misses
but never install frames, keeping one cold table scan from flushing the
pool (scan resistance).  The batch paths charge through the disk's two
bulk methods, overridden here.  :meth:`CachedDisk.charge_walk` replays a
lookup batch's walk of block ids with
:meth:`BufferPool.access_sequence` — the LRU reference-string
simulation of Mattson et al. (1970) over plain ints — to the same hits,
misses, evictions and resident order as the per-id probes.
:meth:`CachedDisk.charge_sweep` runs the per-block loop a bucket sweep
replaces: a streaming read, then write-invalidate and the write.

A cache of ``capacity_blocks`` blocks consumes ``capacity_blocks * b``
words of the memory budget.  Cached contexts model a machine with ``m``
structure words *plus* a dedicated cache — the structures' layout under
``m`` stays identical to the uncached run, which is what makes the
cold-vs-warm comparison a controlled experiment.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .block import Block
from .disk import Disk, Rounds
from .errors import ConfigurationError
from .iostats import IOStats
from .memory import MemoryBudget


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for a :class:`BufferPool`.

    ``negative_hits`` counts lookups answered by a Bloom filter acting
    as a negative cache: the probe skipped the pool *and* the disk.
    Those charge no I/O in uncached runs either, so they sit outside the
    ``hits + misses == uncached reads`` exactness contract.
    """

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    # -- checkpointing (mirrors IOStats.snapshot/delta_since/absorb) --------

    def snapshot(self) -> "CacheStats":
        """Capture the current counter values."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            negative_hits=self.negative_hits,
            writebacks=self.writebacks,
            evictions=self.evictions,
        )

    def delta_since(self, snap: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``snap`` was taken."""
        return CacheStats(
            hits=self.hits - snap.hits,
            misses=self.misses - snap.misses,
            negative_hits=self.negative_hits - snap.negative_hits,
            writebacks=self.writebacks - snap.writebacks,
            evictions=self.evictions - snap.evictions,
        )

    def absorb(self, delta: "CacheStats") -> None:
        """Fold another pool's counter delta into this one.

        Used by the service layer to merge per-shard cache ledgers into
        a cluster total at epoch close; pure counter addition, so the
        merged result is independent of shard execution order.
        """
        self.hits += delta.hits
        self.misses += delta.misses
        self.negative_hits += delta.negative_hits
        self.writebacks += delta.writebacks
        self.evictions += delta.evictions

    def as_dict(self) -> dict:
        """Plain-dict counter view (trace spans, metrics folding)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "negative_hits": self.negative_hits,
            "writebacks": self.writebacks,
            "evictions": self.evictions,
        }


class BufferPool:
    """Write-back LRU cache of disk blocks.

    Parameters
    ----------
    disk:
        Underlying disk; all misses and writebacks are charged there.
    capacity_blocks:
        Number of block frames; total memory footprint is
        ``capacity_blocks * disk.b`` words.
    budget:
        Optional memory budget to charge the frames against.
    owner:
        Charge label used with ``budget``.

    Copy semantics: :meth:`get` returns a **private copy** of the cached
    block, matching :meth:`Disk.read` — mutating the returned block
    never silently mutates the frame (which would bypass
    :meth:`mark_dirty` tracking).  ``get(..., copy=False)`` loans the
    live frame for read-only bulk inspection, mirroring
    ``Disk.read(copy=False)``'s backend-handle loan.

    Residency without contents: :meth:`access` and
    :meth:`access_sequence` model reads through the pool over plain
    block ids, installing *residency-only* frames that hold no
    :class:`Block`.  Such a frame is clean, so the disk holds its
    contents; :meth:`get` fetches them uncharged on its first hit.

    :attr:`on_evict` is an optional hook called with the block id
    whenever a frame leaves the pool (LRU eviction, :meth:`invalidate`,
    or :meth:`clear`); :class:`CachedDisk` uses it to drop a frame's
    membership memo with the frame.
    """

    def __init__(
        self,
        disk: Disk,
        capacity_blocks: int,
        *,
        budget: MemoryBudget | None = None,
        owner: str = "buffer-pool",
    ) -> None:
        if capacity_blocks <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_blocks}"
            )
        self.disk = disk
        self.capacity_blocks = capacity_blocks
        self.budget = budget
        self.owner = owner
        if budget is not None:
            budget.charge(owner, capacity_blocks * disk.b)
        #: Resident frames in LRU order; ``None`` marks a residency-only
        #: frame (see the class docstring).
        self._frames: OrderedDict[int, Block | None] = OrderedDict()
        self._dirty: set[int] = set()
        self.stats = CacheStats()
        self.on_evict: Callable[[int], None] | None = None

    # -- core operations -----------------------------------------------------

    def get(self, block_id: int, *, copy: bool = True) -> Block:
        """Return the cached block, faulting it in from disk on a miss.

        Returns a private copy by default (see class docstring);
        ``copy=False`` loans the live frame, read-only by convention.
        """
        frames = self._frames
        if block_id in frames:
            self.stats.hits += 1
            frames.move_to_end(block_id)
            frame = frames[block_id]
            if frame is None:
                frame = frames[block_id] = self.disk.peek(block_id)
            return frame.copy() if copy else frame
        self.stats.misses += 1
        blk = self.disk.read(block_id)
        self._install(block_id, blk)
        return blk.copy() if copy else blk

    def put(self, block_id: int, block: Block) -> None:
        """Install ``block`` as the new contents of ``block_id`` (dirty).

        Ownership transfers to the pool: the caller must not mutate
        ``block`` afterwards.
        """
        if block_id in self._frames:
            self._frames[block_id] = block
            self._frames.move_to_end(block_id)
        else:
            self._install(block_id, block)
        self._dirty.add(block_id)

    def mark_dirty(self, block_id: int) -> None:
        """Mark an already-cached block as modified in place."""
        if block_id not in self._frames:
            raise KeyError(f"block {block_id} not resident in cache")
        self._dirty.add(block_id)

    def access(self, block_id: int) -> bool:
        """One read of ``block_id`` through the pool's residency.

        A hit refreshes the frame's LRU position; a miss installs a
        residency-only frame, evicting the LRU frame when full.  Counts
        the hit or miss; charges nothing — the caller charges a miss's
        read.  Returns whether it hit.
        """
        frames = self._frames
        if block_id in frames:
            frames.move_to_end(block_id)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._install(block_id, None)
        return False

    def access_sequence(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Replay reads of ``block_ids`` in order; return the hit mask.

        Exactly ``[self.access(bid) for bid in block_ids]`` — the same
        LRU moves, hit/miss/eviction counts and :attr:`on_evict` calls —
        in one pass over plain ints: the LRU reference-string simulation
        of Mattson et al. (1970).  The vectorised lookup paths use it to
        label a whole walk of block ids at once.
        """
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else block_ids
        frames = self._frames
        move = frames.move_to_end
        install = self._install
        hits: list[int] = []
        for i, bid in enumerate(ids):
            if bid in frames:
                move(bid)
                hits.append(i)
            else:
                install(bid, None)
        self.stats.hits += len(hits)
        self.stats.misses += len(ids) - len(hits)
        mask = np.zeros(len(ids), dtype=bool)
        mask[hits] = True
        return mask

    def touch(self, block_id: int) -> bool:
        """Is ``block_id`` resident?  A resident frame's LRU position is
        refreshed.

        No hit/miss accounting and no install: :class:`CachedDisk` tests
        residency with it, does its own counting, and installs only on
        the misses that should (loans and streaming reads never do).
        """
        frames = self._frames
        if block_id in frames:
            frames.move_to_end(block_id)
            return True
        return False

    def _install(self, block_id: int, block: Block | None) -> None:
        while len(self._frames) >= self.capacity_blocks:
            self._evict_lru()
        self._frames[block_id] = block

    def _evict_lru(self) -> None:
        victim, blk = self._frames.popitem(last=False)
        self.stats.evictions += 1
        if victim in self._dirty:
            # Eviction write-backs are "cold" writes: the read that brought
            # the block in is long past, so footnote-2 combining must not
            # apply.
            self.disk.stats.invalidate_rmw()
            self.disk.write(victim, blk)
            self._dirty.discard(victim)
            self.stats.writebacks += 1
        if self.on_evict is not None:
            self.on_evict(victim)

    # -- maintenance -----------------------------------------------------------

    def flush(self) -> int:
        """Write back every dirty block; return the number written."""
        written = 0
        for bid in sorted(self._dirty):
            self.disk.stats.invalidate_rmw()
            self.disk.write(bid, self._frames[bid])
            written += 1
            self.stats.writebacks += 1
        self._dirty.clear()
        return written

    def invalidate(self, block_id: int, *, discard: bool = False) -> None:
        """Drop a block from the cache (writing it back unless ``discard``)."""
        if block_id not in self._frames:
            return
        blk = self._frames.pop(block_id)
        if block_id in self._dirty:
            self._dirty.discard(block_id)
            if not discard:
                self.disk.stats.invalidate_rmw()
                self.disk.write(block_id, blk)
                self.stats.writebacks += 1
        if self.on_evict is not None:
            self.on_evict(block_id)

    def clear(self) -> None:
        """Flush and empty the pool.  Counters survive for post-run reporting."""
        self.flush()
        if self.on_evict is not None:
            for bid in list(self._frames):
                self.on_evict(bid)
        self._frames.clear()

    def close(self) -> None:
        """Flush, empty, and release the memory charge.

        :attr:`stats` is deliberately left intact so hit rates can be
        reported after the run is torn down.
        """
        self.clear()
        if self.budget is not None:
            self.budget.release(self.owner)

    # -- inspection -------------------------------------------------------------

    def resident(self) -> list[int]:
        """Block ids currently cached, LRU first."""
        return list(self._frames)

    def is_resident(self, block_id: int) -> bool:
        return block_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)


class CachedDisk(Disk):
    """A disk whose charged hot paths route through a private buffer pool.

    Constructed by :class:`~repro.em.storage.EMContext` when its
    ``cache_blocks`` axis is positive; ``disk.cache`` is the pool
    (``None`` on a plain :class:`Disk`).

    A frame is an LRU residency entry plus a lazily built membership
    memo; it never holds a copy of the block.  The write-invalidate rule
    (see module docstring) keeps every resident block equal to its
    committed backend state, so a whole-block hit reads the backend
    uncharged, and a probe hit (``probe_record``/``remove_record``)
    answers from the memo, a set of the block's records built on the
    frame's first probe hit — not on every miss — and dropped with the
    frame.

    Accounting contract (see module docstring): every read the uncached
    configuration would charge is either charged here (a **miss**) or
    served from a frame (a **hit**), so ``hits + misses`` equals the
    uncached run's charged reads access for access.  Writes are
    write-through and charged exactly as uncached; frames are therefore
    always clean and evictions never write back.  A cache hit does *not*
    update the pending read-modify-write block — no physical seek
    happened — so a store after a hit-load charges a full write where
    the uncached run charged read + combined write: the same total,
    relabelled.

    The pool's frames are managed exclusively by the disk; use the
    standalone :class:`BufferPool` API (``get``/``put``) only over a
    plain :class:`Disk`.
    """

    def __init__(
        self,
        block_size_words: int,
        *,
        cache_blocks: int,
        budget: MemoryBudget | None = None,
        cache_owner: str = "buffer-pool",
        stats: IOStats | None = None,
        record_words: int = 1,
        backend=None,
        first_id: int = 0,
    ) -> None:
        super().__init__(
            block_size_words,
            stats=stats,
            record_words=record_words,
            backend=backend,
            first_id=first_id,
        )
        self.cache = BufferPool(
            self, cache_blocks, budget=budget, owner=cache_owner
        )
        #: Record-membership memo of resident frames that had a probe hit.
        self._memo: dict[int, set[int]] = {}
        self.cache.on_evict = self._on_frame_drop

    def _on_frame_drop(self, block_id: int) -> None:
        self._memo.pop(block_id, None)

    def _members(self, block_id: int) -> set[int]:
        """The memo of a resident frame, built on its first probe hit."""
        memo = self._memo.get(block_id)
        if memo is None:
            memo = self._memo[block_id] = set(self.backend.records(block_id))
        return memo

    def _drop_frame(self, block_id: int) -> None:
        """Invalidate before a mutation; frames are clean, nothing writes back."""
        self.cache.invalidate(block_id, discard=True)

    def _charge_stream(self, block_ids) -> None:
        # Streaming reads refresh resident frames but never install.
        touch = self.cache.touch
        missed = [bid for bid in block_ids if not touch(bid)]
        self.cache.stats.hits += len(block_ids) - len(missed)
        self.cache.stats.misses += len(missed)
        self.stats.record_reads(missed)

    # -- copying I/O ---------------------------------------------------------

    def read(self, block_id: int, *, copy: bool = True) -> Block:
        blk = self._fetch(block_id)
        if not self.cache.access(block_id):
            self.stats.record_read(block_id)
        return blk.copy() if copy else blk

    def write(self, block_id: int, block: Block) -> None:
        self._drop_frame(block_id)
        super().write(block_id, block)

    # -- copy-light I/O ------------------------------------------------------

    def load(self, block_id: int) -> Block:
        if self.cache.touch(block_id):
            # Hit: the charged read is avoided, but the caller needs the
            # live backend handle for the in-place store, so the frame is
            # dropped for the duration of the loan (invalidate-on-loan).
            self.cache.stats.hits += 1
            self._drop_frame(block_id)
            blk = self._fetch(block_id)
            self._loans[block_id] = (
                self._gen.get(block_id, 0),
                blk.empty and not blk.header,
                blk,
            )
            return blk
        self.cache.stats.misses += 1
        return super().load(block_id)

    def stage(self, block_id: int) -> Block:
        # Uncharged in both configurations: no hit/miss accounting.
        self._drop_frame(block_id)
        return super().stage(block_id)

    def store(self, block_id: int, block: Block | None = None) -> None:
        self._drop_frame(block_id)
        super().store(block_id, block)

    # -- record-level fast paths ---------------------------------------------

    def probe_record(self, block_id: int, key: int) -> bool:
        pool = self.cache
        if pool.touch(block_id):
            pool.stats.hits += 1
            return key in self._members(block_id)
        found = super().probe_record(block_id, key)
        pool.access(block_id)  # not resident: counts the miss, installs
        return found

    def charge_walk(self, n: int, rounds: Rounds) -> np.ndarray:
        # The walk is replayed in scalar order through the pool and its
        # misses charged in one bulk read: counters, pool state and the
        # pending RMW block end where the per-id probe_record calls would
        # leave them.
        if not rounds:
            return np.zeros(n, dtype=np.int64)
        pos = np.concatenate([p for p, _ in rounds])
        order = np.argsort(pos, kind="stable")
        ids = np.concatenate([np.broadcast_to(b, p.shape) for p, b in rounds])[order]
        missed = ~self.cache.access_sequence(ids)
        self.stats.record_reads(ids[missed])
        return np.bincount(pos[order[missed]], minlength=n)

    def charge_sweep(self, block_ids, written=None, fresh=None, *, read=True) -> None:
        pool, stats = self.cache, self.stats
        # The reference loop itself: a streaming read (a resident block
        # is a hit, a miss installs nothing), then write-invalidate.
        for i, bid in enumerate(block_ids):
            if read:
                if pool.touch(bid):
                    pool.stats.hits += 1
                else:
                    pool.stats.misses += 1
                    stats.record_read(bid)
            if written is None or written[i]:
                self._drop_frame(bid)
                stats.record_write(bid, fresh=fresh is not None and fresh[i])

    def count_negative_hits(self, count: int) -> None:
        self.cache.stats.negative_hits += count

    def remove_record(self, block_id: int, key: int) -> bool:
        if self.cache.touch(block_id):
            self.cache.stats.hits += 1
            if key not in self._members(block_id):
                return False
            self._drop_frame(block_id)
            backend = self.backend
            fresh = backend.is_fresh(block_id)
            backend.remove_key(block_id, key)
            self._gen[block_id] = self._gen.get(block_id, 0) + 1
            self._loans.pop(block_id, None)
            self.stats.record_write(block_id, fresh=fresh)
            return True
        self.cache.stats.misses += 1
        return super().remove_record(block_id, key)

    # -- mutation coherence ----------------------------------------------------

    def free(self, block_id: int) -> None:
        self._drop_frame(block_id)
        super().free(block_id)

    def append_uncharged(self, block_id: int, items) -> None:
        self._drop_frame(block_id)
        super().append_uncharged(block_id, items)

    def replace_uncharged(self, block_id: int, items) -> None:
        self._drop_frame(block_id)
        super().replace_uncharged(block_id, items)

    def drain_uncharged(self, block_id: int):
        # Draining an empty block writes nothing: its frame stays.
        out = super().drain_uncharged(block_id)
        if out:
            self._drop_frame(block_id)
        return out
