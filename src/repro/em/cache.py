"""Caching as a policy axis: the LRU buffer pool and the cached disk.

The paper's whole subject is the limit of what buffering can buy an
external-memory dictionary.  This module makes that buying power an
explicit **third I/O-policy axis**, alongside PAPER/STRICT read-modify-
write combining and the mapping/arena/durable-arena storage backends:

* :class:`BufferPool` — the LRU residency set of a cache's block frames,
  with hit/miss/eviction accounting;
* :class:`CachedDisk` — a :class:`~repro.em.disk.Disk` whose charging
  hooks route through a private pool.

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

Coherence discipline of :class:`CachedDisk`: frames are write-through
residency entries, never copies of a block.  Every charged method of
the disk charges through two hooks, which are the cache's two decisions:
``_charge_read`` (is the block resident: a hit, or a charged miss that
installs a frame unless the read says not to) and ``_forget`` (drop the
frame before the block is written or freed: write-invalidate).  So a
resident block always equals its committed backend state: a whole-block
hit reads the backend without charging, and a probe hit answers from
the frame's memo, a set of the block's records built on its first probe
hit and dropped with the frame.  Streaming bulk reads
(``scan``/``read_records``) and the read of a read-modify-write
(``load``, ``remove_record``) count hits and misses but never install
frames, keeping one cold table scan from flushing the pool (scan
resistance).  The batch paths charge through the disk's two bulk
methods, overridden here.  :meth:`CachedDisk.charge_walk` replays a
lookup batch's walk of block ids with :meth:`BufferPool.access_sequence`
— the LRU reference-string simulation of Mattson et al. (1970) over
plain ints — to the same hits, misses, evictions and resident order as
the per-id probes.  :meth:`CachedDisk.charge_sweep` runs the per-block
loop a bucket sweep or a delete walk replaces: a streaming read, then
write-invalidate and the write.

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

from .disk import Disk, Rounds
from .errors import ConfigurationError, InvalidBlockError
from .iostats import IOStats
from .memory import MemoryBudget


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for a :class:`BufferPool`.

    ``writebacks`` is always 0 (frames are write-through, so an eviction
    writes nothing); it stays for the metrics and trace schema.
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
    """The LRU residency set of a cache's block frames.

    Parameters
    ----------
    disk:
        The disk whose blocks the frames hold (its ``b`` sizes a frame).
    capacity_blocks:
        Number of block frames; total memory footprint is
        ``capacity_blocks * disk.b`` words.
    budget:
        Optional memory budget to charge the frames against.
    owner:
        Charge label used with ``budget``.

    A frame holds no :class:`~repro.em.block.Block`: :class:`CachedDisk`
    keeps every resident block equal to its committed backend state, so
    the pool only models which blocks a read would find in memory.
    :meth:`access` is one read through the residency and
    :meth:`access_sequence` a replay of many; neither charges I/O — the
    caller charges a miss's read.

    :attr:`on_evict` is an optional hook called with the block id of
    every frame that leaves the pool (LRU eviction, :meth:`invalidate`,
    or :meth:`clear`); :class:`CachedDisk` uses it to drop a frame's
    membership memo with the frame.  :meth:`access`, :meth:`invalidate`
    and :meth:`clear` call it as the frame leaves; :meth:`access_sequence`
    calls it once per victim, in eviction order, after its replay, so a
    hook must not read the pool's residency or anything the replay
    reads — it may only drop state kept alongside a frame.
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
        #: Resident block ids in LRU order (the values are unused).
        self._frames: OrderedDict[int, None] = OrderedDict()
        self.stats = CacheStats()
        self.on_evict: Callable[[int], None] | None = None

    # -- core operations -----------------------------------------------------

    def access(self, block_id: int, install: bool = True) -> bool:
        """One read of ``block_id`` through the pool's residency.

        A hit refreshes the frame's LRU position; a miss installs a
        frame (unless ``install`` is false), evicting the LRU frame when
        full.  Counts the hit or miss; charges nothing — the caller
        charges a miss's read.  Returns whether it hit.
        """
        frames = self._frames
        if block_id in frames:
            frames.move_to_end(block_id)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if install:
            if len(frames) >= self.capacity_blocks:
                victim, _ = frames.popitem(last=False)
                self.stats.evictions += 1
                if self.on_evict is not None:
                    self.on_evict(victim)
            frames[block_id] = None
        return False

    def access_sequence(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Replay reads of ``block_ids`` in order; return the hit mask.

        The same LRU moves, hit/miss/eviction counts, resident order and
        :attr:`on_evict` calls as ``[self.access(bid) for bid in
        block_ids]``, in one pass over plain ints: the LRU
        reference-string simulation of Mattson et al. (1970).  The
        vectorised lookup paths use it to label a whole walk of block
        ids at once.  :attr:`on_evict` is called once per victim, in
        eviction order, after the replay rather than during it: the hook
        only drops state the replay never reads.
        """
        ids = block_ids.tolist() if isinstance(block_ids, np.ndarray) else block_ids
        frames = self._frames
        move = frames.move_to_end
        pop_lru = frames.popitem
        capacity = self.capacity_blocks
        hits: list[int] = []
        victims: list[int] = []
        for i, bid in enumerate(ids):
            if bid in frames:
                move(bid)
                hits.append(i)
            else:
                if len(frames) >= capacity:
                    victims.append(pop_lru(last=False)[0])
                frames[bid] = None
        stats = self.stats
        stats.hits += len(hits)
        stats.misses += len(ids) - len(hits)
        stats.evictions += len(victims)
        if self.on_evict is not None:
            for victim in victims:
                self.on_evict(victim)
        mask = np.zeros(len(ids), dtype=bool)
        mask[hits] = True
        return mask

    # -- maintenance -----------------------------------------------------------

    def invalidate(self, block_id: int) -> None:
        """Drop ``block_id``'s frame, if resident."""
        if block_id in self._frames:
            del self._frames[block_id]
            if self.on_evict is not None:
                self.on_evict(block_id)

    def clear(self) -> None:
        """Empty the pool.  Counters survive for post-run reporting."""
        if self.on_evict is not None:
            for bid in list(self._frames):
                self.on_evict(bid)
        self._frames.clear()

    def close(self) -> None:
        """Empty the pool and release the memory charge.

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
    """A disk whose charging hooks route through a private buffer pool.

    Constructed by :class:`~repro.em.storage.EMContext` when its
    ``cache_blocks`` axis is positive; ``disk.cache`` is the pool
    (``None`` on a plain :class:`Disk`).

    It overrides seven methods of :class:`Disk`: the two per-block hooks
    every charged method charges through (``_charge_read``: a hit, or a
    charged miss; ``_forget``: write-invalidate), the three bulk charges
    (``_charge_stream``, ``charge_walk``, ``charge_sweep``),
    ``count_negative_hits``, and ``probe_record``, whose hit answers from
    the frame's memo — a set of the block's records built on the frame's
    first probe hit, not on every miss, and dropped with the frame —
    without a backend call.

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

    # -- the two hooks -----------------------------------------------------------

    def _charge_read(self, block_id: int, install: bool = True) -> None:
        if not self.cache.access(block_id, install):
            self.stats.record_read(block_id)

    def _forget(self, block_id: int) -> None:
        # Frames are clean: dropping one writes nothing back.
        self.cache.invalidate(block_id)

    # -- the memoised probe and the bulk charges ----------------------------------

    def probe_record(self, block_id: int, key: int) -> bool:
        # ``access`` counts the hit or miss and installs on a miss; a hit
        # answers from the memo without touching the backend.
        if self.cache.access(block_id):
            return key in self._members(block_id)
        backend = self.backend
        if block_id not in backend:
            self._forget(block_id)  # the frame ``access`` just installed
            raise InvalidBlockError(f"access to unknown block {block_id}")
        self.stats.record_read(block_id)
        return backend.contains_key(block_id, key)

    def _charge_stream(self, block_ids) -> None:
        # Streaming reads refresh resident frames but never install.
        access = self.cache.access
        self.stats.record_reads([bid for bid in block_ids if not access(bid, False)])

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
            if read and not pool.access(bid, False):
                stats.record_read(bid)
            if written is None or written[i]:
                pool.invalidate(bid)
                stats.record_write(bid, fresh=fresh is not None and fresh[i])

    def count_negative_hits(self, count: int) -> None:
        self.cache.stats.negative_hits += count
