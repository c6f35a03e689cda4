"""The simulated disk.

The disk is an infinite array of :class:`~repro.em.block.Block` slots
addressed by integer block ids.  Every access goes through the charged
I/O methods, which update the shared :class:`~repro.em.iostats.IOStats`.
A convenience :meth:`modify` context manager expresses the ubiquitous
read-modify-write pattern and benefits from the footnote-2 combining in
the I/O policy.

Since the pluggable-backend refactor the disk no longer stores blocks
itself: a :class:`~repro.em.backends.StorageBackend` does (the
dict-of-``Block`` :class:`~repro.em.backends.MappingBackend` by
default, or the numpy-arena :class:`~repro.em.backends.ArenaBackend`).
The disk keeps everything *accounting*: charged I/Os, generation tags,
loans, and the allocation id space.

Two access disciplines coexist:

* the **copying** API (:meth:`read` / :meth:`write`) hands back and
  stores deep copies, which keeps the model honest by construction:
  mutating memory-resident state never silently mutates the disk;
* the **copy-light** API (:meth:`load` / :meth:`stage` / :meth:`store`)
  loans out a handle on the stored block so a read-merge-write cycle
  moves each record once instead of three times.  Honesty is preserved
  by *generation tagging*: every committed write bumps the block's
  generation, a loan remembers the generation (and the freshness used
  for allocation accounting) at loan time, and :meth:`store` falls back
  to re-inspecting the stored block when the loan went stale.  Both
  disciplines charge the :class:`IOStats` identically — the parity
  suite in ``tests/test_batch_parity.py`` pins this down.

A third tier, the **uncharged record-level API**
(:meth:`records_arr`, :meth:`keys_in`, :meth:`remove_uncharged`,
:meth:`append_uncharged`, :meth:`drain_uncharged`, ...), serves the
batch engine: it reads and mutates the backend directly — no
:class:`Block` handle, no charge.  A batch path then charges what it did
through one of two bulk methods: :meth:`charge_walk` for a lookup
batch's probe walk, :meth:`charge_sweep` for a sweep that reads each
block once and writes some back (a bucket-row sweep, or a delete
batch's walk with its hits written).
Each charges exactly what its per-block loop of charged calls would,
and :class:`~repro.em.cache.CachedDisk` overrides both, so the
footnote-2 combining and the cache's hit-or-miss decision live in this
package alone.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

import numpy as np

from .backends import StorageBackend, make_backend
from .block import Block
from .errors import ConfigurationError, InvalidBlockError
from .iostats import IOStats

#: A batch lookup's walk: ``(key positions, block ids)`` per probe round.
Rounds = list[tuple[np.ndarray, np.ndarray | int]]


class Disk:
    """An unbounded array of ``b``-word blocks with I/O accounting.

    ``cache`` is the caching policy axis: ``None`` here (uncached —
    every charged method talks straight to the backend), a
    :class:`~repro.em.cache.BufferPool` on the
    :class:`~repro.em.cache.CachedDisk` subclass, which overrides the
    charged methods.  Code above the disk calls those methods and never
    branches on the axis.

    Parameters
    ----------
    block_size_words:
        The model parameter ``b``.
    stats:
        Shared I/O counters; a fresh one is created when omitted.
    record_words:
        Default words-per-record for blocks allocated by this disk.
    backend:
        The block store: a :class:`StorageBackend` instance, a registry
        name (``"mapping"`` / ``"arena"``), or ``None`` for the default
        mapping backend.
    first_id:
        First block id this disk hands out.  Sharded dictionaries give
        each shard's disk a strided ``first_id`` so block-id namespaces
        stay disjoint and allocation order is per-shard deterministic.
    """

    #: The caching axis: a BufferPool on CachedDisk, None when uncached.
    cache = None

    def __init__(
        self,
        block_size_words: int,
        *,
        stats: IOStats | None = None,
        record_words: int = 1,
        backend: StorageBackend | str | None = None,
        first_id: int = 0,
    ) -> None:
        if block_size_words <= 0:
            raise ConfigurationError(f"b must be positive, got {block_size_words}")
        if record_words <= 0 or record_words > block_size_words:
            raise ConfigurationError(
                f"record_words must lie in [1, b], got {record_words}"
            )
        self.b = block_size_words
        self.record_words = record_words
        self.stats = stats if stats is not None else IOStats()
        if backend is None:
            backend = "mapping"
        if isinstance(backend, str):
            backend = make_backend(backend, block_size_words, record_words)
        self.backend = backend
        self._next_id = first_id
        #: Generation counter per block id, bumped on every committed write.
        self._gen: dict[int, int] = {}
        #: Outstanding copy-light loans: id -> (generation, fresh, handle).
        self._loans: dict[int, tuple[int, bool, Block]] = {}

    def describe(self) -> dict:
        """Telemetry descriptor of geometry + caching axis.

        Consumed by the observability layer's ``run_start`` span so a
        trace is self-describing; pure metadata, charges nothing.
        """
        pool = self.cache
        return {
            "b": self.b,
            "record_words": self.record_words,
            "backend": type(self.backend).__name__,
            "cache_blocks": pool.capacity_blocks if pool is not None else 0,
        }

    # -- allocation ---------------------------------------------------------

    def allocate(self, *, record_words: int | None = None) -> int:
        """Reserve a fresh block id (no I/O is charged until first write)."""
        bid = self._next_id
        self._next_id += 1
        self.backend.create(bid, record_words=record_words)
        return bid

    def allocate_many(self, count: int, *, record_words: int | None = None) -> list[int]:
        """Reserve ``count`` consecutive fresh block ids in one bulk step.

        Equivalent to ``count`` :meth:`allocate` calls but without the
        per-call overhead: the id range is claimed once and the empty
        blocks are built in a single backend bulk-create.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        start = self._next_id
        self._next_id = start + count
        ids = list(range(start, start + count))
        self.backend.create_many(ids, record_words=record_words)
        return ids

    def free(self, block_id: int) -> None:
        """Release a block id; later access raises :class:`InvalidBlockError`."""
        try:
            self.backend.delete(block_id)
        except KeyError:
            raise InvalidBlockError(f"free of unknown block {block_id}") from None
        self._gen.pop(block_id, None)
        self._loans.pop(block_id, None)

    # -- copying I/O --------------------------------------------------------

    def read(self, block_id: int, *, copy: bool = True) -> Block:
        """Fetch a block into memory, charging one read I/O."""
        blk = self._fetch(block_id)
        self.stats.record_read(block_id)
        return blk.copy() if copy else blk

    def write(self, block_id: int, block: Block) -> None:
        """Store a copy of ``block`` at ``block_id``, charging one write I/O.

        The very first write of a freshly allocated block is recorded as
        an allocation (chargeable per policy).
        """
        fresh = self._is_fresh(block_id)
        if block.capacity_words != self.b:
            raise InvalidBlockError(
                f"block capacity {block.capacity_words} != disk b {self.b}"
            )
        self.backend.commit(block_id, block, copy=True)
        self._gen[block_id] = self._gen.get(block_id, 0) + 1
        self.stats.record_write(block_id, fresh=fresh)

    # -- copy-light I/O -----------------------------------------------------

    def load(self, block_id: int) -> Block:
        """Charged read returning a loaned handle on the stored block.

        The caller must either treat the block as read-only or commit
        in-place mutations with :meth:`store`.  The loan records the
        block's generation and allocation-freshness so a later
        :meth:`store` charges exactly what a copying read/write round
        trip would have.  (The mapping backend loans the live stored
        object; the arena loans a materialised handle that ``store``
        writes back.)
        """
        blk = self._fetch(block_id)
        self._loans[block_id] = (
            self._gen.get(block_id, 0),
            blk.empty and not blk.header,
            blk,
        )
        self.stats.record_read(block_id)
        return blk

    def stage(self, block_id: int) -> Block:
        """Uncharged fetch of a loaned block handle for wholesale rewrite.

        The write-only analogue of :meth:`load`: the caller overwrites
        the returned block in place and commits with :meth:`store`,
        charging a single write I/O.  Freshness is captured now, before
        the mutation, matching what :meth:`write` would have inferred
        from the pre-write contents.
        """
        blk = self._fetch(block_id)
        self._loans[block_id] = (
            self._gen.get(block_id, 0),
            blk.empty and not blk.header,
            blk,
        )
        return blk

    def store(self, block_id: int, block: Block | None = None) -> None:
        """Commit a copy-light write of ``block_id``, charging one write I/O.

        With ``block=None`` the loaned handle from :meth:`load` /
        :meth:`stage` (mutated in place) is committed.  Passing a
        foreign ``block`` transfers ownership without copying — the
        caller must not mutate it afterwards.  A stale loan (the block
        was overwritten since loan time) falls back to inferring
        freshness from the current stored contents, which is what
        :meth:`write` would see, and commits nothing of the dead
        handle.
        """
        if block_id not in self.backend:
            raise InvalidBlockError(f"access to unknown block {block_id}")
        gen = self._gen.get(block_id, 0)
        loan = self._loans.pop(block_id, None)
        live = loan is not None and loan[0] == gen
        fresh = loan[1] if live else self._is_fresh(block_id)
        if block is not None:
            if block.capacity_words != self.b:
                raise InvalidBlockError(
                    f"block capacity {block.capacity_words} != disk b {self.b}"
                )
            self.backend.commit(block_id, block)
        elif live:
            self.backend.commit(block_id, loan[2])
        self._gen[block_id] = gen + 1
        self.stats.record_write(block_id, fresh=fresh)

    @contextlib.contextmanager
    def modify(self, block_id: int) -> Iterator[Block]:
        """Read-modify-write ``block_id`` (one I/O under the paper policy).

        Copy-light: yields the loaned block handle and commits the
        mutation on exit, charging read + write exactly as the copying
        path would (the write combines under the footnote-2 policy).
        If the body raises, the block is rolled back to its pre-entry
        contents — an aborted modify must not silently mutate the disk.
        """
        blk = self.load(block_id)
        backup = blk.copy()
        try:
            yield blk
        except BaseException:
            self.backend.commit(block_id, backup)
            self._loans.pop(block_id, None)
            raise
        self.store(block_id)

    def peek(self, block_id: int, *, copy: bool = True) -> Block:
        """Inspect a block **without charging I/O** (instrumentation only).

        Used by the lower-bound machinery to take layout snapshots; never
        by the data structures themselves.  ``copy=False`` returns the
        backend's handle for read-only bulk instrumentation.
        """
        blk = self._fetch(block_id)
        return blk.copy() if copy else blk

    def scan(
        self, block_ids: list[int], visit: Callable[[int, Block], None] | None = None
    ) -> list[Block]:
        """Read a sequence of blocks, charging one I/O each.

        The ``n`` reads are charged in one bulk :meth:`IOStats.record_reads`
        call; the returned blocks are backend handles (read-only by
        convention — use :meth:`read` for mutable copies).
        """
        fetch = self.backend.fetch
        try:
            out = [fetch(bid) for bid in block_ids]
        except KeyError as exc:
            raise InvalidBlockError(f"access to unknown block {exc.args[0]}") from None
        self._charge_stream(block_ids)
        if visit is not None:
            for bid, blk in zip(block_ids, out):
                visit(bid, blk)
        return out

    def probe_record(self, block_id: int, key: int) -> bool:
        """Charged single-block membership probe (one read I/O).

        Equivalent to ``key in read(bid, copy=False)`` — one charged
        read, pending-RMW block updated — but answered by the backend's
        record-level :meth:`~StorageBackend.contains_key`, so the arena
        backend does not materialise a :class:`Block` per probe.  The
        per-key probe loops (bucket walks of lookups and deletes) use
        this for chain-free buckets.
        """
        backend = self.backend
        if block_id not in backend:
            raise InvalidBlockError(f"access to unknown block {block_id}")
        self.stats.record_read(block_id)
        return backend.contains_key(block_id, key)

    def remove_record(self, block_id: int, key: int) -> bool:
        """Charged single-block delete probe: read + RMW write on a hit.

        Equivalent, counter for counter, to the copy-light cycle
        ``blk = load(bid); hit = blk.remove(key); store(bid) if hit``
        — one charged read, then (only on a hit) one charged write that
        combines under the footnote-2 policy — but executed through the
        backend's record-level :meth:`~StorageBackend.remove_key`, so
        no :class:`Block` handle is materialised.  The per-key delete
        loops use this for every bucket block they probe.  A hit block
        held the key, so its write is never a first write.
        """
        backend = self.backend
        if block_id not in backend:
            raise InvalidBlockError(f"access to unknown block {block_id}")
        self.stats.record_read(block_id)
        if not backend.remove_key(block_id, key):
            return False
        self._gen[block_id] = self._gen.get(block_id, 0) + 1
        self._loans.pop(block_id, None)
        self.stats.record_write(block_id)
        return True

    def read_records(self, block_ids: list[int]) -> list[int]:
        """Read a sequence of blocks, returning their concatenated records.

        Charges exactly like :meth:`scan` (one read per block, in one
        bulk call) without materialising :class:`Block` handles; chain
        drains use it.
        """
        records = self.backend.records
        out: list[int] = []
        try:
            for bid in block_ids:
                out.extend(records(bid))
        except KeyError as exc:
            raise InvalidBlockError(f"access to unknown block {exc.args[0]}") from None
        self._charge_stream(block_ids)
        return out

    def _charge_stream(self, block_ids: list[int]) -> None:
        """Charge the reads of a streaming bulk read (:meth:`scan`,
        :meth:`read_records`): one per block, in one bulk call."""
        self.stats.record_reads(block_ids)

    # -- bulk charging (batch-engine internals) -------------------------------

    def charge_walk(self, n: int, rounds: Rounds) -> np.ndarray:
        """Charge a batch lookup's probe walk; return each key's charged reads.

        ``rounds`` lists ``(key positions, block ids)`` groups of the
        batch's ``n`` keys in the order they were probed (one id per
        position, or one id the whole group probed), so each key's probes
        keep their walk order; the per-key scalar order is by key
        position, then walk order.  Charges exactly what
        :meth:`probe_record` (or :meth:`read`) of each id in that order
        would: here one read per probe, in one bulk call that leaves the
        scalar walk's last probe as the pending read-modify-write block.
        """
        if not rounds:
            return np.zeros(n, dtype=np.int64)
        pos = np.concatenate([p for p, _ in rounds])
        if pos.size:
            # The scalar walk's last probe is the highest position's last
            # entry; find the round that recorded it.
            at = pos.size - 1 - int(np.argmax(pos[::-1]))
            for p, ids in rounds:
                if at < len(p):
                    break
                at -= len(p)
            last = ids if np.ndim(ids) == 0 else ids[at]
            self.stats.record_read_run(pos.size, int(last))
        return np.bincount(pos, minlength=n)

    def charge_sweep(
        self,
        block_ids: list[int],
        written: list[bool] | None = None,
        fresh: list[bool] | None = None,
        *,
        read: bool = True,
    ) -> None:
        """Charge a sweep: each block read once, in order, and rewritten
        right after its read where ``written`` says so (every block when
        ``None``; ``fresh`` marks first writes).

        The reference is the per-block loop of :meth:`read_records` (unless
        ``read`` is false) and :meth:`store`, which the bucket-row sweeps
        of :mod:`repro.tables.overflow` replace: call it before their
        uncharged mutations.  With ``written`` the hits and no ``fresh``
        it is also the loop of :meth:`remove_record` a delete walk
        replaces, which calls it after :meth:`remove_uncharged`.  Uncached
        it is O(1) counter arithmetic (:meth:`IOStats.record_sweep`).
        """
        self.stats.record_sweep(block_ids, written, fresh, read=read)

    def count_negative_hits(self, count: int) -> None:
        """Count probes a Bloom filter answered without any I/O.

        A no-op here; a buffer pool counts them as ``negative_hits``.
        """

    # -- uncharged record-level API (batch-engine internals) -----------------
    #
    # These mutators bump the generation tag (they are committed writes
    # as far as loan staleness is concerned) but charge nothing: callers
    # charge through :meth:`charge_walk` / :meth:`charge_sweep`.

    def records_arr(self, block_id: int) -> np.ndarray:
        """The records of ``block_id`` as a uint64 array (uncharged, read-only)."""
        return self.backend.records_arr(block_id)

    def keys_in(self, block_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Pairwise record membership, ``keys[i]`` in ``block_ids[i]``
        (uncharged; the batch lookups' address-then-gather probe)."""
        return self.backend.contains_keys(block_ids, keys)

    def remove_uncharged(self, block_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Pairwise record removal, ``keys[i]`` from ``block_ids[i]`` in
        order (uncharged; the batch deletes' address-then-remove probe).

        Returns the hit mask; each hit is a committed write of its block.
        Unlike the other mutators it leaves a cache's frames alone: the
        walk then charges through :meth:`charge_sweep`, which must see
        each block's residency as the per-key loop would and drops the
        frames of the blocks written.
        """
        hit = self.backend.remove_keys(block_ids, keys)
        gen, loans = self._gen, self._loans
        for bid in block_ids[hit].tolist():
            gen[bid] = gen.get(bid, 0) + 1
            loans.pop(bid, None)
        return hit

    def append_uncharged(self, block_id: int, items: list[int]) -> None:
        """Append ``items`` to ``block_id`` without charging (bulk engine)."""
        self.backend.append(block_id, items)
        self._gen[block_id] = self._gen.get(block_id, 0) + 1

    def replace_uncharged(self, block_id: int, items: list[int]) -> None:
        """Overwrite ``block_id``'s records without charging (bulk engine)."""
        self.backend.replace(block_id, items)
        self._gen[block_id] = self._gen.get(block_id, 0) + 1

    def drain_uncharged(self, block_id: int) -> list[int]:
        """Empty ``block_id`` and return its records without charging.

        The generation is bumped only when something was drained — an
        empty block was not written, so outstanding loans stay valid,
        matching the scalar read-then-skip behaviour.
        """
        out = self.backend.drain(block_id)
        if out:
            self._gen[block_id] = self._gen.get(block_id, 0) + 1
        return out

    # -- introspection -------------------------------------------------------

    def block_ids(self) -> list[int]:
        """All live block ids (instrumentation; no I/O charged)."""
        return self.backend.ids()

    def blocks_in_use(self) -> int:
        """Number of live blocks, the denominator of the load factor."""
        return self.backend.count()

    def nonempty_blocks(self) -> int:
        return self.backend.nonempty()

    def words_stored(self) -> int:
        return self.backend.words_stored()

    def __contains__(self, block_id: int) -> bool:
        return block_id in self.backend

    def _fetch(self, block_id: int) -> Block:
        try:
            return self.backend.fetch(block_id)
        except KeyError:
            raise InvalidBlockError(f"access to unknown block {block_id}") from None

    def _is_fresh(self, block_id: int) -> bool:
        try:
            return self.backend.is_fresh(block_id)
        except KeyError:
            raise InvalidBlockError(f"access to unknown block {block_id}") from None
