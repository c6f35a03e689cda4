"""The simulated disk.

The disk is an infinite array of :class:`~repro.em.block.Block` slots
addressed by integer block ids.  Every access goes through the charged
I/O methods, which update the shared :class:`~repro.em.iostats.IOStats`.
A convenience :meth:`modify` context manager expresses the ubiquitous
read-modify-write pattern and benefits from the footnote-2 combining in
the I/O policy.

The disk does not store blocks itself: a
:class:`~repro.em.backends.StorageBackend` does (the dict-of-``Block``
:class:`~repro.em.backends.MappingBackend` by default, or the numpy-arena
:class:`~repro.em.backends.ArenaBackend`).  The disk keeps everything
*accounting*: charged I/Os and the allocation id space.

One charged whole-block discipline: :meth:`read` and :meth:`load` hand
back private copies and :meth:`write` / :meth:`store` commit a block the
caller owns, so mutating memory-resident state never silently mutates
the disk.  :meth:`load` is the read of a read-modify-write, which the
:meth:`store` of the mutated copy completes; :meth:`read` with
``copy=False`` returns the backend's handle for read-only probes.

Every charged method charges through two per-block hooks:
:meth:`_charge_read` (one read; ``install=False`` for a read that must
leave no cache frame) and :meth:`_forget` (write-invalidate before a
block is written or freed; a no-op here).
:class:`~repro.em.cache.CachedDisk` overrides these two, the bulk
charges below and the memoised :meth:`probe_record`, and no other
charged method.

A third tier, the **uncharged record-level API** (:meth:`records_arr`,
:meth:`keys_in`, :meth:`remove_uncharged`, and the run forms
:meth:`append_run`, :meth:`replace_run` and :meth:`drain_run`, which
move a run of blocks as ``uint64`` arrays in one backend call), serves
the batch engine: it reads and mutates the backend directly — no
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
from typing import Iterator

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
    charging hooks.  Code above the disk calls the charged methods and
    never branches on the axis.

    Parameters
    ----------
    block_size_words:
        The model parameter ``b``.
    stats:
        Shared I/O counters; a fresh one is created when omitted.
    record_words:
        Words per record of every block on this disk.
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

    def allocate(self) -> int:
        """Reserve a fresh block id (no I/O is charged until first write)."""
        bid = self._next_id
        self._next_id += 1
        self.backend.create(bid)
        return bid

    def allocate_many(self, count: int) -> list[int]:
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
        self.backend.create_many(ids)
        return ids

    def free(self, block_id: int) -> None:
        """Release a block id; later access raises :class:`InvalidBlockError`."""
        self._forget(block_id)
        try:
            self.backend.delete(block_id)
        except KeyError:
            raise InvalidBlockError(f"free of unknown block {block_id}") from None

    # -- charging hooks --------------------------------------------------------

    def _charge_read(self, block_id: int, install: bool = True) -> None:
        """Charge one read of ``block_id``.

        ``install=False`` marks a read that leaves no cache frame behind
        (a streaming read, or the read of a read-modify-write); it
        matters to a cache only.
        """
        self.stats.record_read(block_id)

    def _forget(self, block_id: int) -> None:
        """Called before ``block_id`` is written or freed: a cache drops
        its frame (write-invalidate).  A no-op uncached."""

    # -- whole-block I/O -----------------------------------------------------

    def read(self, block_id: int, *, copy: bool = True) -> Block:
        """Fetch a block into memory, charging one read I/O.

        Returns a private copy; ``copy=False`` returns the backend's
        handle, read-only by convention.
        """
        blk = self._fetch(block_id)
        self._charge_read(block_id)
        return blk.copy() if copy else blk

    def load(self, block_id: int) -> Block:
        """The read of a read-modify-write: a private copy, charged as one
        read that leaves no cache frame.

        Mutating the copy changes nothing until :meth:`store` commits
        it; the store's write combines with this read under the
        footnote-2 policy.
        """
        blk = self._fetch(block_id).copy()
        self._charge_read(block_id, install=False)
        self._forget(block_id)
        return blk

    def write(self, block_id: int, block: Block) -> None:
        """Store a copy of ``block`` at ``block_id``, charging one write I/O."""
        self.store(block_id, block.copy())

    def store(self, block_id: int, block: Block) -> None:
        """Commit ``block`` as the contents of ``block_id``, charging one
        write I/O.

        Ownership transfers without a copy: the caller must not mutate
        ``block`` afterwards.  The very first write of a freshly
        allocated block is recorded as an allocation (chargeable per
        policy).
        """
        fresh = self._is_fresh(block_id)
        if block.capacity_words != self.b:
            raise InvalidBlockError(
                f"block capacity {block.capacity_words} != disk b {self.b}"
            )
        self._forget(block_id)
        self.backend.commit(block_id, block)
        self.stats.record_write(block_id, fresh=fresh)

    @contextlib.contextmanager
    def modify(self, block_id: int) -> Iterator[Block]:
        """Read-modify-write ``block_id`` (one I/O under the paper policy).

        :meth:`load` on entry, :meth:`store` of the yielded copy on exit.
        If the body raises, nothing is stored and the read stays charged.
        """
        blk = self.load(block_id)
        yield blk
        self.store(block_id, blk)

    def peek(self, block_id: int, *, copy: bool = True) -> Block:
        """Inspect a block **without charging I/O** (instrumentation only).

        Used by the lower-bound machinery to take layout snapshots; never
        by the data structures themselves.  ``copy=False`` returns the
        backend's handle for read-only bulk instrumentation.
        """
        blk = self._fetch(block_id)
        return blk.copy() if copy else blk

    def scan(self, block_ids: list[int]) -> list[Block]:
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
        self._charge_read(block_id)
        return backend.contains_key(block_id, key)

    def remove_record(self, block_id: int, key: int) -> bool:
        """Charged single-block delete probe: read + RMW write on a hit.

        Equivalent, counter for counter, to the cycle
        ``blk = load(bid); hit = blk.remove(key); store(bid, blk) if hit``
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
        self._charge_read(block_id, install=False)
        if not backend.remove_key(block_id, key):
            return False
        self._forget(block_id)
        self.stats.record_write(block_id)
        return True

    def read_records(self, block_ids: list[int]) -> list[int]:
        """Read a sequence of blocks, returning their concatenated records.

        Charges exactly like :meth:`scan` (one read per block, in one
        bulk call) without materialising :class:`Block` handles; chain
        drains use it.
        """
        return self.read_records_arr(block_ids).tolist()

    def read_records_arr(self, block_ids: list[int] | np.ndarray) -> np.ndarray:
        """:meth:`read_records` as one ``uint64`` array, read by one
        :meth:`~StorageBackend.records_many` call: a rebuild reads its
        whole old bucket row this way."""
        try:
            out = self.backend.records_many(block_ids)
        except KeyError as exc:
            raise InvalidBlockError(f"access to unknown block {exc.args[0]}") from None
        self._charge_stream(block_ids)
        return out

    # -- bulk charging (batch-engine internals) -------------------------------

    def _charge_stream(self, block_ids: list[int]) -> None:
        """Charge the reads of a streaming bulk read (:meth:`scan`,
        :meth:`read_records`): one per block, in one bulk call, installing
        no cache frame."""
        self.stats.record_reads(block_ids)

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
    # Callers charge what these do through :meth:`charge_walk` /
    # :meth:`charge_sweep`; the mutators still drop a cache's frame
    # (:meth:`_forget`), since they write the block.

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

        Returns the hit mask.  Unlike the other mutators it leaves a
        cache's frames alone: the walk then charges through
        :meth:`charge_sweep`, which must see each block's residency as
        the per-key loop would and drops the frames of the blocks written.
        """
        return self.backend.remove_keys(block_ids, keys)

    # The run forms below take a run of distinct block ids and, to write,
    # a ``uint64`` array ``items`` with group ``i`` at
    # ``items[bounds[i] : bounds[i + 1]]``: one backend call per run.

    def append_run(self, block_ids: np.ndarray, items: np.ndarray, bounds) -> None:
        """Append each group to its block without charging (bulk engine)."""
        self._forget_each(block_ids)
        self.backend.append_many(block_ids, items, bounds)

    def replace_run(self, block_ids: np.ndarray, items: np.ndarray, bounds) -> None:
        """Overwrite each block's records by its group without charging."""
        self._forget_each(block_ids)
        self.backend.replace_many(block_ids, items, bounds)

    def drain_run(self, block_ids: np.ndarray) -> np.ndarray:
        """Empty a run of blocks and return their records, concatenated,
        without charging.

        Draining an empty block writes nothing, so its cache frame stays.
        """
        backend = self.backend
        self._forget_each(np.asarray(block_ids)[backend.length_many(block_ids) > 0])
        return backend.drain_many(block_ids)

    def _forget_each(self, block_ids: np.ndarray) -> None:
        forget = self._forget
        for bid in np.asarray(block_ids).tolist():
            forget(bid)

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
