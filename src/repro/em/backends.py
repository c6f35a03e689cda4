"""Pluggable storage backends: *where* blocks live, decoupled from the disk.

:class:`~repro.em.disk.Disk` owns the I/O *accounting* (charged reads
and writes, footnote-2 combining, the cache's hit-or-miss decision); a
:class:`StorageBackend` owns the block *store*.  The split lets one
charged I/O discipline run over different physical representations:

* :class:`MappingBackend` — the historical dict-of-:class:`Block`
  store.  ``fetch`` hands out the live stored object (the disk copies
  it for a caller that mutates) and ``commit`` stores the given one.
* :class:`ArenaBackend` — fixed-width records in preallocated numpy
  arrays (one row per block slot, an int64 length vector, a free-slot
  list).  Record-level operations (:meth:`StorageBackend.records_arr`,
  :meth:`StorageBackend.append`, :meth:`StorageBackend.replace`,
  :meth:`StorageBackend.drain`) touch the arena directly — no per-block
  Python object is materialised on the batch-engine fast paths; the
  row primitives (:meth:`StorageBackend.records_many`,
  :meth:`StorageBackend.append_many`, :meth:`StorageBackend.replace_many`,
  :meth:`StorageBackend.drain_many`) move a whole run of blocks of a
  bulk merge, drain or rebuild in one row gather or scatter; and
  :meth:`StorageBackend.contains_keys` answers a whole probe round of
  the batch lookups' address-then-gather walk (each key against the one
  block its hash addresses, at every batch size below the walk's
  gather/sort crossover of about ``10 · stored`` gathered records) with
  one row gather, and :meth:`StorageBackend.remove_keys` a round of the
  batch deletes' walk the same way.  Whole :class:`Block` handles are
  materialised only for the scalar whole-block discipline
  (``read``/``load``/``store``).
* :class:`DurableArenaBackend` — the arena with its record matrix and
  length vector memory-mapped onto files (plain ndarray views over
  shared ``mmap`` buffers, so hot paths stay off the ``np.memmap``
  subclass dispatch), plus an
  atomic ``flush``/``open`` cycle for the durability subsystem
  (snapshots, crash recovery — see :mod:`repro.service.recovery`).

The contract every backend must honour — pinned by the backend-parity
suite in ``tests/test_batch_parity.py`` — is that **block contents and
I/O charges are bit-identical across backends**: the backend never
charges anything itself (charging stays in ``Disk``/``IOStats``), and
its record-level primitives are observationally equal to the
fetch/mutate/commit cycle they shortcut.

Backends are selected by name through
:class:`~repro.em.storage.EMContext` (``make_context(backend="arena")``)
or :data:`~repro.core.config.StorageConfig`; :func:`make_backend` is the
registry.
"""

from __future__ import annotations

import abc
import contextlib
import itertools
import mmap
import os
import pickle
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .block import Block
from .errors import ConfigurationError

__all__ = [
    "StorageBackend",
    "MappingBackend",
    "ArenaBackend",
    "DurableArenaBackend",
    "BACKENDS",
    "make_backend",
]


def _id_list(block_ids: Sequence[int] | np.ndarray) -> list[int]:
    """Block ids as a list of Python ints."""
    return block_ids.tolist() if isinstance(block_ids, np.ndarray) else list(block_ids)


def _check_fits(lengths: np.ndarray, cap: int) -> None:
    """Raise ``ValueError`` if a block of a run would hold more than
    ``cap`` records: ``lengths`` are the lengths a write leaves."""
    over = np.flatnonzero(lengths > cap)
    if over.size:
        i = int(over[0])
        raise ValueError(
            f"block {i} of the run would hold {int(lengths[i])} records, "
            f"over its capacity of {cap}"
        )


class StorageBackend(abc.ABC):
    """Stores the blocks of one :class:`~repro.em.disk.Disk`.

    All methods are **uncharged** primitives; the disk (or the batch
    engine's deferred-charging helpers) records the I/Os.  ``KeyError``
    is raised for unknown block ids — the disk translates it to
    :class:`~repro.em.errors.InvalidBlockError`.
    """

    #: Registry name, set by subclasses.
    name: str

    def __init__(self, block_size_words: int, record_words: int = 1) -> None:
        self.b = block_size_words
        self.record_words = record_words

    # -- lifecycle ----------------------------------------------------------

    @abc.abstractmethod
    def create(self, block_id: int) -> None:
        """Register a fresh empty block under ``block_id``."""

    def create_many(self, block_ids: Iterable[int]) -> None:
        for bid in block_ids:
            self.create(bid)

    @abc.abstractmethod
    def delete(self, block_id: int) -> None:
        """Forget ``block_id`` (KeyError when unknown)."""

    @abc.abstractmethod
    def __contains__(self, block_id: int) -> bool: ...

    # -- whole-block access --------------------------------------------------

    @abc.abstractmethod
    def fetch(self, block_id: int) -> Block:
        """A :class:`Block` handle on the stored contents.

        The mapping backend returns the live stored object; the arena
        materialises one.  Callers treat it as read-only; a mutation is
        stored by :meth:`commit`.
        """

    @abc.abstractmethod
    def commit(self, block_id: int, block: Block) -> None:
        """Make ``block``'s records and header the stored contents.

        The backend may keep ``block`` itself: the caller hands it over.
        """

    # -- record-level primitives (the batch-engine fast paths) ---------------

    @abc.abstractmethod
    def length(self, block_id: int) -> int:
        """Number of stored records."""

    @abc.abstractmethod
    def records(self, block_id: int) -> list[int]:
        """The stored records as a list of Python ints (read-only)."""

    @abc.abstractmethod
    def records_arr(self, block_id: int) -> np.ndarray:
        """The stored records as a read-only ``uint64`` array.

        The arena returns a zero-copy view; callers must not mutate.
        """

    @abc.abstractmethod
    def contains_key(self, block_id: int, key: int) -> bool: ...

    def contains_keys(self, block_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """``contains_key(block_ids[i], keys[i])`` for every ``i``, as a bool array.

        The batch lookups' address-then-gather probe: each key against
        the one block its hash addresses.  This default makes one
        :meth:`contains_key` call per pair, in order, so decorators see
        one data-path read per probed block.
        """
        pairs = map(self.contains_key, block_ids.tolist(), keys.tolist())
        return np.fromiter(pairs, dtype=bool, count=len(keys))

    @abc.abstractmethod
    def append(self, block_id: int, items: list[int]) -> None:
        """Append ``items`` (caller guarantees capacity)."""

    @abc.abstractmethod
    def replace(self, block_id: int, items: list[int]) -> None:
        """Overwrite the records wholesale (header untouched)."""

    @abc.abstractmethod
    def drain(self, block_id: int) -> list[int]:
        """Return the stored records and clear them (header untouched)."""

    @abc.abstractmethod
    def remove_key(self, block_id: int, key: int) -> bool:
        """Remove the first occurrence of ``key``; report whether present.

        Order-preserving, exactly like :meth:`Block.remove` on the
        stored contents — the deletion fast paths rely on the resulting
        record order matching the whole-block path bit for bit.
        """

    def remove_keys(self, block_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """``remove_key(block_ids[i], keys[i])`` for every ``i`` in order, as a bool array.

        The batch deletes' address-then-remove probe.  This default makes
        one :meth:`remove_key` call per pair, in order, so decorators see
        one data-path write per probed block.
        """
        pairs = map(self.remove_key, block_ids.tolist(), keys.tolist())
        return np.fromiter(pairs, dtype=bool, count=len(keys))

    @abc.abstractmethod
    def is_fresh(self, block_id: int) -> bool:
        """Never written: no records and no header (allocation accounting)."""

    # -- row primitives (a run of blocks per call) ---------------------------
    #
    # The bulk merges, drains and rebuilds of :mod:`repro.tables.overflow`
    # move a run of chain-free buckets per call.  Block ids within a call
    # are distinct, and ``items[bounds[i] : bounds[i + 1]]`` (``uint64``)
    # is block ``i``'s group.  Each default is the loop of its per-block
    # primitive, in block order, so a decorator sees one data-path call per
    # block; the arena overrides them with one gather or scatter.

    def length_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`length` of every block, as an ``int64`` array."""
        ids = _id_list(block_ids)
        return np.fromiter(map(self.length, ids), np.int64, count=len(ids))

    def is_fresh_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`is_fresh` of every block, as a bool array."""
        ids = _id_list(block_ids)
        return np.fromiter(map(self.is_fresh, ids), bool, count=len(ids))

    def records_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """The records of every block, concatenated in block order, as a
        ``uint64`` array the caller owns."""
        rows = map(self.records, _id_list(block_ids))
        return np.fromiter(itertools.chain.from_iterable(rows), np.uint64)

    def append_many(
        self, block_ids: Sequence[int] | np.ndarray, items: np.ndarray, bounds
    ) -> None:
        """:meth:`append` each group to its block.

        Raises ``ValueError``, changing nothing, when a group would
        overflow its block.
        """
        ids, bounds = _id_list(block_ids), np.asarray(bounds)
        cap = self.b // self.record_words
        _check_fits(self.length_many(ids) + np.diff(bounds), cap)
        for bid, lo, hi in zip(ids, bounds[:-1].tolist(), bounds[1:].tolist()):
            self.append(bid, items[lo:hi].tolist())

    def replace_many(
        self, block_ids: Sequence[int] | np.ndarray, items: np.ndarray, bounds
    ) -> None:
        """:meth:`replace` each block's records by its group.

        Raises ``ValueError``, changing nothing, when a group would
        overflow its block.
        """
        ids, bounds = _id_list(block_ids), np.asarray(bounds)
        _check_fits(np.diff(bounds), self.b // self.record_words)
        for bid, lo, hi in zip(ids, bounds[:-1].tolist(), bounds[1:].tolist()):
            self.replace(bid, items[lo:hi].tolist())

    def drain_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """:meth:`drain` every block; their records concatenated in block
        order, as a ``uint64`` array."""
        rows = map(self.drain, _id_list(block_ids))
        return np.fromiter(itertools.chain.from_iterable(rows), np.uint64)

    # -- introspection -------------------------------------------------------

    @abc.abstractmethod
    def ids(self) -> list[int]: ...

    @abc.abstractmethod
    def count(self) -> int: ...

    @abc.abstractmethod
    def nonempty(self) -> int: ...

    @abc.abstractmethod
    def words_stored(self) -> int: ...


class MappingBackend(StorageBackend):
    """The dict-of-:class:`Block` store (the historical representation)."""

    name = "mapping"

    def __init__(self, block_size_words: int, record_words: int = 1) -> None:
        super().__init__(block_size_words, record_words)
        self._blocks: dict[int, Block] = {}

    # -- lifecycle ----------------------------------------------------------

    def create(self, block_id: int) -> None:
        self._blocks[block_id] = Block(self.b, record_words=self.record_words)

    def create_many(self, block_ids: Iterable[int]) -> None:
        b, rw = self.b, self.record_words
        self._blocks.update((bid, Block(b, record_words=rw)) for bid in block_ids)

    def delete(self, block_id: int) -> None:
        del self._blocks[block_id]

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    # -- whole-block access ---------------------------------------------------

    def fetch(self, block_id: int) -> Block:
        return self._blocks[block_id]

    def commit(self, block_id: int, block: Block) -> None:
        if block_id not in self._blocks:
            raise KeyError(block_id)
        self._blocks[block_id] = block

    # -- record-level primitives -----------------------------------------------

    def length(self, block_id: int) -> int:
        return len(self._blocks[block_id])

    def records(self, block_id: int) -> list[int]:
        return self._blocks[block_id]._data

    def records_arr(self, block_id: int) -> np.ndarray:
        return np.asarray(self._blocks[block_id]._data, dtype=np.uint64)

    def contains_key(self, block_id: int, key: int) -> bool:
        return key in self._blocks[block_id]._data

    def append(self, block_id: int, items: list[int]) -> None:
        blk = self._blocks[block_id]
        blk._data = blk._data + items

    def replace(self, block_id: int, items: list[int]) -> None:
        self._blocks[block_id]._data = items

    def drain(self, block_id: int) -> list[int]:
        blk = self._blocks[block_id]
        out = blk._data
        blk._data = []
        return out

    def remove_key(self, block_id: int, key: int) -> bool:
        return self._blocks[block_id].remove(key)

    def is_fresh(self, block_id: int) -> bool:
        blk = self._blocks[block_id]
        return not blk._data and not blk.header

    # -- introspection ----------------------------------------------------------

    def ids(self) -> list[int]:
        return sorted(self._blocks)

    def count(self) -> int:
        return len(self._blocks)

    def nonempty(self) -> int:
        return sum(1 for blk in self._blocks.values() if blk._data)

    def words_stored(self) -> int:
        return sum(blk.used_words for blk in self._blocks.values())


class ArenaBackend(StorageBackend):
    """Contiguous numpy arenas of fixed-width records.

    One preallocated ``(slots, records_per_block)`` ``uint64`` matrix
    plus an ``int64`` length vector; block ids map to arena slots
    through an indirection dict so freed slots are recycled and the
    arena stays as large as the *live* block count, not the historical
    allocation count.  Headers (O(1) structural words: chain pointers,
    overflow bits) live in a side dict keyed by block id.
    """

    name = "arena"

    def __init__(
        self,
        block_size_words: int,
        record_words: int = 1,
        *,
        initial_slots: int = 64,
    ) -> None:
        super().__init__(block_size_words, record_words)
        self._cap = max(1, block_size_words // record_words)
        self._data = np.zeros((initial_slots, self._cap), dtype=np.uint64)
        self._len = np.zeros(initial_slots, dtype=np.int64)
        self._slot: dict[int, int] = {}
        self._free_slots: list[int] = []
        self._headers: dict[int, dict] = {}

    # -- slot management -------------------------------------------------------

    def _grow(self, needed: int) -> None:
        cur = self._data.shape[0]
        new = max(2 * cur, needed)
        data = np.zeros((new, self._cap), dtype=np.uint64)
        data[:cur] = self._data
        self._data = data
        length = np.zeros(new, dtype=np.int64)
        length[:cur] = self._len
        self._len = length

    def _new_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = len(self._slot) + len(self._free_slots)
        if slot >= self._data.shape[0]:
            self._grow(slot + 1)
        return slot

    # -- lifecycle ----------------------------------------------------------

    def create(self, block_id: int) -> None:
        slot = self._new_slot()
        self._len[slot] = 0
        self._slot[block_id] = slot

    def delete(self, block_id: int) -> None:
        self._free_slots.append(self._slot.pop(block_id))
        self._headers.pop(block_id, None)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._slot

    # -- whole-block access ---------------------------------------------------

    def fetch(self, block_id: int) -> Block:
        slot = self._slot[block_id]
        n = int(self._len[slot])
        return Block(
            self.b,
            record_words=self.record_words,
            data=self._data[slot, :n].tolist(),
            header=self._headers.get(block_id),
        )

    def commit(self, block_id: int, block: Block) -> None:
        slot = self._slot[block_id]
        data = block._data
        n = len(data)
        self._data[slot, :n] = data
        self._len[slot] = n
        if block.header:
            self._headers[block_id] = dict(block.header)
        else:
            self._headers.pop(block_id, None)

    # -- record-level primitives -----------------------------------------------

    def length(self, block_id: int) -> int:
        return int(self._len[self._slot[block_id]])

    def records(self, block_id: int) -> list[int]:
        slot = self._slot[block_id]
        return self._data[slot, : self._len[slot]].tolist()

    def records_arr(self, block_id: int) -> np.ndarray:
        slot = self._slot[block_id]
        return self._data[slot, : self._len[slot]]

    def contains_key(self, block_id: int, key: int) -> bool:
        slot = self._slot[block_id]
        return bool((self._data[slot, : self._len[slot]] == key).any())

    def _slots_of(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        ids = _id_list(block_ids)
        return np.fromiter(map(self._slot.__getitem__, ids), np.int64, count=len(ids))

    def contains_keys(self, block_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """One row gather: ``data[slots, :max_len] == keys[:, None]``.

        Records at or past a block's length are stale, so a key counts
        as found only when its first match lies before that length.
        """
        slots = self._slots_of(block_ids)
        lengths = self._len[slots]
        # At least one column, so argmax never meets an empty row.
        eq = self._data[slots, : max(int(lengths.max(initial=0)), 1)] == keys[:, None]
        first = eq.argmax(axis=1)
        return eq[np.arange(len(keys)), first] & (first < lengths)

    def append(self, block_id: int, items: list[int]) -> None:
        slot = self._slot[block_id]
        n = int(self._len[slot])
        self._data[slot, n : n + len(items)] = items
        self._len[slot] = n + len(items)

    def replace(self, block_id: int, items: list[int]) -> None:
        slot = self._slot[block_id]
        self._data[slot, : len(items)] = items
        self._len[slot] = len(items)

    def drain(self, block_id: int) -> list[int]:
        slot = self._slot[block_id]
        out = self._data[slot, : self._len[slot]].tolist()
        self._len[slot] = 0
        return out

    def remove_key(self, block_id: int, key: int) -> bool:
        slot = self._slot[block_id]
        n = int(self._len[slot])
        if n == 0:
            return False
        row = self._data[slot]
        eq = row[:n] == key
        i = int(eq.argmax())
        if not eq[i]:
            return False
        # Shift the tail left one record: same order Block.remove leaves.
        row[i : n - 1] = row[i + 1 : n]
        self._len[slot] = n - 1
        return True

    #: Pairs per :meth:`remove_keys` gather: at most 1024 × b records.
    _REMOVE_CHUNK = 1024

    def remove_keys(self, block_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """One row gather finds every pair; each hit's tail shifts left.

        A block's records are distinct (every table keeps set semantics),
        so a repeated pair finds the record its first occurrence removes
        and misses, as in the loop.  Chunks of :attr:`_REMOVE_CHUNK` pairs
        run in order, bounding the gather.
        """
        slots = self._slots_of(block_ids)
        hit = np.zeros(len(keys), dtype=bool)
        step = self._REMOVE_CHUNK
        for lo in range(0, len(keys), step):
            hit[lo : lo + step] = self._remove_gathered(
                slots[lo : lo + step], keys[lo : lo + step]
            )
        return hit

    def _remove_gathered(self, slots: np.ndarray, keys: np.ndarray) -> np.ndarray:
        lengths = self._len[slots]
        width = max(int(lengths.max(initial=0)), 1)
        eq = self._data[slots, :width] == keys[:, None]
        first = eq.argmax(axis=1)
        hit = eq[np.arange(len(keys)), first] & (first < lengths)
        at = np.flatnonzero(hit)
        # Block by block, last record first, so no shift moves a record a
        # later one in the same block still has to find; a repeated pair
        # sorts right after its first occurrence.  Shifting up to the
        # block's old length only moves stale records past the new one.
        base = slots[at] * self._cap
        order = np.argsort(base + (self._cap - 1 - first[at]), kind="stable")
        at, base = at[order], base[order]
        start = (base + first[at]).tolist()
        end = (base + lengths[at] - 1).tolist()
        flat = self._data.reshape(-1)  # a view: the arena is C-contiguous
        done = -1
        for i, s, e in zip(at.tolist(), start, end):
            if s == done:
                hit[i] = False
            else:
                flat[s:e] = flat[s + 1 : e + 1]
                done = s
        np.subtract.at(self._len, slots[hit], 1)
        return hit

    def is_fresh(self, block_id: int) -> bool:
        return (
            self._len[self._slot[block_id]] == 0
            and block_id not in self._headers
        )

    # -- row primitives: one gather or scatter per run ------------------------

    def length_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        return self._len[self._slots_of(block_ids)]

    def is_fresh_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        ids = _id_list(block_ids)
        headed = np.fromiter(map(self._headers.__contains__, ids), bool, count=len(ids))
        return (self.length_many(ids) == 0) & ~headed

    def records_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        return self._gather(self._slots_of(block_ids))

    def drain_many(self, block_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        slots = self._slots_of(block_ids)
        out = self._gather(slots)
        self._len[slots] = 0
        return out

    def append_many(
        self, block_ids: Sequence[int] | np.ndarray, items: np.ndarray, bounds
    ) -> None:
        slots = self._slots_of(block_ids)
        self._scatter(slots, self._len[slots], items, bounds)

    def replace_many(
        self, block_ids: Sequence[int] | np.ndarray, items: np.ndarray, bounds
    ) -> None:
        self._scatter(self._slots_of(block_ids), 0, items, bounds)

    def _gather(self, slots: np.ndarray) -> np.ndarray:
        """The live records of ``slots``, concatenated in slot order."""
        lengths = self._len[slots]
        rows = self._data[slots, : int(lengths.max(initial=0))]
        return rows[np.arange(rows.shape[1]) < lengths[:, None]]

    def _scatter(self, slots: np.ndarray, start, items: np.ndarray, bounds) -> None:
        """Write group ``i`` of ``items`` into ``slots[i]`` from record
        ``start`` (per slot, or one offset for all) on, and set each
        length to the group's end; check every group fits first."""
        bounds = np.asarray(bounds, dtype=np.int64)
        counts = np.diff(bounds)
        ends = start + counts
        _check_fits(ends, self._cap)
        rows = np.repeat(slots, counts)
        cols = np.arange(bounds[0], bounds[-1]) - np.repeat(bounds[:-1] - start, counts)
        self._data[rows, cols] = items[bounds[0] : bounds[-1]]
        self._len[slots] = ends

    # -- introspection ----------------------------------------------------------

    def ids(self) -> list[int]:
        return sorted(self._slot)

    def count(self) -> int:
        return len(self._slot)

    def nonempty(self) -> int:
        live = np.fromiter(self._slot.values(), dtype=np.int64, count=len(self._slot))
        return int(np.count_nonzero(self._len[live])) if live.size else 0

    def words_stored(self) -> int:
        live = np.fromiter(self._slot.values(), dtype=np.int64, count=len(self._slot))
        return int(self._len[live].sum()) * self.record_words if live.size else 0


class DurableArenaBackend(ArenaBackend):
    """An :class:`ArenaBackend` whose arenas live in memory-mapped files.

    Drop-in for the in-memory arena — same slot management, same
    record-level primitives, same I/O-accounting invariance — but the
    ``(slots, records_per_block)`` record matrix and the length vector
    are memory-mapped onto files under ``path``:

    * ``arena.u64``   — the record matrix, row-major ``uint64``;
    * ``lengths.i64`` — per-slot record counts, ``int64``;
    * ``meta.pkl``    — everything O(1)-per-block that is not
      fixed-width (slot map, free list, headers),
      written atomically (tmp + fsync + ``os.replace``) by
      :meth:`flush`.

    Mutations hit the mapped pages immediately (so a hard crash leaves
    a possibly-torn file — recovery must come from a snapshot + journal,
    never from a live arena file); :meth:`flush` makes the current state
    durable and reloadable via :meth:`open`.

    When ``path`` is omitted a private temporary directory is created
    (and removed when the backend is garbage collected), which is what
    the ``make_backend("durable-arena", ...)`` registry path and the
    per-shard disks of a service use.
    """

    name = "durable-arena"

    _DATA_FILE = "arena.u64"
    _LEN_FILE = "lengths.i64"
    _META_FILE = "meta.pkl"

    def __init__(
        self,
        block_size_words: int,
        record_words: int = 1,
        *,
        path: str | Path | None = None,
        initial_slots: int = 64,
    ) -> None:
        super().__init__(
            block_size_words, record_words, initial_slots=initial_slots
        )
        if path is None:
            self.path = Path(tempfile.mkdtemp(prefix="repro-durable-arena-"))
            self._cleanup = weakref.finalize(
                self, shutil.rmtree, str(self.path), ignore_errors=True
            )
        else:
            self.path = Path(path)
            self.path.mkdir(parents=True, exist_ok=True)
            self._cleanup = None
        # Re-home the freshly built in-memory arenas onto mapped files.
        self._mmaps: dict[str, mmap.mmap] = {}
        slots = self._data.shape[0]
        self._data = self._map(self._DATA_FILE, np.uint64, (slots, self._cap))
        self._len = self._map(self._LEN_FILE, np.int64, (slots,))

    # -- file plumbing -------------------------------------------------------

    def _map(self, name: str, dtype, shape: tuple) -> np.ndarray:
        """Map ``name`` at ``shape``, zero-extending the file as needed.

        Returns a *plain* ndarray view over a shared ``mmap.mmap``
        buffer rather than an ``np.memmap``: mutations hit the mapped
        pages identically, but slicing stays on numpy's ndarray fast
        path (the memmap subclass pays ``__array_finalize__`` dispatch
        on every view, which dominates record-level hot loops).

        Extending only ever appends whole rows at the end of the file
        (the matrix is row-major and grows in slots), so existing bytes
        keep their meaning across every remap; MAP_SHARED coherence
        makes old and new mappings of the same file interchangeable.
        """
        target = Path(self.path, name)
        nbytes = int(np.dtype(dtype).itemsize * np.prod(shape))
        with open(target, "ab") as fh:
            if fh.tell() < nbytes:
                fh.truncate(nbytes)
        with open(target, "r+b") as fh:
            mm = mmap.mmap(fh.fileno(), nbytes)
        self._mmaps[name] = mm
        return np.frombuffer(mm, dtype=dtype).reshape(shape)

    def _grow(self, needed: int) -> None:
        cur = self._data.shape[0]
        new = max(2 * cur, needed)
        self._data = self._map(self._DATA_FILE, np.uint64, (new, self._cap))
        self._len = self._map(self._LEN_FILE, np.int64, (new,))

    def flush(self) -> None:
        """Make the current state durable: msync arenas, fsync metadata."""
        for mm in self._mmaps.values():
            mm.flush()
        meta = {
            "b": self.b,
            "record_words": self.record_words,
            "cap": self._cap,
            "slots": int(self._data.shape[0]),
            "slot": dict(self._slot),
            "free_slots": list(self._free_slots),
            "headers": {bid: dict(h) for bid, h in self._headers.items()},
        }
        target = Path(self.path, self._META_FILE)
        fd, tmp = tempfile.mkstemp(dir=self.path, prefix=".meta-")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(meta, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def open(cls, path: str | Path) -> "DurableArenaBackend":
        """Reload a flushed arena from ``path`` (meta + mapped files)."""
        path = Path(path)
        with open(Path(path, cls._META_FILE), "rb") as fh:
            meta = pickle.load(fh)
        self = cls(
            meta["b"],
            meta["record_words"],
            path=path,
            initial_slots=meta["slots"],
        )
        self._slot = dict(meta["slot"])
        self._free_slots = list(meta["free_slots"])
        self._headers = {bid: dict(h) for bid, h in meta["headers"].items()}
        return self

    # -- pickling (snapshot/restore) -----------------------------------------
    #
    # A snapshot must capture the arena *contents*, not the mapping: the
    # live files may be torn by the crash being recovered from.  Pickle
    # therefore carries plain ndarrays; unpickling re-homes them onto a
    # fresh private directory, so a restored backend is durable again at
    # a new location and never aliases the crashed files.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_data"] = np.asarray(self._data).copy()
        state["_len"] = np.asarray(self._len).copy()
        state.pop("_cleanup", None)
        state.pop("_mmaps", None)
        state.pop("path", None)
        return state

    def __setstate__(self, state: dict) -> None:
        data = state.pop("_data")
        length = state.pop("_len")
        self.__dict__.update(state)
        self.path = Path(tempfile.mkdtemp(prefix="repro-durable-arena-"))
        self._cleanup = weakref.finalize(
            self, shutil.rmtree, str(self.path), ignore_errors=True
        )
        self._mmaps = {}
        self._data = self._map(self._DATA_FILE, np.uint64, data.shape)
        self._data[:] = data
        self._len = self._map(self._LEN_FILE, np.int64, length.shape)
        self._len[:] = length


#: Name -> backend class registry, the selection surface of
#: ``make_context(backend=...)`` and ``core.config.StorageConfig``.
BACKENDS: dict[str, type[StorageBackend]] = {
    MappingBackend.name: MappingBackend,
    ArenaBackend.name: ArenaBackend,
    DurableArenaBackend.name: DurableArenaBackend,
}


def make_backend(
    name: str, block_size_words: int, record_words: int = 1
) -> StorageBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown storage backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls(block_size_words, record_words)
