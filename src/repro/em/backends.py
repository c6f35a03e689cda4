"""Pluggable storage backends: *where* blocks live, decoupled from the disk.

:class:`~repro.em.disk.Disk` owns the I/O *accounting* (charged reads
and writes, generation-tagged loans, footnote-2 combining); a
:class:`StorageBackend` owns the block *store*.  The split lets one
charged I/O discipline run over different physical representations:

* :class:`MappingBackend` — the historical dict-of-:class:`Block`
  store.  ``fetch`` hands out the live stored object, so the copy-light
  loan API mutates in place and ``commit`` is usually a no-op.
* :class:`ArenaBackend` — fixed-width records in preallocated numpy
  arrays (one row per block slot, an int64 length vector, a free-slot
  list).  Record-level bulk operations (:meth:`StorageBackend.records_arr`,
  :meth:`StorageBackend.append`, :meth:`StorageBackend.replace`,
  :meth:`StorageBackend.drain`) touch the arena directly — no per-block
  Python object is materialised on the batch-engine fast paths — and
  :meth:`StorageBackend.contains_keys` answers a whole probe round of
  the batch lookups' address-then-gather walk (each key against the one
  block its hash addresses, at every batch size below the walk's
  gather/sort crossover of about ``10 · stored`` gathered records) with
  one row gather.  Whole :class:`Block` handles are materialised only
  for the scalar ``load``/``stage``/``store`` discipline.
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
import mmap
import os
import pickle
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Iterable

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
    def create(self, block_id: int, *, record_words: int | None = None) -> None:
        """Register a fresh empty block under ``block_id``."""

    def create_many(
        self, block_ids: Iterable[int], *, record_words: int | None = None
    ) -> None:
        for bid in block_ids:
            self.create(bid, record_words=record_words)

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
        materialises one.  Either way, mutations become durable only
        after :meth:`commit` (which for the mapping backend's live
        handle is naturally a no-op).
        """

    @abc.abstractmethod
    def commit(self, block_id: int, block: Block, *, copy: bool = False) -> None:
        """Make ``block``'s records and header the stored contents."""

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

    @abc.abstractmethod
    def is_fresh(self, block_id: int) -> bool:
        """Never written: no records and no header (allocation accounting)."""

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

    def create(self, block_id: int, *, record_words: int | None = None) -> None:
        self._blocks[block_id] = Block(
            self.b, record_words=record_words or self.record_words
        )

    def create_many(
        self, block_ids: Iterable[int], *, record_words: int | None = None
    ) -> None:
        rw = record_words or self.record_words
        b = self.b
        self._blocks.update((bid, Block(b, record_words=rw)) for bid in block_ids)

    def delete(self, block_id: int) -> None:
        del self._blocks[block_id]

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    # -- whole-block access ---------------------------------------------------

    def fetch(self, block_id: int) -> Block:
        return self._blocks[block_id]

    def commit(self, block_id: int, block: Block, *, copy: bool = False) -> None:
        if block_id not in self._blocks:
            raise KeyError(block_id)
        if block is not self._blocks[block_id]:
            self._blocks[block_id] = block.copy() if copy else block

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

    Blocks allocated with a non-default ``record_words`` fall back to
    plain :class:`Block` storage (the ``_odd`` dict) — no structure in
    this library uses per-block record widths, but the disk API allows
    them.
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
        self._odd: dict[int, Block] = {}

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

    def create(self, block_id: int, *, record_words: int | None = None) -> None:
        rw = record_words or self.record_words
        if rw != self.record_words:
            self._odd[block_id] = Block(self.b, record_words=rw)
            return
        slot = self._new_slot()
        self._len[slot] = 0
        self._slot[block_id] = slot

    def delete(self, block_id: int) -> None:
        if block_id in self._odd:
            del self._odd[block_id]
        else:
            self._free_slots.append(self._slot.pop(block_id))
        self._headers.pop(block_id, None)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._slot or block_id in self._odd

    # -- whole-block access ---------------------------------------------------

    def fetch(self, block_id: int) -> Block:
        odd = self._odd.get(block_id)
        if odd is not None:
            return odd
        slot = self._slot[block_id]
        n = int(self._len[slot])
        return Block(
            self.b,
            record_words=self.record_words,
            data=self._data[slot, :n].tolist(),
            header=self._headers.get(block_id),
        )

    def commit(self, block_id: int, block: Block, *, copy: bool = False) -> None:
        if block_id in self._odd:
            self._odd[block_id] = block.copy() if copy else block
            return
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
        odd = self._odd.get(block_id)
        if odd is not None:
            return len(odd)
        return int(self._len[self._slot[block_id]])

    def records(self, block_id: int) -> list[int]:
        odd = self._odd.get(block_id)
        if odd is not None:
            return odd._data
        slot = self._slot[block_id]
        return self._data[slot, : self._len[slot]].tolist()

    def records_arr(self, block_id: int) -> np.ndarray:
        odd = self._odd.get(block_id)
        if odd is not None:
            return np.asarray(odd._data, dtype=np.uint64)
        slot = self._slot[block_id]
        return self._data[slot, : self._len[slot]]

    def contains_key(self, block_id: int, key: int) -> bool:
        odd = self._odd.get(block_id)
        if odd is not None:
            return key in odd._data
        slot = self._slot[block_id]
        return bool((self._data[slot, : self._len[slot]] == key).any())

    def contains_keys(self, block_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """One row gather: ``data[slots, :max_len] == keys[:, None]``.

        Records at or past a block's length are stale, so a key counts
        as found only when its first match lies before that length.
        """
        if self._odd:
            return super().contains_keys(block_ids, keys)
        slots = np.fromiter(map(self._slot.__getitem__, block_ids.tolist()), np.int64)
        lengths = self._len[slots]
        # At least one column, so argmax never meets an empty row.
        eq = self._data[slots, : max(int(lengths.max(initial=0)), 1)] == keys[:, None]
        first = eq.argmax(axis=1)
        return eq[np.arange(len(keys)), first] & (first < lengths)

    def append(self, block_id: int, items: list[int]) -> None:
        odd = self._odd.get(block_id)
        if odd is not None:
            odd._data = odd._data + items
            return
        slot = self._slot[block_id]
        n = int(self._len[slot])
        self._data[slot, n : n + len(items)] = items
        self._len[slot] = n + len(items)

    def replace(self, block_id: int, items: list[int]) -> None:
        odd = self._odd.get(block_id)
        if odd is not None:
            odd._data = items
            return
        slot = self._slot[block_id]
        self._data[slot, : len(items)] = items
        self._len[slot] = len(items)

    def drain(self, block_id: int) -> list[int]:
        odd = self._odd.get(block_id)
        if odd is not None:
            out = odd._data
            odd._data = []
            return out
        slot = self._slot[block_id]
        out = self._data[slot, : self._len[slot]].tolist()
        self._len[slot] = 0
        return out

    def remove_key(self, block_id: int, key: int) -> bool:
        odd = self._odd.get(block_id)
        if odd is not None:
            return odd.remove(key)
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

    def is_fresh(self, block_id: int) -> bool:
        odd = self._odd.get(block_id)
        if odd is not None:
            return not odd._data and not odd.header
        return (
            self._len[self._slot[block_id]] == 0
            and block_id not in self._headers
        )

    # -- introspection ----------------------------------------------------------

    def ids(self) -> list[int]:
        return sorted([*self._slot, *self._odd]) if self._odd else sorted(self._slot)

    def count(self) -> int:
        return len(self._slot) + len(self._odd)

    def nonempty(self) -> int:
        live = np.fromiter(self._slot.values(), dtype=np.int64, count=len(self._slot))
        n = int(np.count_nonzero(self._len[live])) if live.size else 0
        return n + sum(1 for blk in self._odd.values() if blk._data)

    def words_stored(self) -> int:
        live = np.fromiter(self._slot.values(), dtype=np.int64, count=len(self._slot))
        words = int(self._len[live].sum()) * self.record_words if live.size else 0
        return words + sum(blk.used_words for blk in self._odd.values())


class DurableArenaBackend(ArenaBackend):
    """An :class:`ArenaBackend` whose arenas live in memory-mapped files.

    Drop-in for the in-memory arena — same slot management, same
    record-level primitives, same I/O-accounting invariance — but the
    ``(slots, records_per_block)`` record matrix and the length vector
    are memory-mapped onto files under ``path``:

    * ``arena.u64``   — the record matrix, row-major ``uint64``;
    * ``lengths.i64`` — per-slot record counts, ``int64``;
    * ``meta.pkl``    — everything O(1)-per-block that is not
      fixed-width (slot map, free list, headers, odd-width blocks),
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
            "odd": dict(self._odd),
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
        self._odd = dict(meta["odd"])
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
