"""Common interface for external-memory dictionaries.

Every table in this library implements :class:`ExternalDictionary`
(insert / lookup / delete over integer keys, I/O-charged through a
shared :class:`~repro.em.storage.EMContext`) and, for the lower-bound
instrumentation, can export a :class:`LayoutSnapshot`: the paper's
abstraction of a hash table as

* a **memory zone** ``M`` — items resident in main memory,
* disk blocks ``B_1 ... B_d`` — at most ``b`` items each, duplicates
  allowed,
* an **address function** ``f`` computable from memory — the block a
  one-I/O lookup would probe.

Items ``x`` with ``x ∈ B_{f(x)}`` form the fast zone; all other
disk-resident items form the slow zone (≥ 2 I/Os).  The zone analyser
in :mod:`repro.lowerbound.zones` consumes these snapshots.

Every table also exposes the **batch operations**
(:meth:`ExternalDictionary.insert_batch` /
:meth:`ExternalDictionary.lookup_batch` /
:meth:`ExternalDictionary.delete_batch`): same semantics and — by
contract — bit-identical I/O accounting as the scalar loop.  The base
class runs them as that loop; a table overrides one only with a real
batch engine, one that amortises data-parallel work (hashing, bucket
partitioning, membership, charging a recorded walk) over the whole
batch, never with a copy of the scalar walk.  See
``src/repro/workloads/README.md`` for the contract and the tables that
have engines, and :mod:`repro.tables.batching` for the shared
vectorised staging primitives.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..em.storage import EMContext


@dataclass(frozen=True)
class LayoutSnapshot:
    """A frozen view of a table's item layout (the Section 2 abstraction)."""

    #: Items resident in main memory (the memory zone ``M``).
    memory_items: frozenset[int]
    #: Disk layout: block id -> items stored in that block.
    blocks: dict[int, tuple[int, ...]]
    #: The one-I/O address function ``f``; ``None`` means the table would
    #: never find this key in one probe (it is structurally slow).
    address: Callable[[int], int | None]
    #: Words of memory the snapshot's ``f`` needs (hash seeds, directory...).
    address_description_words: int = 0

    def disk_items(self) -> set[int]:
        """All items stored on disk (union over blocks, deduplicated)."""
        out: set[int] = set()
        for items in self.blocks.values():
            out.update(items)
        return out

    def item_count(self) -> int:
        """Distinct items in the structure (memory or disk)."""
        return len(self.memory_items | self.disk_items())


@dataclass
class TableStats:
    """Operation counters every table maintains."""

    inserts: int = 0
    lookups: int = 0
    hits: int = 0
    deletes: int = 0
    rebuilds: int = 0
    merges: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount


class ExternalDictionary(abc.ABC):
    """A dynamic dictionary in the external-memory model.

    Keys are integers in ``[0, u)``.  The paper studies the membership /
    successful-lookup problem, so values are optional; tables that carry
    values charge ``record_words`` per record.
    """

    def __init__(self, ctx: EMContext, *, name: str | None = None) -> None:
        self.ctx = ctx
        self.name = name or type(self).__name__
        self.stats = TableStats()
        self._size = 0
        #: Memory-budget owner key, cached so per-op charging needs no
        #: string formatting.
        self._charge_key = f"{self.name}@{id(self)}"

    # -- required operations ----------------------------------------------

    @abc.abstractmethod
    def insert(self, key: int) -> None:
        """Insert ``key`` (duplicate inserts are idempotent no-ops)."""

    @abc.abstractmethod
    def lookup(self, key: int) -> bool:
        """Membership query for ``key``."""

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns whether it was present.

        Default: unsupported (the paper's tradeoff is query--insertion).
        """
        raise NotImplementedError(f"{self.name} does not support deletion")

    # -- instrumentation ------------------------------------------------------

    @abc.abstractmethod
    def layout_snapshot(self) -> LayoutSnapshot:
        """Export the Section 2 abstraction of the current layout.

        Must not charge any I/O (it models the analyst, not the
        algorithm); implementations use :meth:`repro.em.disk.Disk.peek`.
        """

    @abc.abstractmethod
    def memory_words(self) -> int:
        """Words of main memory the table currently occupies."""

    def memory_high_water(self) -> int:
        """Peak words charged to this table's memory budget.

        The default reads the shared context budget; the sharded router
        overrides it to aggregate its per-shard budgets.  Drivers report
        this instead of touching ``ctx.memory`` directly.
        """
        return self.ctx.memory.high_water

    def nonempty_disk_blocks(self) -> int:
        """Non-empty disk blocks backing this table (load-factor denominator).

        Default: the context disk's count.  The sharded router overrides
        it to sum over its per-shard disks.
        """
        return self.ctx.disk.nonempty_blocks()

    # -- shared conveniences ----------------------------------------------------

    def insert_many(self, keys: Iterable[int]) -> None:
        """Scalar reference path: one :meth:`insert` call per key.

        Kept deliberately un-vectorised so the parity suite can hold
        :meth:`insert_batch` to its I/O-equivalence contract against it.
        """
        for k in keys:
            self.insert(k)

    def delete_many(self, keys: Iterable[int]) -> list[bool]:
        """Scalar reference path: one :meth:`delete` call per key."""
        return [self.delete(k) for k in keys]

    # -- batch operations --------------------------------------------------------

    def insert_batch(self, keys: Sequence[int] | np.ndarray) -> None:
        """Insert a batch of keys.

        **I/O-equivalence contract:** must charge exactly the same
        :class:`~repro.em.iostats.IOStats` counters, produce the same
        :class:`TableStats` and the same :meth:`layout_snapshot` as
        ``insert_many(keys)`` — under every I/O policy.  The base
        implementation *is* the scalar loop; a subclass overrides it only
        with a batch engine that honours the contract (segments between
        the loop's flush or merge events, one duplicate screen per
        batch), not with the per-key walk again.
        """
        for k in keys:
            self.insert(int(k))

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Membership queries for a batch of keys, in order.

        Returns a boolean array aligned with ``keys``.  When
        ``cost_out`` is given, the charged I/O total of each individual
        lookup is appended to it: the delta of ``ctx.stats`` across that
        lookup, so a block a buffer pool serves costs nothing.  Subject
        to the same I/O-equivalence contract as :meth:`insert_batch`.
        """
        n = len(keys)
        out = np.empty(n, dtype=bool)
        if cost_out is None:
            for i, k in enumerate(keys):
                out[i] = self.lookup(int(k))
            return out
        stats = self.ctx.stats
        for i, k in enumerate(keys):
            before = stats.reads + stats.writes
            out[i] = self.lookup(int(k))
            cost_out.append(stats.reads + stats.writes - before)
        return out

    def delete_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Remove a batch of keys, in order; returns which were present.

        Completes the batch-op triad: subject to the same I/O-equivalence
        contract as :meth:`insert_batch` — bit-identical
        :class:`~repro.em.iostats.IOStats`, :class:`TableStats`, layouts
        and memory peaks as ``delete_many(keys)`` under every policy.
        The base implementation *is* the scalar loop; a table overrides
        it only with a batch engine (a removing walk, a membership screen
        for the whole batch) that honours the contract.  ``cost_out``
        collects the charged I/O total of each individual delete, the
        ``ctx.stats`` delta across it, as for :meth:`lookup_batch`.
        """
        n = len(keys)
        out = np.empty(n, dtype=bool)
        if cost_out is None:
            for i, k in enumerate(keys):
                out[i] = self.delete(int(k))
            return out
        stats = self.ctx.stats
        for i, k in enumerate(keys):
            before = stats.reads + stats.writes
            out[i] = self.delete(int(k))
            cost_out.append(stats.reads + stats.writes - before)
        return out

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self.lookup(key)

    def check_invariants(self) -> None:
        """Optional structural self-check used by property tests."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(n={self._size}, b={self.ctx.b}, m={self.ctx.m})"

