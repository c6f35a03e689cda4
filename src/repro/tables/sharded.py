"""Shard machines: one logical dictionary over N independent shards.

The data-distributed construction strategy (cf. Aghamolaei & Ghodsi in
PAPERS.md) applied to the paper's dictionaries.  A :class:`ShardSet` is
the cluster: a :class:`SlotDirectory` that routes every key by a
dedicated router hash, and ``N`` machines, each a shard table built on a
:func:`shard_view` of a template :class:`~repro.em.storage.EMContext` —

* its **own** :class:`~repro.em.iostats.IOStats` ledger, so the
  footnote-2 pending read-modify-write block belongs to the shard's own
  disk, as the paper charges it,
* its **own** :class:`~repro.em.disk.Disk` with a strided ``first_id``
  (shard ``i`` allocates ids from ``i · 2^48``), giving every shard a
  disjoint block-id namespace,
* its **own** :class:`~repro.em.memory.MemoryBudget` of ``m`` words,
* its own storage backend instance of the template's kind.

A shard's state, ledger included, depends only on its *own* key
subsequence, never on how the cluster interleaved, so feeding each shard
its stable group of a batch in one call is bit-identical — I/O counters,
pending blocks, layouts, block ids, memory peaks — to per-key routing.
The parity suite extends over shard counts and backends to pin this.

Both owners are shard sets and fold the shard ledgers into their own
(:meth:`ShardSet._fold`): :class:`ShardedDictionary` into ``ctx.stats``
after every call, so the drivers' ``t_u``/``t_q`` read it as for any
table, and :class:`~repro.service.service.DictionaryService` at epoch
close.

Aggregation: :attr:`ShardSet.stats` sums the shard :class:`TableStats`;
:meth:`ShardSet.layout_snapshot` unions the (disjoint) shard snapshots
and routes the one-I/O address function through the directory, so the
lower-bound zone analyser consumes a sharded table like any other.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..em.cache import CacheStats
from ..em.errors import ConfigurationError, StorageFault
from ..em.iostats import IOSnapshot, IOStats
from ..em.storage import EMContext
from ..hashing.base import HashFunction
from ..hashing.family import MULTIPLY_SHIFT
from .base import ExternalDictionary, LayoutSnapshot, TableStats
from .batching import partition_positions
from .rebalance import MigrationReport, SlotMove, apply_moves

__all__ = [
    "DEFAULT_SLOTS_PER_SHARD",
    "SHARD_ID_STRIDE",
    "ShardSet",
    "ShardedDictionary",
    "SlotDirectory",
    "make_sharded",
    "shard_view",
]

#: Block-id stride between shard disks.  Far above any realistic
#: allocation count, so shard namespaces can never collide.
SHARD_ID_STRIDE = 1 << 48

#: Default slot-directory fan-out: S = 64·N slots over N shards.  Large
#: enough that single-slot moves shift ~1.5% of a uniform load, small
#: enough that the map stays a cache-resident array.
DEFAULT_SLOTS_PER_SHARD = 64

#: Router seed, fixed and distinct from the table seeds used anywhere in
#: the drivers/benchmarks so shard routing stays independent of bucket
#: hashing.
_ROUTER_SEED = 0x51A2D

#: A factory gets a (per-shard) context and returns the inner table —
#: the same shape as the drivers' ``TableFactory``.
ShardFactory = Callable[[EMContext], ExternalDictionary]


def shard_view(parent: EMContext, index: int) -> EMContext:
    """Shard ``index``'s private machine, built from the template ``parent``.

    Models one machine of an ``N``-machine cluster: full ``(b, m, u)``
    geometry and the parent's policy, record width and backend kind; a
    private disk whose ids start at ``index · 2^48`` (a disjoint
    namespace per shard), a private ``m``-word memory budget, and a
    private :class:`IOStats` ledger, so shards never race on a shared
    counter object and each pending read-modify-write block is meaningful
    against its own disk.  Whoever owns the shard folds that ledger into
    a cluster total (:meth:`ShardSet._fold`).

    The parent's ``cache_blocks`` axis is inherited: each shard machine
    gets its **own** buffer pool of that many frames, charged against
    its own memory budget (the context builds a
    :class:`~repro.em.cache.CachedDisk` when the axis is positive).
    """
    return EMContext(
        params=parent.params,
        policy=parent.policy,
        record_words=parent.record_words,
        backend=parent.backend,
        cache_blocks=parent.cache_blocks,
        first_id=index * SHARD_ID_STRIDE,
        hard_memory=parent.hard_memory,
    )


class SlotDirectory:
    """The two-level route: router hash → one of ``S`` slots → shard.

    The slot map is the unit of load tracking and migration: the router
    hash is fixed for the life of the cluster, but ``slot_map[slot]``
    can be reassigned between epochs, moving every key of that slot to
    another shard without touching the hash.  ``S`` is forced to a
    multiple of ``N`` so the *initial* map (``slot % shards``) composes
    to ``hash % shards`` exactly — default routing is bit-identical to
    the static split, which is what the relabelling contract pins.

    ``version`` increments on every :meth:`assign`; callers that cache
    anything derived from the map (e.g. the open-loop client's per-op
    shard vector) key their cache on it.
    """

    def __init__(
        self,
        router: HashFunction,
        shards: int,
        *,
        slots: int | None = None,
    ) -> None:
        if shards <= 0:
            raise ConfigurationError(f"shard count must be positive, got {shards}")
        if slots is None:
            slots = DEFAULT_SLOTS_PER_SHARD * shards
        if slots <= 0 or slots % shards != 0:
            raise ConfigurationError(
                f"slot count must be a positive multiple of the shard count "
                f"(got slots={slots}, shards={shards}); otherwise the default "
                f"map cannot reproduce hash % shards routing"
            )
        self.router = router
        self.shards = shards
        self.slots = slots
        self.slot_map = (np.arange(slots, dtype=np.int64) % shards).copy()
        self.version = 0

    # -- routing -----------------------------------------------------------

    def slot_of(self, key: int) -> int:
        return int(self.router.hash(key)) % self.slots

    def shard_of(self, key: int) -> int:
        return int(self.slot_map[self.slot_of(key)])

    def slots_of(self, arr: np.ndarray) -> np.ndarray:
        """Vectorised key → slot (one ``hash_array`` call)."""
        return (self.router.hash_array(arr) % np.uint64(self.slots)).astype(
            np.int64
        )

    def shards_of(self, arr: np.ndarray) -> np.ndarray:
        """Vectorised key → shard: the slot map gathered over the slots."""
        return self.slot_map[self.slots_of(arr)]

    # -- migration ---------------------------------------------------------

    def assign(self, slot: int, shard: int) -> None:
        """Repoint one slot; bumps :attr:`version`."""
        if not 0 <= slot < self.slots:
            raise ConfigurationError(f"slot {slot} out of range [0, {self.slots})")
        if not 0 <= shard < self.shards:
            raise ConfigurationError(
                f"shard {shard} out of range [0, {self.shards})"
            )
        self.slot_map[slot] = shard
        self.version += 1

    def shard_slots(self, shard: int) -> np.ndarray:
        """The slots currently mapped to ``shard`` (ascending)."""
        return np.nonzero(self.slot_map == shard)[0]

    def is_static(self) -> bool:
        """True while the map still equals the initial static split."""
        return bool(
            (self.slot_map == np.arange(self.slots, dtype=np.int64) % self.shards)
            .all()
        )


def _counters(ctx: EMContext) -> tuple[IOSnapshot, CacheStats | None]:
    """A shard's ``(I/O, cache)`` counters now; no cache mark uncached."""
    cache = ctx.cache_stats()
    return ctx.stats.snapshot(), cache.snapshot() if cache is not None else None


class ShardSet:
    """``N`` shard machines and the slot directory that routes keys to them.

    The base of both owners, :class:`ShardedDictionary` and
    :class:`~repro.service.service.DictionaryService`.  Shards are built
    from the template context ``ctx`` (see :func:`shard_view`); the
    router hash is the fixed-seed multiply-shift function and the
    directory starts on the static ``hash % N`` split, so every owner
    over ``N`` shards stores a key on the same shard.  ``slots`` is the
    directory fan-out (a multiple of ``shards``;
    ``DEFAULT_SLOTS_PER_SHARD * shards`` by default).  A shard's context
    is its table's ``ctx``; an owner calls :meth:`_fold` after anything
    that charges a shard.
    """

    def __init__(
        self,
        ctx: EMContext,
        shard_factory: ShardFactory,
        shards: int,
        *,
        slots: int | None = None,
    ) -> None:
        self.directory = SlotDirectory(
            MULTIPLY_SHIFT.sample(ctx.u, seed=_ROUTER_SEED), shards, slots=slots
        )
        self.ctx = ctx
        self.shards = shards
        contexts = [shard_view(ctx, i) for i in range(shards)]
        # Marked before the factories run, so the owner's first fold
        # carries any I/O a factory charges at construction.
        self._marks = [_counters(sub) for sub in contexts]
        self._tables = [shard_factory(sub) for sub in contexts]

    def _adopt_shards(
        self, directory: SlotDirectory, tables: Sequence[ExternalDictionary]
    ) -> None:
        """Take over restored shard tables, marked at their live counters
        (a snapshot is taken right after a fold, so the owner's ledger
        already holds them)."""
        self.directory = directory
        self.shards = directory.shards
        self._tables = list(tables)
        self._marks = [_counters(table.ctx) for table in self._tables]

    @property
    def router(self) -> HashFunction:
        return self.directory.router

    # -- for owners ------------------------------------------------------------

    def _apply(self, shard: int, ins, dels, looks) -> tuple:
        """Run one shard's share of an epoch: insert, then delete, then lookup.

        ``None`` skips a kind.  Returns ``(delete results, lookup
        results)``, ``None`` for a skipped kind.  The fixed kind order is
        observationally program order when no key crosses kinds, which
        the epoch builder guarantees.  A :class:`StorageFault` is
        re-raised naming the shard, with its index on ``.shard``.
        """
        table = self._tables[shard]
        try:
            if ins is not None:
                table.insert_batch(ins)
            del_res = table.delete_batch(dels) if dels is not None else None
            look_res = table.lookup_batch(looks) if looks is not None else None
        except StorageFault as exc:
            wrapped = type(exc)(f"shard {shard}: {exc}")
            wrapped.shard = shard
            raise wrapped from exc
        return del_res, look_res

    def _fold(
        self, ledger: IOStats, cache: CacheStats | None = None
    ) -> list[IOSnapshot]:
        """Add each shard's I/O (and, given ``cache``, buffer-pool) counters
        since the last fold to the owner's, ascending shard order; returns
        the per-shard I/O deltas.  Pure counter addition, so the totals do
        not depend on the order the shards ran in; the pending
        read-modify-write block stays on the shard ledger."""
        return [self._fold_shard(i, ledger, cache) for i in range(self.shards)]

    def _fold_shard(
        self, shard: int, ledger: IOStats, cache: CacheStats | None = None
    ) -> IOSnapshot:
        """:meth:`_fold` of one shard, for an owner call that touched only it."""
        io_mark, cache_mark = self._marks[shard]
        io_now, cache_now = self._marks[shard] = _counters(self._tables[shard].ctx)
        delta = io_now - io_mark
        ledger.absorb(delta)
        if cache is not None and cache_mark is not None:
            cache.absorb(cache_now.delta_since(cache_mark))
        return delta

    def _migrate(
        self, moves: Sequence[SlotMove | tuple[int, int, int]]
    ) -> MigrationReport:
        """Drain, refill and repoint each moved slot (see
        :func:`~repro.tables.rebalance.apply_moves`); the drains charge
        the shard ledgers, so the owner folds after."""
        return apply_moves(self.directory, self._tables, moves)

    # -- aggregation -------------------------------------------------------------

    @property
    def stats(self) -> TableStats:
        """The shard tables' operation counters, summed."""
        agg = TableStats()
        for table in self._tables:
            s = table.stats
            agg.inserts += s.inserts
            agg.lookups += s.lookups
            agg.hits += s.hits
            agg.deletes += s.deletes
            agg.rebuilds += s.rebuilds
            agg.merges += s.merges
            for k, v in s.extra.items():
                agg.extra[k] = agg.extra.get(k, 0) + v
        return agg

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables)

    def shard_tables(self) -> list[ExternalDictionary]:
        """The inner tables, shard order."""
        return list(self._tables)

    def shard_sizes(self) -> list[int]:
        return [len(table) for table in self._tables]

    def shard_io_snapshots(self) -> list[IOSnapshot]:
        """Per-shard ledger snapshots, shard order."""
        return [table.ctx.stats.snapshot() for table in self._tables]

    def memory_high_water(self) -> int:
        """Sum of per-shard memory peaks (each machine peaks on its own)."""
        return sum(table.ctx.memory.high_water for table in self._tables)

    def nonempty_disk_blocks(self) -> int:
        return sum(table.ctx.disk.nonempty_blocks() for table in self._tables)

    def cache_stats(self) -> CacheStats | None:
        """Summed per-shard :class:`~repro.em.cache.CacheStats`, or ``None``.

        ``None`` when the cluster runs uncached (``cache_blocks=0``);
        otherwise a fresh aggregate — pure counter addition over the
        shard pools, so it is independent of shard execution order.
        """
        if not self.ctx.cache_blocks:
            return None
        agg = CacheStats()
        for table in self._tables:
            agg.absorb(table.ctx.cache_stats())
        return agg

    def layout_snapshot(self) -> LayoutSnapshot:
        """Union of the shard snapshots; the address routes by shard.

        Block-id disjointness is structural (strided disk namespaces), so
        the union never collides and the zone analyser decomposes a
        sharded table exactly like an unsharded one.
        """
        snaps = [table.layout_snapshot() for table in self._tables]
        blocks: dict[int, tuple[int, ...]] = {}
        memory_items: frozenset[int] = frozenset()
        for snap in snaps:
            blocks.update(snap.blocks)
            memory_items |= snap.memory_items
        addresses = [snap.address for snap in snaps]
        directory = self.directory

        def address(key: int) -> int | None:
            return addresses[directory.shard_of(key)](key)

        # A static map costs the router seed + shard count to describe
        # (2 words); a migrated map must also be written down slot by
        # slot — the honest description cost of adaptivity.
        route_words = 2 if directory.is_static() else 2 + directory.slots
        return LayoutSnapshot(
            memory_items=memory_items,
            blocks=blocks,
            address=address,
            address_description_words=sum(
                snap.address_description_words for snap in snaps
            )
            + route_words,
        )

    def check_invariants(self) -> None:
        """Every shard's own check, plus: each item is stored on the shard
        its key routes to, and each shard allocates only inside its own
        block-id namespace."""
        seen_blocks: set[int] = set()
        for i, table in enumerate(self._tables):
            table.check_invariants()
            snap = table.layout_snapshot()
            ids = set(snap.blocks)
            assert not (ids & seen_blocks), f"shard {i} reuses foreign block ids"
            seen_blocks |= ids
            items = np.array(
                sorted(snap.memory_items | snap.disk_items()), dtype=np.uint64
            )
            owners = self.directory.shards_of(items)
            stray = np.flatnonzero(owners != i)
            assert not len(stray), (
                f"item {int(items[stray[0]])} stored in shard {i}, routes to "
                f"{int(owners[stray[0]])}"
            )
            lo = i * SHARD_ID_STRIDE
            assert all(lo <= bid < lo + SHARD_ID_STRIDE for bid in ids), (
                f"shard {i} allocated outside its id namespace"
            )


class ShardedDictionary(ShardSet, ExternalDictionary):
    """Routes one logical dictionary over ``N`` shards.

    A :class:`ShardSet` behind the :class:`ExternalDictionary` interface;
    the shard set precedes the interface in the method order, so the
    aggregates (``stats``, ``len``, :meth:`layout_snapshot` …) are its.
    Every call folds the shard ledgers into ``ctx.stats`` right after,
    so the parent ledger carries every shard charge as for any table.

    Parameters
    ----------
    ctx:
        The parent context: the template of every shard machine (see
        :func:`shard_view`) and the ledger the shards' I/O folds into.
    shard_factory:
        Builds the inner table from a (per-shard) context.
    shards:
        Number of shards ``N >= 1``.
    """

    def __init__(
        self,
        ctx: EMContext,
        shard_factory: ShardFactory,
        *,
        shards: int = 1,
        name: str | None = None,
    ) -> None:
        # In place of ExternalDictionary.__init__: ``stats`` and ``_size``
        # are read-only aggregate properties here and must not be
        # assigned.
        self.name = name or f"ShardedDictionary[{shards}]"
        self._charge_key = f"{self.name}@{id(self)}"
        super().__init__(ctx, shard_factory, shards)
        self._fold(ctx.stats)

    def shard_of(self, key: int) -> int:
        """The shard index ``key`` routes to."""
        return self.directory.shard_of(key)

    # -- scalar operations --------------------------------------------------

    def insert(self, key: int) -> None:
        shard = self.shard_of(key)
        self._tables[shard].insert(key)
        self._fold_shard(shard, self.ctx.stats)

    def lookup(self, key: int) -> bool:
        shard = self.shard_of(key)
        found = self._tables[shard].lookup(key)
        self._fold_shard(shard, self.ctx.stats)
        return found

    def delete(self, key: int) -> bool:
        shard = self.shard_of(key)
        removed = self._tables[shard].delete(key)
        self._fold_shard(shard, self.ctx.stats)
        return removed

    # -- batch operations -----------------------------------------------------

    def insert_batch(self, keys: Sequence[int] | np.ndarray) -> None:
        """Route one stable shard split, then one inner batch per shard.

        Each shard receives exactly the subsequence of ``keys`` the
        scalar loop would have fed it, and shard state is fully
        independent (own disk namespace, memory and ledger), so this is
        bit-identical to ``insert_many`` — including block ids and
        memory peaks — whatever the shard count.
        """
        arr = np.asarray(keys, dtype=np.uint64)
        for shard, pos in partition_positions(self.directory.shards_of(arr)):
            self._tables[shard].insert_batch(arr[pos])
        self._fold(self.ctx.stats)

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Shard-grouped lookups, scattered back to arrival order."""
        return self._per_shard("lookup_batch", keys, cost_out)

    def delete_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Shard-grouped deletes, scattered back to arrival order.

        A delete mutates only its own shard, and each shard receives
        exactly the subsequence of ``keys`` the scalar loop would feed
        it (stable groups), so results and per-shard charges are
        bit-identical to per-key routing.
        """
        return self._per_shard("delete_batch", keys, cost_out)

    def _per_shard(
        self, method: str, keys: Sequence[int] | np.ndarray, cost_out: list[int] | None
    ) -> np.ndarray:
        """One inner ``method`` batch per stable shard group; results and
        per-key costs scattered back to arrival order."""
        arr = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(arr), dtype=bool)
        costs = np.zeros(len(arr), dtype=np.int64)
        for shard, pos in partition_positions(self.directory.shards_of(arr)):
            sub_costs: list[int] | None = [] if cost_out is not None else None
            run = getattr(self._tables[shard], method)
            out[pos] = run(arr[pos], cost_out=sub_costs)
            if sub_costs is not None:
                costs[pos] = sub_costs
        if cost_out is not None:
            cost_out.extend(costs.tolist())
        self._fold(self.ctx.stats)
        return out

    def migrate_slots(
        self, moves: Sequence[SlotMove | tuple[int, int, int]]
    ) -> MigrationReport:
        """Apply slot moves (``[(slot, src, dst), ...]``) to this cluster:
        drain each moved slot's live keys out of the source shard,
        re-insert them into the destination's own namespace, repoint the
        directory."""
        report = self._migrate(moves)
        self._fold(self.ctx.stats)
        return report

    @property
    def _size(self) -> int:
        """Live aggregate size (the base class's ``repr`` reads it)."""
        return len(self)

    def memory_words(self) -> int:
        # Per-machine residency plus the router seed and shard count.
        return sum(table.memory_words() for table in self._tables) + 2


def make_sharded(
    table_factory: ShardFactory,
    shards: int,
    *,
    name: str | None = None,
) -> ShardFactory:
    """Wrap a driver ``TableFactory`` into a sharded one.

    ``make_sharded(factory, 8)`` is a drop-in factory for
    :func:`~repro.workloads.drivers.measure_table` and the CLI: the
    returned callable builds a :class:`ShardedDictionary` whose shards
    come from ``table_factory``.
    """
    def factory(ctx: EMContext) -> ExternalDictionary:
        return ShardedDictionary(ctx, table_factory, shards=shards, name=name)

    return factory
