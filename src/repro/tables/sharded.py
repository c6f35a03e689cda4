"""A sharded dictionary router: one logical table over N independent shards.

The data-distributed construction strategy (cf. Aghamolaei & Ghodsi in
PAPERS.md) applied to the paper's dictionaries: a
:class:`ShardedDictionary` wraps ``N`` inner
:class:`~repro.tables.base.ExternalDictionary` instances and routes
every operation by a dedicated router hash — one vectorised
shard-of-key split per batch, staged through the same
:func:`~repro.tables.batching.partition_by_bucket` machinery the tables
use for bucket partitioning (with ``stable=True``, because *stream*
order decides each shard's merge/flush boundaries).

The distributed model: ``N`` machines, each with its own ``m``-word
memory and its own disk, sharing one cluster-wide I/O ledger.
Concretely each shard gets a :func:`shard_view` of the parent
:class:`~repro.em.storage.EMContext` —

* the parent's :class:`~repro.em.iostats.IOStats` (cluster I/O total,
  so the drivers' ``t_u``/``t_q`` measurements work unchanged),
* its **own** :class:`~repro.em.disk.Disk` with a strided
  ``first_id`` (shard ``i`` allocates ids from ``i · 2^48``), giving
  every shard a disjoint block-id namespace,
* its **own** :class:`~repro.em.memory.MemoryBudget` of ``m`` words,
* its own storage backend instance of the parent's kind.

The strided namespaces are what make the batch router honest: a shard's
state depends only on its *own* key subsequence, never on how the
cluster interleaved, so ``insert_batch`` (which feeds each shard its
stable-partitioned group in one call) is bit-identical — I/O counters,
layouts, block ids, memory peaks — to the scalar per-key routing loop.
The parity suite extends over shard counts and backends to pin this.

Aggregation: :attr:`stats` sums the shard :class:`TableStats`;
:meth:`layout_snapshot` unions the (disjoint) shard snapshots and
routes the one-I/O address function through the router hash, so the
lower-bound zone analyser consumes a sharded table like any other.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..em.cache import CacheStats
from ..em.errors import ConfigurationError
from ..em.iostats import IOStats
from ..em.storage import EMContext
from ..hashing.base import HashFunction
from ..hashing.family import MULTIPLY_SHIFT
from .base import ExternalDictionary, LayoutSnapshot, TableStats
from .batching import normalize_keys, partition_by_bucket, partition_positions

__all__ = [
    "DEFAULT_SLOTS_PER_SHARD",
    "SHARD_ID_STRIDE",
    "ShardedDictionary",
    "SlotDirectory",
    "make_sharded",
    "shard_view",
    "sum_table_stats",
    "union_layout",
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


def shard_view(
    parent: EMContext, index: int, *, stats: IOStats | None = None
) -> EMContext:
    """A per-shard context: own disk and memory, shared I/O ledger.

    Models one machine of an ``N``-machine cluster: full ``(b, m, u)``
    geometry, a private disk whose ids start at ``index · 2^48`` (a
    disjoint namespace per shard), a private ``m``-word memory budget,
    and the parent's :class:`IOStats` so the cluster's I/O total
    accumulates in one place.  Passing ``stats`` swaps in a different
    ledger — the service layer gives each shard machine a private one so
    concurrent shards never race on a shared counter object.

    The parent's ``cache_blocks`` axis is inherited: each shard machine
    gets its **own** buffer pool of that many frames, charged against
    its own memory budget (the context builds a
    :class:`~repro.em.cache.CachedDisk` when the axis is positive).
    """
    if stats is None:
        stats = parent.stats
    return EMContext(
        params=parent.params,
        policy=parent.policy,
        record_words=parent.record_words,
        backend=parent.backend,
        cache_blocks=parent.cache_blocks,
        first_id=index * SHARD_ID_STRIDE,
        stats=stats,
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


def sum_table_stats(tables: Sequence[ExternalDictionary]) -> TableStats:
    """The shard tables' operation counters, summed."""
    agg = TableStats()
    for table in tables:
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


def union_layout(
    tables: Sequence[ExternalDictionary], directory: SlotDirectory
) -> LayoutSnapshot:
    """Union of the shard tables' snapshots; the address routes by shard.

    Block-id disjointness is structural (strided disk namespaces), so
    the union never collides and the zone analyser decomposes a sharded
    table exactly like an unsharded one.
    """
    snaps = [table.layout_snapshot() for table in tables]
    blocks: dict[int, tuple[int, ...]] = {}
    memory_items: frozenset[int] = frozenset()
    for snap in snaps:
        blocks.update(snap.blocks)
        memory_items |= snap.memory_items
    addresses = [snap.address for snap in snaps]
    shards = directory.shards

    def address(key: int) -> int | None:
        if shards == 1:
            return addresses[0](key)
        return addresses[directory.shard_of(key)](key)

    # A static map costs the router seed + shard count to describe
    # (2 words, as before); a migrated map must also be written down
    # slot by slot — the honest description cost of adaptivity.
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


class ShardedDictionary(ExternalDictionary):
    """Routes one logical dictionary over ``N`` independent shards.

    Parameters
    ----------
    ctx:
        The parent context; shards get :func:`shard_view`\\ s of it.
    shard_factory:
        Builds the inner table from a (per-shard) context.
    shards:
        Number of shards ``N >= 1``.
    router:
        Shard-of-key hash; a fixed-seed multiply-shift function by
        default (independent of the tables' bucket hashes).
    slots:
        Slot-directory fan-out (must divide by ``shards``); defaults to
        ``DEFAULT_SLOTS_PER_SHARD * shards``.
    directory:
        An existing :class:`SlotDirectory` to route through (e.g. a
        restored one); built fresh (static map) when omitted.
    """

    def __init__(
        self,
        ctx: EMContext,
        shard_factory: ShardFactory,
        *,
        shards: int = 1,
        router: HashFunction | None = None,
        slots: int | None = None,
        directory: SlotDirectory | None = None,
        name: str | None = None,
    ) -> None:
        if shards <= 0:
            raise ConfigurationError(f"shard count must be positive, got {shards}")
        # Mirrors ExternalDictionary.__init__ except ``stats`` and
        # ``_size``, which are read-only aggregate properties here and
        # must not be assigned.
        self.ctx = ctx
        self.name = name or f"ShardedDictionary[{shards}]"
        self._charge_key = f"{self.name}@{id(self)}"
        self.shards = shards
        self.router = (
            router
            if router is not None
            else MULTIPLY_SHIFT.sample(ctx.u, seed=_ROUTER_SEED)
        )
        if directory is not None:
            if directory.shards != shards:
                raise ConfigurationError(
                    f"directory routes {directory.shards} shards, table has "
                    f"{shards}"
                )
            self.directory = directory
            self.router = directory.router
        else:
            self.directory = SlotDirectory(self.router, shards, slots=slots)
        self._contexts = [shard_view(ctx, i) for i in range(shards)]
        self._shards: list[ExternalDictionary] = [
            shard_factory(sub) for sub in self._contexts
        ]

    # -- routing -----------------------------------------------------------

    def shard_of(self, key: int) -> int:
        """The shard index ``key`` routes to."""
        if self.shards == 1:
            return 0
        return self.directory.shard_of(key)

    def _shard_idx(self, arr: np.ndarray) -> np.ndarray:
        return self.directory.shards_of(arr)

    def _groups(self, arr: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Stable shard partition returning original positions per group.

        ``[(shard, positions), ...]`` in ascending shard order, each
        ``positions`` preserving arrival order — the index structure
        needed to scatter per-key results and costs back to arrival
        order (see :func:`~repro.tables.batching.partition_positions`).
        """
        return partition_positions(self._shard_idx(arr))

    # -- scalar operations --------------------------------------------------

    def insert(self, key: int) -> None:
        self._shards[self.shard_of(key)].insert(key)

    def lookup(self, key: int) -> bool:
        return self._shards[self.shard_of(key)].lookup(key)

    def delete(self, key: int) -> bool:
        # Routed through the batch helper so the router has no remaining
        # per-key-only operation (one-element batches are I/O-identical
        # by the tables' batch contract).
        return bool(self.delete_batch([key])[0])

    # -- batch operations -----------------------------------------------------

    def insert_batch(self, keys: Sequence[int] | np.ndarray) -> None:
        """Route one stable shard split, then one inner batch per shard.

        Each shard receives exactly the subsequence of ``keys`` the
        scalar loop would have fed it, and shard state is fully
        independent (own disk namespace, own memory), so this is
        bit-identical to ``insert_many`` — including block ids and
        memory peaks — whatever the shard count.
        """
        if self.shards == 1:
            self._shards[0].insert_batch(keys)
            return
        key_list, arr = normalize_keys(keys)
        if not key_list:
            return
        for shard, group in partition_by_bucket(arr, self._shard_idx(arr), stable=True):
            self._shards[shard].insert_batch(group)

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Shard-grouped lookups, scattered back to arrival order.

        Per-query results and I/O costs are state-independent, so the
        grouped order charges the same counters as the scalar loop.
        """
        return self._scatter("lookup_batch", keys, cost_out)

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
        return self._scatter("delete_batch", keys, cost_out)

    def _scatter(
        self, method: str, keys: Sequence[int] | np.ndarray, cost_out: list[int] | None
    ) -> np.ndarray:
        """One inner ``method`` batch per shard group; results and costs
        scattered back to arrival order.  The group holding the final key
        runs last, so the pending read-modify-write block ends where the
        scalar walk leaves it."""
        if self.shards == 1:
            return getattr(self._shards[0], method)(keys, cost_out=cost_out)
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        groups = self._groups(arr)
        last_shard = int(self._shard_idx(arr[-1:])[0])
        groups.sort(key=lambda g: (g[0] == last_shard, g[0]))
        costs = np.zeros(n, dtype=np.int64) if cost_out is not None else None
        for shard, pos in groups:
            sub_costs: list[int] | None = [] if cost_out is not None else None
            run = getattr(self._shards[shard], method)
            out[pos] = run(arr[pos], cost_out=sub_costs)
            if costs is not None:
                costs[pos] = sub_costs
        if cost_out is not None:
            cost_out.extend(costs.tolist())
        return out

    # -- migration -----------------------------------------------------------

    def migrate_slots(self, moves):
        """Apply slot moves (``[(slot, src, dst), ...]``) to this cluster.

        Thin wrapper over :func:`repro.tables.rebalance.apply_moves`:
        drains each moved slot's live keys out of the source shard with
        ``delete_batch`` and re-inserts them into the destination's own
        namespace, then repoints the directory.  Returns the
        :class:`~repro.tables.rebalance.MigrationReport`.
        """
        from .rebalance import apply_moves

        return apply_moves(self.directory, self._shards, moves)

    # -- aggregation ---------------------------------------------------------

    @property
    def stats(self) -> TableStats:
        """Aggregated operation counters over all shards."""
        return sum_table_stats(self._shards)

    @property
    def _size(self) -> int:
        """Live aggregate size (the base class reads ``_size`` directly)."""
        return sum(len(table) for table in self._shards)

    def shard_tables(self) -> list[ExternalDictionary]:
        """The inner tables, shard order (instrumentation)."""
        return list(self._shards)

    def shard_sizes(self) -> list[int]:
        return [len(table) for table in self._shards]

    def memory_words(self) -> int:
        # Per-machine residency plus the router seed and shard count.
        return sum(table.memory_words() for table in self._shards) + 2

    def memory_high_water(self) -> int:
        """Sum of per-shard memory peaks (each machine peaks on its own)."""
        return sum(sub.memory.high_water for sub in self._contexts)

    def nonempty_disk_blocks(self) -> int:
        return sum(sub.disk.nonempty_blocks() for sub in self._contexts)

    def cache_stats(self):
        """Summed per-shard :class:`~repro.em.cache.CacheStats`, or ``None``.

        ``None`` when the cluster runs uncached (``cache_blocks=0``);
        otherwise a fresh aggregate — pure counter addition over the
        shard pools, so it is independent of shard execution order.
        """
        per_shard = [sub.cache_stats() for sub in self._contexts]
        if not any(s is not None for s in per_shard):
            return None
        agg = CacheStats()
        for s in per_shard:
            if s is not None:
                agg.absorb(s)
        return agg

    # -- instrumentation -------------------------------------------------------

    def layout_snapshot(self) -> LayoutSnapshot:
        """Union of the shard snapshots; the address routes by shard."""
        return union_layout(self._shards, self.directory)

    def check_invariants(self) -> None:
        seen_blocks: set[int] = set()
        for i, (table, sub) in enumerate(zip(self._shards, self._contexts)):
            table.check_invariants()
            snap = table.layout_snapshot()
            ids = set(snap.blocks)
            assert not (ids & seen_blocks), f"shard {i} reuses foreign block ids"
            seen_blocks |= ids
            for x in snap.memory_items | snap.disk_items():
                assert self.shard_of(x) == i, (
                    f"item {x} stored in shard {i}, routes to {self.shard_of(x)}"
                )
            lo = i * SHARD_ID_STRIDE
            assert all(lo <= bid < lo + SHARD_ID_STRIDE for bid in ids), (
                f"shard {i} allocated outside its id namespace"
            )


def make_sharded(
    table_factory: ShardFactory,
    shards: int,
    *,
    router: HashFunction | None = None,
    name: str | None = None,
) -> ShardFactory:
    """Wrap a driver ``TableFactory`` into a sharded one.

    ``make_sharded(factory, 8)`` is a drop-in factory for
    :func:`~repro.workloads.drivers.measure_table` and the CLI: the
    returned callable builds a :class:`ShardedDictionary` whose shards
    come from ``table_factory``.
    """
    def factory(ctx: EMContext) -> ExternalDictionary:
        return ShardedDictionary(
            ctx, table_factory, shards=shards, router=router, name=name
        )

    return factory
