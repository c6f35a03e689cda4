"""The dictionary service: epochs × shards.

:class:`DictionaryService` is the layer that turns the reproduction's
dictionaries into a *servable system*: it accepts interleaved
insert/lookup/delete request streams, coalesces them into conflict-free
**epochs** (:mod:`repro.service.epochs`), partitions each epoch by shard
with the same vectorized stable shard-of-key routing the
:class:`~repro.tables.sharded.ShardedDictionary` uses, and runs the
per-shard work through its executor, :class:`SerialExecutor`: shards
one after another, ascending shard order.

Execution is *deterministic whatever the shard order* because the
service is a :class:`~repro.tables.sharded.ShardSet`, as the sharded
router is: every shard is a fully private machine with its own
strided-namespace :class:`~repro.em.disk.Disk`, its own ``m``-word
:class:`~repro.em.memory.MemoryBudget` and its own
:class:`~repro.em.iostats.IOStats` ledger.  A shard's charges depend
only on its own program-order request subsequence, so per-shard ledgers,
disks, layouts and memory peaks do not depend on the order the shards
run in.  At epoch close the shard set's fold walks the shards in
ascending order and adds each shard's I/O and cache deltas since the
last fold to the cluster :attr:`~DictionaryService.ledger` and
:attr:`~DictionaryService.cache` — pure counter addition, so the merged
totals are order-invariant too; the cluster metric counters take the
cluster ledgers' own before/after difference.  The determinism suite
(``tests/test_service.py``) pins all of it against an executor that
runs each epoch's shards in descending order.

Within an epoch each shard executes its batches in the fixed kind order
**insert → delete → lookup**; the epoch builder guarantees no key
crosses kinds inside an epoch, so every per-key observable matches
program order (see :mod:`repro.service.epochs`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.config import ObsConfig, RebalanceConfig
from ..em.cache import CacheStats
from ..em.errors import ConfigurationError, StorageFault
from ..em.iostats import IOSnapshot, IOStats
from ..em.storage import EMContext
from ..obs import MetricsRegistry, TraceRecorder
from ..tables.batching import partition_positions
from ..tables.rebalance import Rebalancer, SlotMove
from ..tables.sharded import ShardFactory, ShardSet
from ..workloads.trace import Op, encode_ops
from .epochs import Epoch, build_epochs, op_codes, window_epoch
from .journal import EpochJournal

__all__ = [
    "DictionaryService",
    "EpochReport",
    "ServiceRun",
    "SerialExecutor",
]


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class SerialExecutor:
    """Runs an epoch's shard thunks one after another, ascending shard
    order, and returns their results in thunk order.

    The service's one shard-run seam: ``svc.executor.run(thunks)``.
    """

    name = "serial"

    def run(self, thunks: Sequence[Callable[[], object]]) -> list[object]:
        return [thunk() for thunk in thunks]


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochReport:
    """Bookkeeping for one executed epoch."""

    start: int
    stop: int
    inserts: int
    lookups: int
    deletes: int
    seconds: float
    io: int

    @property
    def ops(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ServiceRun:
    """Results of one :meth:`DictionaryService.run` call.

    ``lookup_found`` / ``delete_removed`` are stream-aligned boolean
    arrays: entry ``i`` is meaningful when op ``i`` was of the matching
    kind (and ``False`` elsewhere).
    """

    ops: int
    lookup_found: np.ndarray
    delete_removed: np.ndarray
    epochs: list[EpochReport]

    @property
    def seconds(self) -> float:
        return sum(e.seconds for e in self.epochs)

    @property
    def io_total(self) -> int:
        return sum(e.io for e in self.epochs)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class DictionaryService(ShardSet):
    """A dictionary served over N shard machines, one epoch at a time.

    The shard machines, their directory and the aggregates over them
    are the :class:`~repro.tables.sharded.ShardSet`'s; the service adds
    epochs, routing, the executor, the journal, metrics and rebalancing.

    Parameters
    ----------
    ctx:
        Template context: supplies the ``(b, m, u)`` geometry, I/O
        policy, record width and storage backend every shard machine is
        built with (its disk/stats/memory are *not* shared — each shard
        gets a :func:`~repro.tables.sharded.shard_view`).
    shard_factory:
        Builds the inner table from a per-shard context (the drivers'
        ``TableFactory`` shape).
    shards:
        Number of shard machines ``N >= 1``.
    epoch_ops:
        Maximum ops coalesced into one epoch (bounds staging memory).
    journal:
        Optional :class:`~repro.service.journal.EpochJournal`.  When
        set, every epoch's encoded ops are durably appended *before*
        execution and fsync-marked committed *after* the ledger merge,
        so :func:`repro.service.recovery.recover` can rebuild the exact
        service state from the last snapshot plus the committed suffix.
    slots:
        Slot-directory fan-out (must divide by ``shards``); defaults to
        ``DEFAULT_SLOTS_PER_SHARD * shards``.  The directory starts on
        the static split, so routing is bit-identical to ``hash %
        shards`` until a migration moves a slot.
    rebalance:
        Enables skew-adaptive routing: a
        :class:`~repro.tables.rebalance.Rebalancer`, a
        :class:`~repro.core.config.RebalanceConfig`, or ``True`` for
        the default config.  When set, the service samples per-shard
        charged I/O and per-slot op counts at every epoch close and —
        between epochs, never inside one — migrates hot slots, with the
        journal (if attached) recording each migration write-ahead.
        ``None`` (the default) keeps the static router: bit-identical
        results, layouts and ledgers to every earlier release.
    obs:
        Observability (:mod:`repro.obs`): an
        :class:`~repro.core.config.ObsConfig`, a prebuilt
        :class:`~repro.obs.TraceRecorder` (bench harnesses that read
        the records in memory), or ``None``.  Strictly relabelling —
        ledgers, layouts and results are bit-identical with it on or
        off.  The :class:`~repro.obs.MetricsRegistry` behind
        :meth:`metrics` is always maintained (a handful of integer
        folds per epoch); ``obs`` only controls span tracing and
        periodic metric dumps.
    """

    def __init__(
        self,
        ctx: EMContext,
        shard_factory: ShardFactory,
        *,
        shards: int = 1,
        epoch_ops: int = 8192,
        journal: EpochJournal | None = None,
        slots: int | None = None,
        rebalance: Rebalancer | RebalanceConfig | bool | None = None,
        obs: ObsConfig | TraceRecorder | None = None,
    ) -> None:
        if epoch_ops <= 0:
            raise ConfigurationError(f"epoch_ops must be positive, got {epoch_ops}")
        super().__init__(ctx, shard_factory, shards, slots=slots)
        self.epoch_ops = epoch_ops
        self.name = f"DictionaryService[{shards}]"
        if rebalance is True:
            self.rebalancer: Rebalancer | None = Rebalancer()
        elif isinstance(rebalance, RebalanceConfig):
            self.rebalancer = Rebalancer(rebalance)
        else:
            self.rebalancer = rebalance or None
        self.executor = SerialExecutor()
        #: Cluster I/O ledger: per-shard deltas folded in at epoch close,
        #: ascending shard order.
        self.ledger = IOStats(policy=ctx.policy)
        #: Cluster cache ledger (all-zero for uncached clusters): the
        #: per-shard buffer-pool deltas are folded in alongside the I/O
        #: ledger at epoch close.
        self.cache = CacheStats()
        #: Always-on cluster metrics; fed the same ledger deltas the
        #: epoch-close merge folds, so it is shard-order-invariant and
        #: rides the snapshot/restore path.  See :meth:`metrics`.
        self._metrics = MetricsRegistry()
        if isinstance(obs, TraceRecorder):
            self.obs: ObsConfig | None = ObsConfig()
            self.recorder: TraceRecorder | None = obs
        elif isinstance(obs, ObsConfig):
            self.obs = obs
            self.recorder = (
                TraceRecorder(obs.trace_path, wall=obs.wall_clock)
                if obs.trace_path
                else None
            )
        else:
            self.obs = None
            self.recorder = None
        #: Callback ``(epochs_run, registry)`` fired every
        #: ``obs.metrics_every`` closed epochs (the CLI's periodic
        #: Prometheus dump); ``None`` disables.
        self.metrics_listener = None
        self._run_seq = 0
        self._trace_base = 0
        self._journal_bytes_mark = 0
        # Fold any I/O a factory charged at construction into the ledger
        # right away, so io_snapshot() always equals the sum of
        # shard_io_snapshots() (construction belongs to no epoch).
        self.setup_io = self._merge_ledgers()
        self.epochs_run = 0
        self.journal = journal
        if self.recorder is not None:
            describe = ctx.disk.describe() if ctx.disk is not None else {}
            self.recorder.emit(
                "run_start",
                name=self.name,
                shards=shards,
                epoch_ops=epoch_ops,
                slots=self.directory.slots,
                executor=self.executor.name,
                combine_rmw=bool(ctx.policy.combine_rmw),
                io=self.setup_io,
                **describe,
            )
        #: Global stream position of the last committed epoch's ``stop``
        #: — how far into the client's trace durable state extends.
        self.ops_committed = 0
        #: Migration counters (all zero for static runs): slots
        #: repointed, live keys drained+re-inserted, charged I/O of the
        #: drains (already folded into :attr:`ledger` — no free moves),
        #: and applied migration decisions (the REBALANCE-record
        #: sequence number).
        self.migrated_slots = 0
        self.keys_moved = 0
        self.migration_io = 0
        self.migrations_applied = 0

    # -- request execution --------------------------------------------------

    def run(
        self,
        kinds: np.ndarray | Sequence[int],
        keys: np.ndarray | Sequence[int],
    ) -> ServiceRun:
        """Execute an encoded request stream; results in arrival order."""
        kinds = op_codes(kinds)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        n = len(kinds)
        lookup_found = np.zeros(n, dtype=bool)
        delete_removed = np.zeros(n, dtype=bool)
        reports: list[EpochReport] = []
        # Every previous run() committed all of its epochs before
        # returning, so the committed position is also this call's
        # global stream offset.
        base = self.ops_committed
        self._trace_base = base
        run_seq = self._run_seq
        self._run_seq += 1
        t_run = time.perf_counter()
        for epoch in build_epochs(kinds, keys, max_ops=self.epoch_ops):
            idx = self.epochs_run
            if self.journal is not None:
                self.journal.append_epoch(
                    idx,
                    base + epoch.start,
                    base + epoch.stop,
                    kinds[epoch.start : epoch.stop],
                    keys[epoch.start : epoch.stop],
                )
            reports.append(self._run_epoch(epoch, lookup_found, delete_removed))
            if self.journal is not None:
                self.journal.commit(idx, base + epoch.start, base + epoch.stop)
                self._fold_journal_metrics("commit")
                if self.recorder is not None:
                    self.recorder.emit(
                        "fsync",
                        kind="commit",
                        epoch=idx,
                        bytes=self.journal.bytes_written,
                    )
            self.ops_committed = base + epoch.stop
            # Between epochs only: an epoch's program order is never
            # split by a migration.
            self._maybe_rebalance()
            every = self.obs.metrics_every if self.obs is not None else 0
            if (
                every
                and self.metrics_listener is not None
                and self.epochs_run % every == 0
            ):
                self.metrics_listener(self.epochs_run, self._metrics)
        if self.recorder is not None:
            self.recorder.emit(
                "run",
                run=run_seq,
                start=base,
                stop=base + n,
                epochs=len(reports),
                wall_ms=round((time.perf_counter() - t_run) * 1e3, 3),
            )
        return ServiceRun(
            ops=n,
            lookup_found=lookup_found,
            delete_removed=delete_removed,
            epochs=reports,
        )

    def run_trace(self, ops: Iterable[Op]) -> ServiceRun:
        """Convenience: execute a :class:`~repro.workloads.trace.Op` list."""
        kinds, keys = encode_ops(ops)
        return self.run(kinds, keys)

    def replay_epoch(
        self, start: int, stop: int, kinds: np.ndarray, keys: np.ndarray
    ) -> EpochReport:
        """Re-execute one journaled epoch during recovery.

        The journal recorded exactly one conflict-free epoch per OPS
        record, so the slice is executed as a single epoch verbatim —
        no re-segmentation — and is *not* re-journaled (it is already
        durable).  Charges the same I/O as the original execution.
        """
        if stop - start != len(kinds):
            raise ConfigurationError(
                f"journal record [{start}, {stop}) does not match "
                f"{len(kinds)} replayed ops"
            )
        kinds = op_codes(kinds)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        self._trace_base = start
        n = len(kinds)
        report = self._run_epoch(
            window_epoch(kinds, keys, 0, n),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=bool),
        )
        self.ops_committed = stop
        # Replay feeds the rebalancer the same observations the live run
        # saw but never *decides* — journaled REBALANCE records supply
        # the moves, so recovered policy state matches an uninterrupted
        # run bit for bit.
        if self.rebalancer is not None:
            self.rebalancer.observe(self._last_epoch_shard_io, self._epoch_slot_ops)
        return report

    def snapshot(self, path) -> None:
        """Checkpoint the full service state to ``path`` (atomic).

        Thin wrapper over :func:`repro.service.recovery.snapshot_service`
        (local import: recovery builds on this module).
        """
        from .recovery import snapshot_service

        snapshot_service(self, path)

    def _run_epoch(
        self,
        epoch: Epoch,
        lookup_found: np.ndarray,
        delete_removed: np.ndarray,
    ) -> EpochReport:
        t0 = time.perf_counter()
        if self.rebalancer is not None:
            self._epoch_slot_ops = np.zeros(self.directory.slots, dtype=np.int64)
        work = self._route(epoch)
        shard_order = sorted(work)
        thunks = [
            partial(self._apply, shard, ins, dels, looks)
            for shard, (ins, dels, _, looks, _) in sorted(work.items())
        ]
        timings: list[float] | None = None
        if self.recorder is not None:
            # Wrap thunks with per-batch wall timing only when tracing —
            # the obs-off hot path is untouched.  Each wrapper writes its
            # own slot, whatever order the executor runs them in.
            timings = [0.0] * len(thunks)
            thunks = [
                self._timed_thunk(thunk, timings, j)
                for j, thunk in enumerate(thunks)
            ]
        try:
            results = self.executor.run(thunks)
        except StorageFault as exc:
            wrapped = type(exc)(f"epoch {self.epochs_run}: {exc}")
            # Keep the faulting shard visible to overload control: the
            # open-loop client's circuit breaker quarantines by shard.
            wrapped.shard = getattr(exc, "shard", None)
            raise wrapped from exc
        for shard, (del_res, look_res) in zip(shard_order, results):
            _, _, dpos, _, lpos = work[shard]
            if del_res is not None:
                delete_removed[dpos] = del_res
            if look_res is not None:
                lookup_found[lpos] = look_res
        io = self._merge_ledgers()
        idx = self.epochs_run
        self.epochs_run += 1
        report = EpochReport(
            start=epoch.start,
            stop=epoch.stop,
            inserts=len(epoch.insert_keys),
            lookups=len(epoch.lookup_keys),
            deletes=len(epoch.delete_keys),
            seconds=time.perf_counter() - t0,
            io=io,
        )
        self._fold_epoch_metrics(report)
        if self.recorder is not None:
            self._emit_epoch_span(report, idx, shard_order, timings)
        return report

    def _route(self, epoch: Epoch) -> dict[int, list]:
        """Stable shard split of the epoch: ``{shard: [ins, dels, dpos,
        looks, lpos]}``, ``None`` where a shard has no op of a kind.

        One ``hash_array`` call and slot-map gather over the epoch's
        keys, concatenated insert, delete, lookup, then one stable
        :func:`partition_positions` over the code ``shard * 3 + kind``
        (insert 0, delete 1, lookup 2): its groups, in ascending code
        order, are each shard's three in-order subsequences.  The static
        map reproduces ``hash % shards``.  With the rebalancer on, the
        slot ids are tallied into the epoch's per-slot op counts, the
        load signal of :meth:`_maybe_rebalance`.
        """
        keys = np.concatenate([epoch.insert_keys, epoch.delete_keys, epoch.lookup_keys])
        if not len(keys):
            return {}
        n_ins = len(epoch.insert_keys)
        n_mut = n_ins + len(epoch.delete_keys)
        pos = np.concatenate([np.zeros(n_ins, int), epoch.delete_pos, epoch.lookup_pos])
        slots = self.directory.slots_of(keys)
        if self.rebalancer is not None:
            self._epoch_slot_ops += np.bincount(slots, minlength=self.directory.slots)
        codes = self.directory.slot_map[slots]
        codes *= 3
        codes[n_ins:n_mut] += 1
        codes[n_mut:] += 2
        work: dict[int, list] = {}
        for code, at in partition_positions(codes):
            shard, kind = divmod(code, 3)
            batch = work.setdefault(shard, [None] * 5)
            first = (0, 1, 3)[kind]  # ins, dels + dpos, looks + lpos
            batch[first] = keys[at]
            if kind:
                batch[first + 1] = pos[at]
        return work

    def _merge_ledgers(self) -> int:
        """Fold per-shard ledger deltas into the cluster ledgers.

        The shard set's fold adds each shard's I/O and cache delta since
        the last fold, so ``hits + misses`` stays aligned with the reads
        the same epochs charged.  The cluster metric counters take the
        cluster ledgers' own before/after difference.  Returns the merged
        charged I/O total.
        """
        io_before = self.ledger.snapshot()
        cache_before = self.cache.snapshot()
        deltas = self._fold(self.ledger, self.cache)
        metrics = self._metrics
        for i, delta in enumerate(deltas):
            if delta.total:
                metrics.inc("repro_shard_io_total", delta.total, shard=str(i))
        io = self.ledger.delta_since(io_before)
        cache_delta = self.cache.delta_since(cache_before)
        for field, value in io.as_dict().items():
            metrics.inc(f"repro_io_{field}_total", value)
        for field, value in cache_delta.as_dict().items():
            metrics.inc(f"repro_cache_{field}_total", value)
        # The per-shard split of the merge just folded — the epoch-close
        # load sample _maybe_rebalance observes.  Migration drains merge
        # through here too, so their charges never pollute the next
        # epoch's sample (they are read before the migration merges).
        self._last_epoch_shard_io = [d.total for d in deltas]
        # Full per-shard deltas + the cache delta of the same merge, for
        # the trace's epoch span (relabelling: read, never re-charged).
        self._last_epoch_shard_deltas = deltas
        self._last_cache_delta = cache_delta
        return io.total

    # -- observability -------------------------------------------------------

    @staticmethod
    def _timed_thunk(
        thunk: Callable[[], tuple], timings: list[float], j: int
    ) -> Callable[[], tuple]:
        def timed() -> tuple:
            t0 = time.perf_counter()
            try:
                return thunk()
            finally:
                timings[j] = time.perf_counter() - t0

        return timed

    def _fold_epoch_metrics(self, report: EpochReport) -> None:
        """Fold one closed epoch into the metrics registry.

        Only deterministic quantities: op counts, charged I/O, and the
        epoch's shard imbalance.  No wall-time series, so two same-seed
        runs — in any shard order — produce equal registries.
        """
        metrics = self._metrics
        metrics.inc("repro_epochs_total")
        metrics.inc("repro_ops_total", report.inserts, kind="insert")
        metrics.inc("repro_ops_total", report.lookups, kind="lookup")
        metrics.inc("repro_ops_total", report.deletes, kind="delete")
        metrics.observe("repro_epoch_io", report.io)
        metrics.observe("repro_epoch_ops", report.stop - report.start)
        shard_io = self._last_epoch_shard_io
        total = sum(shard_io)
        if total:
            metrics.set_gauge(
                "repro_epoch_imbalance", max(shard_io) * len(shard_io) / total
            )

    def _fold_journal_metrics(self, kind: str) -> None:
        delta = self.journal.bytes_written - self._journal_bytes_mark
        self._journal_bytes_mark = self.journal.bytes_written
        self._metrics.inc(f"repro_journal_{kind}s_total")
        self._metrics.inc("repro_journal_bytes_total", delta)

    def _emit_epoch_span(
        self,
        report: EpochReport,
        idx: int,
        shard_order: list[int],
        timings: list[float] | None,
    ) -> None:
        """One ``epoch`` span (shard batches embedded) + eviction events.

        Emitted by the coordinator after the ledger merge, never from a
        shard thunk, so record order does not depend on shard order.
        """
        deltas = self._last_epoch_shard_deltas
        shards = []
        for j, shard in enumerate(shard_order):
            d = deltas[shard]
            batch = {"shard": shard, "io": d.total, **d.as_dict()}
            if timings is not None:
                batch["wall_ms"] = round(timings[j] * 1e3, 3)
            shards.append(batch)
        span = {
            "run": self._run_seq - 1 if self._run_seq else 0,
            "epoch": idx,
            "start": self._trace_base + report.start,
            "stop": self._trace_base + report.stop,
            "ops": report.stop - report.start,
            "inserts": report.inserts,
            "lookups": report.lookups,
            "deletes": report.deletes,
            "io": report.io,
            "wall_ms": round(report.seconds * 1e3, 3),
            "shards": shards,
        }
        cache = self._last_cache_delta
        if cache.accesses or cache.negative_hits or cache.evictions:
            span["cache"] = cache.as_dict()
        self.recorder.emit("epoch", **span)
        if cache.evictions:
            self.recorder.emit(
                "cache_evict",
                epoch=idx,
                evictions=cache.evictions,
                writebacks=cache.writebacks,
            )

    def metrics(self) -> MetricsRegistry:
        """The cluster metrics registry (see :mod:`repro.obs.metrics`).

        Always on; survives :func:`~repro.service.recovery.restore_service`
        and counts on after a restore.  ``metrics().render()`` gives the
        Prometheus text dump.
        """
        return self._metrics

    # -- rebalancing ---------------------------------------------------------

    def _maybe_rebalance(self) -> None:
        """Observe the closed epoch; migrate hot slots if the policy fires.

        The protocol per decision: journal the REBALANCE record
        (write-ahead, fsynced) **then** execute the moves — a crash at
        any point mid-migration leaves the record durable and recovery
        re-executes the drains deterministically.
        """
        if self.rebalancer is None:
            return
        self.rebalancer.observe(self._last_epoch_shard_io, self._epoch_slot_ops)
        moves = self.rebalancer.decide(self.epochs_run, self.directory)
        if not moves:
            return
        if self.journal is not None:
            self.journal.append_rebalance(
                self.migrations_applied,
                self.ops_committed,
                [(m.slot, m.src, m.dst) for m in moves],
            )
            self._fold_journal_metrics("rebalance")
            if self.recorder is not None:
                self.recorder.emit(
                    "fsync",
                    kind="rebalance",
                    migration=self.migrations_applied,
                    bytes=self.journal.bytes_written,
                )
        self._apply_moves(moves)
        self.rebalancer.note_moved(self.epochs_run, moves)

    def _apply_moves(self, moves: Sequence[SlotMove]) -> None:
        """Drain + refill + repoint, charging the drains to the ledgers."""
        report = self._migrate(moves)
        # Fold the migration's charges in immediately: the cluster
        # ledger sees every drain I/O (no free moves), the per-shard
        # marks advance past it, and migration_io keeps the separate
        # tally reports surface.
        io = self._merge_ledgers()
        self.migration_io += io
        self.migrated_slots += report.slots_moved
        self.keys_moved += report.keys_moved
        seq = self.migrations_applied
        self.migrations_applied += 1
        metrics = self._metrics
        metrics.inc("repro_migrations_total")
        metrics.inc("repro_migrated_slots_total", report.slots_moved)
        metrics.inc("repro_migration_keys_total", report.keys_moved)
        metrics.inc("repro_migration_io_total", io)
        if self.recorder is not None:
            self.recorder.emit(
                "rebalance",
                migration=seq,
                epoch=max(self.epochs_run - 1, 0),
                moves=len(moves),
                slots_moved=report.slots_moved,
                keys_moved=report.keys_moved,
                io=io,
            )

    def apply_rebalance_record(
        self, seq: int, moves: Sequence[tuple[int, int, int]]
    ) -> bool:
        """Re-execute one journaled migration during recovery.

        Returns ``False`` (a no-op) when the snapshot already contains
        migration ``seq``; raises on a sequence gap.  The re-executed
        drains are pure functions of the shard state the committed-epoch
        replay rebuilt, so the outcome is bit-identical to the original
        migration.
        """
        if seq < self.migrations_applied:
            return False
        if seq != self.migrations_applied:
            raise ValueError(
                f"migration gap: journal has migration {seq} but durable "
                f"state ends at {self.migrations_applied}"
            )
        slot_moves = [SlotMove(*m) for m in moves]
        self._apply_moves(slot_moves)
        if self.rebalancer is not None:
            self.rebalancer.note_moved(self.epochs_run, slot_moves)
        return True

    # -- aggregation / instrumentation --------------------------------------

    def io_snapshot(self) -> IOSnapshot:
        """Cluster I/O counters (merged ledger) as of the last epoch close."""
        return self.ledger.snapshot()

    def cache_snapshot(self) -> CacheStats:
        """Cluster cache counters as of the last epoch close.

        All-zero for uncached clusters (``cache_blocks=0``) — reports
        stay schema-stable across the caching axis.
        """
        return self.cache.snapshot()

    def close(self) -> None:
        """Release the trace file (idempotent)."""
        if self.recorder is not None:
            self.recorder.close()

    def __enter__(self) -> "DictionaryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.name}(shards={self.shards}, "
            f"executor={self.executor.name!r}, "
            f"epoch_ops={self.epoch_ops}, n={len(self)})"
        )
