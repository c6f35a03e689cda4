"""Snapshot, restore, and crash recovery for a live :class:`DictionaryService`.

The durability story has two halves:

* **Snapshot** — :func:`snapshot_service` pickles the *complete* service
  state in one object graph: the template context, every per-shard
  machine (disk + backend arenas + memory budget + I/O ledger), the
  shard tables, the router hash, the cluster ledger, and the committed
  stream position.  One graph matters: tables hold references into
  their shard contexts, and pickle preserves that sharing, so a
  restored service is wired exactly like the original.  The file is
  written atomically (temp file + fsync + ``os.replace``), so a crash
  mid-snapshot leaves the previous snapshot intact.

* **Recovery** — :func:`recover` loads the last snapshot, scans the
  epoch journal (:mod:`repro.service.journal`), and re-executes every
  *committed* epoch past the snapshot's stream position.  Epochs whose
  COMMIT marker never hit the disk — including the half-executed epoch
  a crash interrupted — are discarded; the journal is truncated back to
  its committed prefix so the resuming client simply re-submits from
  ``ops_committed`` and the re-run epoch is re-journaled cleanly.

The recovery invariant (pinned by ``tests/test_recovery.py``): replaying
committed epochs is a deterministic re-execution, so the recovered
service's layout snapshot, lookup results, per-shard ledgers, cluster
:class:`~repro.em.iostats.IOStats` and memory peaks are **bit-identical**
to an uninterrupted run of the same trace.  Crashed in-memory state is
never reused — recovery always starts from the snapshot file.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..em.cache import CacheStats
from ..obs import MetricsRegistry
from ..tables.sharded import SlotDirectory
from .journal import EpochJournal
from .service import DictionaryService, make_executor

__all__ = [
    "RecoveryReport",
    "recover",
    "restore_service",
    "snapshot_service",
]

_SNAPSHOT_VERSION = 1


def snapshot_service(service: DictionaryService, path: str | Path) -> None:
    """Checkpoint ``service`` to ``path`` atomically.

    Call between :meth:`DictionaryService.run` calls (or between epochs
    of a window-by-window driver): that is the commit boundary at which
    per-shard ledgers have merged and no staging state is in flight.
    The executor and journal handles are deliberately excluded — they
    are reattached on restore.
    """
    state = {
        "version": _SNAPSHOT_VERSION,
        "name": service.name,
        "ctx": service.ctx,
        "shards": service.shards,
        "epoch_ops": service.epoch_ops,
        "router": service.router,
        "contexts": service._contexts,
        "tables": service._tables,
        "ledger": service.ledger,
        "cache": service.cache,
        "epochs_run": service.epochs_run,
        "ops_committed": service.ops_committed,
        "executor": getattr(service.executor, "name", "serial"),
        "directory": service.directory,
        "rebalancer": service.rebalancer,
        "migrated_slots": service.migrated_slots,
        "keys_moved": service.keys_moved,
        "migration_io": service.migration_io,
        "migrations_applied": service.migrations_applied,
        "metrics": service._metrics,
        "setup_io": service.setup_io,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def restore_service(
    path: str | Path, *, executor: str | None = None
) -> DictionaryService:
    """Rebuild a service from a snapshot file.

    ``executor`` overrides the snapshotted executor name (e.g. restore a
    ``threads`` service as ``serial`` for debugging).  The restored
    service has no journal attached; :func:`recover` reattaches one.
    """
    with open(path, "rb") as fh:
        state = pickle.load(fh)
    if state.get("version") != _SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {state.get('version')!r} in {path}"
        )
    svc = DictionaryService.__new__(DictionaryService)
    svc.ctx = state["ctx"]
    svc.shards = state["shards"]
    svc.epoch_ops = state["epoch_ops"]
    svc.name = state["name"]
    svc.router = state["router"]
    svc.executor = make_executor(executor or state["executor"])
    svc._contexts = state["contexts"]
    svc._tables = state["tables"]
    svc.ledger = state["ledger"]
    # Older snapshots predate the cache ledger; restore them uncached.
    svc.cache = state.get("cache", CacheStats())
    # Snapshots are taken at epoch boundaries, where the last merge left
    # marks equal to the live per-shard counters — so fresh marks
    # reproduce them exactly.
    svc._marks = svc._ledger_marks()
    svc.epochs_run = state["epochs_run"]
    svc.journal = None
    svc.ops_committed = state["ops_committed"]
    # Older snapshots predate the slot directory; they can only have
    # routed statically, so a fresh static directory restores them
    # exactly.
    directory = state.get("directory")
    svc.directory = (
        directory
        if directory is not None
        else SlotDirectory(svc.router, svc.shards)
    )
    svc.rebalancer = state.get("rebalancer")
    svc.migrated_slots = state.get("migrated_slots", 0)
    svc.keys_moved = state.get("keys_moved", 0)
    svc.migration_io = state.get("migration_io", 0)
    svc.migrations_applied = state.get("migrations_applied", 0)
    # Observability: the metrics registry rides the snapshot (older
    # snapshots restore with a fresh one); trace recorders are handles,
    # not state — a restored service starts untraced.
    svc._metrics = state.get("metrics") or MetricsRegistry()
    svc.setup_io = state.get("setup_io", 0)
    svc.obs = None
    svc.recorder = None
    svc.metrics_listener = None
    svc._run_seq = 0
    svc._trace_base = svc.ops_committed
    svc._journal_bytes_mark = 0
    return svc


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` did.

    ``committed_through`` is the global stream position durable state
    now extends to — the resuming client re-submits its trace from
    there.  ``discarded_ops`` counts journaled-but-uncommitted ops (the
    half-executed epoch) that were dropped and must be re-submitted.
    """

    service: DictionaryService
    replayed_epochs: int
    replayed_ops: int
    discarded_ops: int
    committed_through: int


def recover(
    snapshot_path: str | Path,
    journal_path: str | Path | None = None,
    *,
    executor: str | None = None,
    resume_journal: bool = True,
) -> RecoveryReport:
    """Snapshot + committed-journal-suffix recovery.

    Restores the snapshot, replays every committed epoch whose ops lie
    past the snapshot's stream position, truncates the journal back to
    its committed prefix, and (by default) reattaches a live journal so
    the resumed service keeps the same durability guarantee.
    """
    svc = restore_service(snapshot_path, executor=executor)
    replayed = replayed_ops = discarded = 0
    if journal_path is not None:
        scan = EpochJournal.scan(journal_path)
        # Log order: a REBALANCE record re-executes exactly between the
        # committed epochs it originally ran between, against the shard
        # state their replay just rebuilt — so a crash mid-migration
        # recovers to the same slot map, layouts and ledgers as an
        # uninterrupted run.
        for rec in scan.redo:
            if rec.kind == "rebalance":
                svc.apply_rebalance_record(rec.epoch, rec.moves)
                continue
            if rec.stop <= svc.ops_committed:
                continue  # already folded into the snapshot
            if rec.start != svc.ops_committed:
                raise ValueError(
                    f"journal gap: committed epoch {rec.epoch} starts at op "
                    f"{rec.start} but durable state ends at {svc.ops_committed}"
                )
            svc.replay_epoch(rec.start, rec.stop, rec.kinds, rec.keys)
            replayed += 1
            replayed_ops += rec.ops
        discarded = scan.uncommitted_ops
        if resume_journal:
            if Path(journal_path).exists():
                EpochJournal.truncate(journal_path, scan.committed_bytes)
            svc.journal = EpochJournal(journal_path)
    return RecoveryReport(
        service=svc,
        replayed_epochs=replayed,
        replayed_ops=replayed_ops,
        discarded_ops=discarded,
        committed_through=svc.ops_committed,
    )
