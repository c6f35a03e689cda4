"""Snapshot/restore and crash recovery: the bit-identity guarantees.

The central claim of the durability subsystem: for *any* crash point —
journal append, journal commit, or an arbitrary backend op mid-epoch —
recovery from the snapshot plus the committed journal suffix, followed
by re-submitting the trace from ``ops_committed`` on the original
window grid, reproduces the uninterrupted run **bit for bit**: layout
snapshots, lookup results, per-shard and cluster ledgers, shard sizes,
memory peaks.  ``run_crash_matrix`` asserts all of it per crash point;
this file drives the matrix across policy × backend and pins the
snapshot/restore and replay primitives individually.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffered import BufferedHashTable
from repro.em import PAPER_POLICY, STRICT_POLICY, make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import (
    DictionaryService,
    EpochJournal,
    SerialExecutor,
    recover,
    restore_service,
    run_crash_matrix,
    snapshot_service,
)
from repro.tables.chaining import ChainedHashTable
from repro.workloads.generators import UniformKeys
from repro.workloads.trace import BulkMixedWorkload

MIX = (0.45, 0.30, 0.15, 0.10)


def _buffered(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _chained(ctx):
    return ChainedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _make_service(backend="mapping", policy=None, shards=3, factory=_buffered):
    ctx = make_context(b=16, m=128, u=10**12, backend=backend, policy=policy)
    return DictionaryService(ctx, factory, shards=shards, epoch_ops=256)


def _trace(n, chunk=200, seed=9):
    wl = BulkMixedWorkload(UniformKeys(10**12, seed=3), mix=MIX, seed=seed, chunk=chunk)
    return wl.take_arrays(n)


def _ledger(svc):
    s = svc.io_snapshot()
    return (s.reads, s.writes, s.combined, s.allocations)


class TestSnapshotRestore:
    @pytest.mark.parametrize("backend", ["mapping", "arena", "durable-arena"])
    def test_restored_service_continues_bit_identically(self, tmp_path, backend):
        kinds, keys = _trace(1600)
        svc = _make_service(backend)
        svc.run(kinds[:800], keys[:800])
        snapshot_service(svc, tmp_path / "s.pkl")
        twin = restore_service(tmp_path / "s.pkl")
        svc.run(kinds[800:], keys[800:])
        twin.run(kinds[800:], keys[800:])
        assert _ledger(svc) == _ledger(twin)
        assert svc.shard_sizes() == twin.shard_sizes()
        assert svc.memory_high_water() == twin.memory_high_water()
        a, b = svc.layout_snapshot(), twin.layout_snapshot()
        assert dict(a.blocks) == dict(b.blocks)
        assert a.memory_items == b.memory_items

    def test_snapshot_is_atomic_replace(self, tmp_path):
        svc = _make_service()
        path = tmp_path / "s.pkl"
        snapshot_service(svc, path)
        first = path.read_bytes()
        kinds, keys = _trace(400)
        svc.run(kinds, keys)
        snapshot_service(svc, path)
        assert path.read_bytes() != first
        assert not list(tmp_path.glob("*.tmp*"))  # no droppings

    def test_restore_rejects_unknown_version(self, tmp_path):
        import pickle

        path = tmp_path / "bad.pkl"
        path.write_bytes(pickle.dumps({"version": 999}))
        with pytest.raises(ValueError, match="snapshot version"):
            restore_service(path)

    def test_restore_ignores_snapshot_executor(self, tmp_path):
        """A snapshot whose state names the ``threads`` executor restores
        to a serial service, which runs on to the writer's own ledgers."""
        import pickle

        kinds, keys = _trace(1600)
        svc = _make_service()
        svc.run(kinds[:800], keys[:800])
        path = tmp_path / "s.pkl"
        snapshot_service(svc, path)
        state = pickle.loads(path.read_bytes())
        assert state["executor"] == "serial"
        state["executor"] = "threads"
        path.write_bytes(pickle.dumps(state))
        twin = restore_service(path)
        assert type(twin.executor) is SerialExecutor
        svc.run(kinds[800:], keys[800:])
        twin.run(kinds[800:], keys[800:])
        assert _ledger(svc) == _ledger(twin)
        assert svc.shard_io_snapshots() == twin.shard_io_snapshots()
        assert svc.shard_sizes() == twin.shard_sizes()


class TestJournalReplay:
    def test_full_trace_replay_matches(self, tmp_path):
        kinds, keys = _trace(2000)
        svc = _make_service()
        snapshot_service(svc, tmp_path / "s.pkl")
        svc.journal = EpochJournal(tmp_path / "j.bin", fsync=False)
        svc.run(kinds, keys)
        svc.journal.close()
        rep = recover(tmp_path / "s.pkl", tmp_path / "j.bin")
        assert rep.replayed_epochs == svc.epochs_run
        assert rep.replayed_ops == 2000
        assert rep.discarded_ops == 0
        assert rep.committed_through == 2000
        assert _ledger(rep.service) == _ledger(svc)
        assert rep.service.shard_sizes() == svc.shard_sizes()

    def test_mid_trace_snapshot_skips_prefix(self, tmp_path):
        kinds, keys = _trace(1200)
        svc = _make_service()
        svc.journal = EpochJournal(tmp_path / "j.bin", fsync=False)
        svc.run(kinds[:600], keys[:600])
        snapshot_service(svc, tmp_path / "s.pkl")
        svc.run(kinds[600:], keys[600:])
        svc.journal.close()
        rep = recover(tmp_path / "s.pkl", tmp_path / "j.bin")
        # Only the epochs after the checkpoint replay.
        assert 0 < rep.replayed_ops <= 600
        assert _ledger(rep.service) == _ledger(svc)

    def test_recovery_without_journal(self, tmp_path):
        kinds, keys = _trace(400)
        svc = _make_service()
        svc.run(kinds, keys)
        snapshot_service(svc, tmp_path / "s.pkl")
        rep = recover(tmp_path / "s.pkl")
        assert rep.replayed_epochs == 0
        assert _ledger(rep.service) == _ledger(svc)

    def test_resumed_journal_continues_cleanly(self, tmp_path):
        kinds, keys = _trace(800, chunk=100)
        svc = _make_service()
        snapshot_service(svc, tmp_path / "s.pkl")
        svc.journal = EpochJournal(tmp_path / "j.bin", fsync=False)
        svc.run(kinds[:400], keys[:400])
        svc.journal.close()
        rep = recover(tmp_path / "s.pkl", tmp_path / "j.bin")
        rep.service.run(kinds[400:], keys[400:])  # re-journaled via resume
        rep.service.journal.close()
        scan = EpochJournal.scan(tmp_path / "j.bin")
        assert scan.uncommitted_ops == 0
        assert [r.epoch for r in scan.committed] == list(range(rep.service.epochs_run))
        assert scan.committed[-1].stop == 800


class TestChaosMatrix:
    """The acceptance matrix: every crash point, per policy × backend."""

    @pytest.mark.parametrize("policy", [PAPER_POLICY, STRICT_POLICY],
                             ids=["paper", "strict"])
    @pytest.mark.parametrize("backend", ["mapping", "durable-arena"])
    def test_every_crash_point_recovers_bit_identically(self, policy, backend):
        kinds, keys = _trace(1000, chunk=125)  # sub-window chunks: multi-epoch windows
        report = run_crash_matrix(
            lambda: _make_service(backend, policy=policy),
            kinds,
            keys,
            window=250,
            sample_ops=8,
            seed=11,
        )
        assert report.epochs >= 4
        # Every epoch boundary (append + commit) plus 8 intra-epoch ops.
        assert report.points == 2 * report.epochs + 8
        assert report.crashes == report.points  # every scheduled crash fired
        assert report.retries > 0  # transient faults occurred and healed
        replays = [o.replayed_epochs for o in report.outcomes]
        assert max(replays) > 0  # some legs actually replayed epochs

    def test_chained_table_service_also_recovers(self):
        kinds, keys = _trace(600, chunk=100)
        report = run_crash_matrix(
            lambda: _make_service("arena", shards=2, factory=_chained),
            kinds,
            keys,
            window=200,
            sample_ops=4,
            seed=5,
        )
        assert report.crashes == report.points

    def test_burst_beyond_budget_rejected(self):
        kinds, keys = _trace(100)
        with pytest.raises(ValueError, match="retry budget"):
            run_crash_matrix(
                lambda: _make_service(),
                kinds,
                keys,
                window=100,
                fault_burst=99,
            )
