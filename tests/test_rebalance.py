"""Skew-adaptive sharding: slot directory, policy, migration, recovery.

The relabelling contract this file pins (ISSUE 9):

* rebalancing **disabled** — the slot directory's static map routes
  bit-identically to ``hash % shards``: same results, layouts, ledgers
  as the pre-directory router, for every generator kind and shard count;
* rebalancing **enabled** — results still equal program order and the
  cluster conserves its key set; only the *placement* (and therefore
  the per-shard I/O split) changes, with every migration charged and
  journaled write-ahead so a crash at any point mid-migration recovers
  to the uninterrupted run's exact state.

Plus the determinism satellites: scalar/vector router parity across
all five key-generator kinds, ``take`` vs ``stream`` chunk-invariance,
and the slot-directory snapshot/restore round trip.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro.core.buffered import BufferedHashTable
from repro.core.config import KEY_DISTS, RebalanceConfig
from repro.em import make_context
from repro.em.errors import ConfigurationError
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import (
    ClosedLoopClient,
    DictionaryService,
    EpochJournal,
    Rebalancer,
    recover,
    restore_service,
    snapshot_service,
)
from repro.tables.rebalance import SlotMove, apply_moves, slot_keys
from repro.tables.sharded import (
    DEFAULT_SLOTS_PER_SHARD,
    _ROUTER_SEED,
    ShardedDictionary,
    SlotDirectory,
)
from repro.workloads.generators import ZipfKeys, make_generator
from repro.workloads.trace import BulkMixedWorkload

U = 10**12
MIX = (0.45, 0.30, 0.15, 0.10)
GENERATOR_KINDS = sorted(KEY_DISTS)


def _buffered(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=7))


def _gen(kind, u=U, seed=5, shards=4):
    """A generator of ``kind``, supplying the kind-specific kwargs."""
    if kind == "zipf":
        return make_generator(kind, u, seed, theta=1.3)
    if kind == "adversarial":
        return make_generator(
            kind, u, seed,
            hash_fn=MULTIPLY_SHIFT.sample(u, seed=_ROUTER_SEED),
            buckets=shards, hot=1,
        )
    return make_generator(kind, u, seed)


def _skewed_trace(n, *, shards=4, chunk=256, seed=9):
    """A mixed trace whose every key attacks shard 0 of the static map."""
    wl = BulkMixedWorkload(
        _gen("adversarial", shards=shards), mix=MIX, seed=seed, chunk=chunk
    )
    return wl.take_arrays(n)


def _make_service(*, shards=4, rebalance=None, journal=None, epoch_ops=256):
    ctx = make_context(b=16, m=128, u=U, backend="mapping")
    return DictionaryService(
        ctx, _buffered, shards=shards, epoch_ops=epoch_ops,
        rebalance=rebalance, journal=journal,
    )


def _ledger(svc):
    s = svc.io_snapshot()
    return (s.reads, s.writes, s.combined, s.allocations)


def _state(svc):
    """The full bit-identity fingerprint used by the recovery tests."""
    snap = svc.layout_snapshot()
    return (
        _ledger(svc),
        svc.shard_sizes(),
        svc.memory_high_water(),
        dict(snap.blocks),
        snap.memory_items,
        tuple(svc.directory.slot_map.tolist()),
        (svc.migrated_slots, svc.keys_moved, svc.migrations_applied),
    )


# ---------------------------------------------------------------------------
# Slot directory


class TestSlotDirectory:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    def test_static_map_is_bit_identical_to_modulo_routing(self, shards):
        router = MULTIPLY_SHIFT.sample(U, seed=_ROUTER_SEED)
        directory = SlotDirectory(router, shards)
        keys = np.random.default_rng(1).integers(0, U, size=4096, dtype=np.uint64)
        expected = (router.hash_array(keys) % np.uint64(shards)).astype(np.int64)
        assert directory.is_static()
        np.testing.assert_array_equal(directory.shards_of(keys), expected)
        for k in keys[:64]:
            assert directory.shard_of(int(k)) == int(router.hash(int(k))) % shards

    def test_default_fanout_and_divisibility(self):
        router = MULTIPLY_SHIFT.sample(U, seed=_ROUTER_SEED)
        directory = SlotDirectory(router, 4)
        assert directory.slots == 4 * DEFAULT_SLOTS_PER_SHARD
        with pytest.raises(ConfigurationError):
            SlotDirectory(router, 4, slots=10)  # not a multiple
        with pytest.raises(ConfigurationError):
            SlotDirectory(router, 4, slots=0)

    def test_assign_repoints_and_bumps_version(self):
        directory = SlotDirectory(MULTIPLY_SHIFT.sample(U, seed=1), 2)
        assert directory.version == 0
        directory.assign(0, 1)
        assert directory.version == 1
        assert not directory.is_static()
        assert 0 in directory.shard_slots(1)
        keys = np.random.default_rng(2).integers(0, U, size=2048, dtype=np.uint64)
        slots = directory.slots_of(keys)
        np.testing.assert_array_equal(
            directory.shards_of(keys)[slots == 0],
            np.ones(int((slots == 0).sum()), dtype=np.int64),
        )
        with pytest.raises(ConfigurationError):
            directory.assign(0, 2)  # shard out of range
        with pytest.raises(ConfigurationError):
            directory.assign(directory.slots, 0)  # slot out of range

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_scalar_vector_parity_per_generator(self, kind, shards):
        """``shard_of(k) == directory.shards_of([k])[0]`` for every kind × N."""
        ctx = make_context(b=16, m=128, u=U)
        table = ShardedDictionary(ctx, _buffered, shards=shards)
        keys = _gen(kind, shards=shards).take(256)
        for k in keys:
            vec = table.directory.shards_of(np.array([k], dtype=np.uint64))
            assert table.shard_of(k) == int(vec[0])


# ---------------------------------------------------------------------------
# Policy


def _fed(rebalancer, io_rows, ops_rows):
    for io, ops in zip(io_rows, ops_rows):
        rebalancer.observe(io, ops)
    return rebalancer


class TestRebalancerPolicy:
    def _directory(self, shards=4, slots=8):
        return SlotDirectory(MULTIPLY_SHIFT.sample(U, seed=3), shards, slots=slots)

    def test_no_observations_no_moves(self):
        assert Rebalancer().decide(0, self._directory()) == []
        assert Rebalancer().imbalance() == 0.0

    def test_balanced_load_is_left_alone(self):
        rb = _fed(Rebalancer(), [[100, 100, 100, 100]], [[50] * 8])
        assert rb.decide(1, self._directory()) == []
        assert rb.imbalance() == pytest.approx(1.0)

    def test_idle_cluster_below_min_io_is_left_alone(self):
        rb = _fed(Rebalancer(RebalanceConfig(min_io=64)),
                  [[40, 1, 1, 1]], [[40, 0, 0, 0, 0, 0, 0, 0]])
        assert rb.decide(1, self._directory()) == []

    def test_hot_shard_sheds_its_hottest_slots_to_coldest(self):
        # Shard 0 owns slots {0, 4}; slot 0 carries most of the load.
        rb = _fed(Rebalancer(),
                  [[900, 30, 30, 30]],
                  [[500, 10, 10, 10, 400, 10, 10, 10]])
        moves = rb.decide(1, self._directory())
        assert moves and moves[0].src == 0
        assert moves[0].slot == 0  # hottest first
        assert all(mv.dst != 0 for mv in moves)
        assert rb.imbalance() == pytest.approx(900 * 4 / 990)

    def test_single_hot_slot_does_not_ping_pong(self):
        # All the load is one slot: moving it just relabels the worst
        # shard, so the anti-ping-pong rule must refuse.
        rb = _fed(Rebalancer(),
                  [[960, 10, 10, 20]],
                  [[960, 0, 0, 0, 0, 0, 0, 0]])
        assert rb.decide(1, self._directory()) == []

    def test_cooldown_suppresses_consecutive_migrations(self):
        cfg = RebalanceConfig(cooldown=2)
        rb = _fed(Rebalancer(cfg),
                  [[900, 30, 30, 30]],
                  [[500, 10, 10, 10, 400, 10, 10, 10]])
        directory = self._directory()
        moves = rb.decide(1, directory)
        assert moves
        rb.note_moved(1, moves)
        assert rb.moves_applied == len(moves)
        for epoch in (2, 3):  # within cooldown
            assert rb.decide(epoch, directory) == []
        assert rb.decide(4, directory) != []

    def test_max_moves_caps_one_decision(self):
        cfg = RebalanceConfig(max_moves=1)
        directory = SlotDirectory(
            MULTIPLY_SHIFT.sample(U, seed=3), 4, slots=16
        )
        rb = _fed(Rebalancer(cfg),
                  [[900, 30, 30, 30]],
                  [[200, 0, 0, 0] * 4])
        assert len(rb.decide(1, directory)) == 1

    def test_worst_shard_keeps_at_least_one_slot(self):
        directory = SlotDirectory(MULTIPLY_SHIFT.sample(U, seed=3), 2, slots=4)
        rb = _fed(Rebalancer(RebalanceConfig(max_moves=8)),
                  [[990, 10]],
                  [[500, 5, 480, 5]])
        moves = rb.decide(1, directory)
        assert len(moves) <= 1  # shard 0 owns 2 slots; one must stay

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RebalanceConfig(threshold=1.0)
        with pytest.raises(ConfigurationError):
            RebalanceConfig(window=0)
        with pytest.raises(ConfigurationError):
            RebalanceConfig(max_moves=0)
        with pytest.raises(ConfigurationError):
            RebalanceConfig(cooldown=-1)
        with pytest.raises(ConfigurationError):
            RebalanceConfig(min_io=-1)


# ---------------------------------------------------------------------------
# Migration mechanism


class TestApplyMoves:
    def _cluster(self, shards=2, n=400):
        ctx = make_context(b=16, m=128, u=U)
        table = ShardedDictionary(ctx, _buffered, shards=shards)
        keys = _gen("uniform").take(n)
        table.insert_batch(keys)
        return table, keys

    def test_migration_conserves_keys_and_results(self):
        table, keys = self._cluster()
        before = len(table)
        # Move the three most populated shard-0 slots to shard 1.
        counts = [
            (len(slot_keys(table.shard_tables()[0], table.directory, int(s))), int(s))
            for s in table.directory.shard_slots(0)
        ]
        hot = [s for c, s in sorted(counts, reverse=True)[:3] if c > 0]
        assert hot, "fixture should populate shard-0 slots"
        report = table.migrate_slots([(s, 0, 1) for s in hot])
        assert report.slots_moved == len(hot)
        assert report.keys_moved > 0
        assert len(table) == before
        assert all(table.lookup_batch(np.array(keys, dtype=np.uint64)))
        moved = [k for k in keys if table.directory.slot_of(k) in set(hot)]
        assert moved and all(table.shard_of(k) == 1 for k in moved)

    def test_empty_slot_still_repoints(self):
        table, _ = self._cluster(n=4)
        empty = next(
            int(s) for s in table.directory.shard_slots(0)
            if len(slot_keys(table.shard_tables()[0], table.directory, int(s))) == 0
        )
        report = apply_moves(
            table.directory, table.shard_tables(), [SlotMove(empty, 0, 1)]
        )
        assert report.keys_moved == 0
        assert int(table.directory.slot_map[empty]) == 1

    def test_stale_source_is_rejected(self):
        table, _ = self._cluster()
        slot = int(table.directory.shard_slots(1)[0])
        with pytest.raises(ValueError, match="maps to shard"):
            apply_moves(table.directory, table.shard_tables(), [(slot, 0, 1)])

    def test_migration_io_is_charged(self):
        table, _ = self._cluster()
        marks = [sub.stats.total for sub in [t.ctx for t in table.shard_tables()]]
        counts = [
            (len(slot_keys(table.shard_tables()[0], table.directory, int(s))), int(s))
            for s in table.directory.shard_slots(0)
        ]
        hot = max(counts)[1]
        table.migrate_slots([(hot, 0, 1)])
        after = [sub.stats.total for sub in [t.ctx for t in table.shard_tables()]]
        assert sum(after) > sum(marks)  # drains and refills hit the ledgers


# ---------------------------------------------------------------------------
# Service contract: static vs adaptive


class TestServiceRelabelling:
    def test_disabled_rebalancing_is_bit_identical_to_static(self):
        kinds, keys = _skewed_trace(2000)
        static = _make_service()
        routed = _make_service(rebalance=None)
        a, b = static.run(kinds, keys), routed.run(kinds, keys)
        np.testing.assert_array_equal(a.lookup_found, b.lookup_found)
        np.testing.assert_array_equal(a.delete_removed, b.delete_removed)
        assert _ledger(static) == _ledger(routed)
        assert static.shard_sizes() == routed.shard_sizes()
        assert routed.directory.is_static()
        assert routed.migrated_slots == routed.migration_io == 0

    def test_adaptive_results_equal_program_order(self):
        kinds, keys = _skewed_trace(4000)
        static = _make_service()
        adaptive = _make_service(rebalance=True)
        a = static.run(kinds, keys)
        b = adaptive.run(kinds, keys)
        np.testing.assert_array_equal(a.lookup_found, b.lookup_found)
        np.testing.assert_array_equal(a.delete_removed, b.delete_removed)
        assert len(static) == len(adaptive)  # cluster size conserved
        assert adaptive.migrated_slots > 0
        assert adaptive.keys_moved > 0
        assert adaptive.migration_io > 0  # no free moves
        adaptive.check_invariants()

    def test_adaptive_cuts_the_worst_shard_share(self):
        kinds, keys = _skewed_trace(4000)
        static = _make_service()
        adaptive = _make_service(rebalance=True)
        static.run(kinds, keys)
        adaptive.run(kinds, keys)

        def ratio(svc):
            totals = np.array([s.total for s in svc.shard_io_snapshots()])
            return float(totals.max() * len(totals) / totals.sum())

        # Every key attacks shard 0, so the static ratio is the shard
        # count; migrations must spread the load measurably.
        assert ratio(static) == pytest.approx(4.0, rel=0.05)
        assert ratio(adaptive) < ratio(static)

    def test_client_report_surfaces_imbalance_and_migrations(self):
        kinds, keys = _skewed_trace(3000)
        adaptive = _make_service(rebalance=True)
        row = ClosedLoopClient(adaptive, window=512).drive(kinds, keys).row()
        assert row["migrated_slots"] == adaptive.migrated_slots > 0
        assert row["imbalance"] > 0.0
        static = _make_service()
        srow = ClosedLoopClient(static, window=512).drive(kinds, keys).row()
        assert srow["migrated_slots"] == 0
        assert srow["imbalance"] >= row["imbalance"]


# ---------------------------------------------------------------------------
# Durability: journal records + crash recovery mid-migration


class TestRebalanceJournal:
    def test_rebalance_record_round_trips(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = EpochJournal(path, fsync=False)
        kinds = np.array([0, 1], dtype=np.uint8)
        keys = np.array([3, 4], dtype=np.uint64)
        journal.append_epoch(0, 0, 2, kinds, keys)
        journal.commit(0, 0, 2)
        moves = [(5, 0, 1), (9, 0, 2)]
        journal.append_rebalance(0, 2, moves)
        journal.close()
        scan = EpochJournal.scan(path)
        assert [r.kind for r in scan.redo] == ["ops", "rebalance"]
        reb = scan.redo[-1]
        assert reb.epoch == 0  # the migration sequence number
        assert reb.moves == tuple(moves)
        assert scan.committed_bytes == scan.valid_bytes
        assert scan.uncommitted_ops == 0

    def test_empty_move_list_is_rejected(self, tmp_path):
        journal = EpochJournal(tmp_path / "j.bin", fsync=False)
        with pytest.raises(ValueError):
            journal.append_rebalance(0, 0, [])

    def test_torn_rebalance_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = EpochJournal(path, fsync=False)
        journal.append_rebalance(0, 0, [(5, 0, 1), (9, 0, 2)])
        journal.close()
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])  # tear mid-payload
        scan = EpochJournal.scan(path)
        assert scan.redo == []
        assert scan.committed_bytes == 0

    def test_crash_between_record_and_migration_recovers(self, tmp_path, monkeypatch):
        """The chaos case: REBALANCE is durable, the drains never ran.

        Recovery replays the committed epochs, re-executes the journaled
        migration against the replayed shard state, and the resumed run
        lands bit-identical to an uninterrupted twin.
        """
        kinds, keys = _skewed_trace(4000)
        ref = _make_service(rebalance=True)
        ref.run(kinds, keys)
        assert ref.migrations_applied > 0  # the scenario actually fires

        svc = _make_service(
            rebalance=True, journal=EpochJournal(tmp_path / "j.bin", fsync=False)
        )
        snapshot_service(svc, tmp_path / "s.pkl")
        crashed = {}
        original = DictionaryService._apply_moves

        def power_loss(self, moves):
            if not crashed:
                crashed["at"] = self.ops_committed
                raise RuntimeError("crash mid-migration")
            return original(self, moves)

        monkeypatch.setattr(DictionaryService, "_apply_moves", power_loss)
        with pytest.raises(RuntimeError, match="crash mid-migration"):
            svc.run(kinds, keys)
        svc.journal.close()
        monkeypatch.setattr(DictionaryService, "_apply_moves", original)

        rep = recover(tmp_path / "s.pkl", tmp_path / "j.bin")
        twin = rep.service
        assert twin.migrations_applied == 1  # the journaled moves re-ran
        resume = rep.committed_through
        assert resume == crashed["at"]
        twin.run(kinds[resume:], keys[resume:])
        twin.journal.close()
        assert _state(twin) == _state(ref)

    def test_snapshot_after_migration_skips_replayed_record(self, tmp_path):
        """A snapshot containing migration N must not re-apply record N."""
        kinds, keys = _skewed_trace(4000)
        svc = _make_service(
            rebalance=True, journal=EpochJournal(tmp_path / "j.bin", fsync=False)
        )
        svc.run(kinds[:2600], keys[:2600])
        assert svc.migrations_applied > 0
        snapshot_service(svc, tmp_path / "s.pkl")
        svc.run(kinds[2600:], keys[2600:])
        svc.journal.close()
        rep = recover(tmp_path / "s.pkl", tmp_path / "j.bin")
        twin = rep.service
        twin.journal.close()
        assert _state(twin) == _state(svc)

    def test_directory_round_trips_through_snapshot(self, tmp_path):
        kinds, keys = _skewed_trace(3000)
        svc = _make_service(rebalance=True)
        svc.run(kinds, keys)
        assert not svc.directory.is_static()
        snapshot_service(svc, tmp_path / "s.pkl")
        twin = restore_service(tmp_path / "s.pkl")
        np.testing.assert_array_equal(
            twin.directory.slot_map, svc.directory.slot_map
        )
        assert twin.directory.version == svc.directory.version
        probe = np.random.default_rng(4).integers(0, U, size=4096, dtype=np.uint64)
        np.testing.assert_array_equal(
            twin.directory.shards_of(probe), svc.directory.shards_of(probe)
        )


# ---------------------------------------------------------------------------
# Generator determinism (satellite 3)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("chunk", [1, 7, 64, 500])
    def test_stream_equals_take_at_every_chunk_size(self, kind, chunk):
        want = _gen(kind).take(300)
        got = list(islice(_gen(kind).stream(chunk), 300))
        assert got == want

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_split_takes_equal_one_take(self, kind):
        whole = _gen(kind).take(300)
        gen = _gen(kind)
        assert gen.take(113) + gen.take(187) == whole

    def test_zipf_rejects_invalid_theta(self):
        with pytest.raises(ValueError, match="θ > 1"):
            ZipfKeys(U, theta=1.0)
        with pytest.raises(ValueError, match="θ > 1"):
            ZipfKeys(U, theta=0.3)
