"""Fault injection, retry healing, and the crashing journal.

What must hold: seeded schedules are exactly reproducible; a fault
burst within the retry budget heals invisibly (I/O ledgers untouched —
retries live below the disk's charging layer); a burst beyond it
surfaces as ``RetryExhausted`` with the block, shard, and epoch named;
a hard crash is never retried and leaves torn state behind that
recovery must ignore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.em import (
    Block,
    Disk,
    MappingBackend,
    RetryExhausted,
    SimulatedCrash,
    StorageBackend,
    StorageFault,
    make_context,
)
from repro.core.buffered import BufferedHashTable
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import (
    CrashingJournal,
    DictionaryService,
    EpochJournal,
    FaultClock,
    FaultInjectingBackend,
    FaultSchedule,
    RetryPolicy,
    RetryingBackend,
)


def _stack(schedule, policy=None, sleeps=None):
    inner = MappingBackend(8, 1)
    faulty = FaultInjectingBackend(inner, schedule=schedule)
    retrier = RetryingBackend(
        faulty,
        policy=policy or RetryPolicy(max_retries=3, backoff_s=0.001),
        sleep=(sleeps.append if sleeps is not None else lambda s: None),
    )
    return inner, faulty, retrier


def _filled():
    """A small inner backend: block 0 holds three records, block 1 is empty."""
    backend = MappingBackend(8, 1)
    backend.create(0)
    backend.append(0, [3, 5, 7])
    backend.create(1)
    return backend


def _contents(backend):
    return {bid: backend.records(bid) for bid in sorted(backend.ids())}


def _ids(*values):
    return np.array(values, dtype=np.uint64)


#: Every faultable data-path primitive: its fault kind and one call.
DATA_PATH = {
    "fetch": ("read", lambda be: be.fetch(0).records()),
    "records": ("read", lambda be: be.records(0)),
    "records_arr": ("read", lambda be: be.records_arr(0).tolist()),
    "contains_key": ("read", lambda be: be.contains_key(0, 5)),
    "contains_keys": (
        "read",
        lambda be: be.contains_keys(_ids(0), _ids(5)).tolist(),
    ),
    "commit": ("write", lambda be: be.commit(1, Block(8, data=[9]))),
    "append": ("write", lambda be: be.append(1, [9, 11])),
    "replace": ("write", lambda be: be.replace(0, [2, 4])),
    "drain": ("write", lambda be: be.drain(0)),
    "remove_key": ("write", lambda be: be.remove_key(0, 5)),
}

#: Every lifecycle/introspection method the decorators pass straight on.
PASS_THROUGH = {
    "create": lambda be: be.create(2),
    "create_many": lambda be: be.create_many([2, 3]),
    "delete": lambda be: be.delete(1),
    "__contains__": lambda be: (0 in be, 4 in be),
    "length": lambda be: be.length(0),
    "is_fresh": lambda be: (be.is_fresh(0), be.is_fresh(1)),
    "ids": lambda be: sorted(be.ids()),
    "count": lambda be: be.count(),
    "nonempty": lambda be: be.nonempty(),
    "words_stored": lambda be: be.words_stored(),
}


class TestDecoratorRouting:
    """Every protocol method goes through the decorators the right way."""

    def test_tables_cover_the_protocol(self):
        protocol = {
            name
            for name, attr in vars(StorageBackend).items()
            if callable(attr) and name != "__init__"
        }
        assert not set(DATA_PATH) & set(PASS_THROUGH)
        assert set(DATA_PATH) | set(PASS_THROUGH) == protocol

    @pytest.mark.parametrize("method", sorted(DATA_PATH))
    def test_data_path_ticks_once_with_its_kind(self, method):
        kind, call = DATA_PATH[method]
        trace: list[str] = []
        faulty = FaultInjectingBackend(_filled(), trace=trace)
        twin = _filled()
        assert call(faulty) == call(twin)
        assert faulty.clock.ops == 1
        assert trace == [kind]
        assert _contents(faulty.inner) == _contents(twin)

    @pytest.mark.parametrize("method", sorted(DATA_PATH))
    def test_data_path_heals_after_one_op_burst(self, method):
        kind, call = DATA_PATH[method]
        burst = {1: 1}
        schedule = (
            FaultSchedule(read_faults=burst)
            if kind == "read"
            else FaultSchedule(write_faults=burst)
        )
        faulty = FaultInjectingBackend(_filled(), schedule=schedule)
        retrier = RetryingBackend(
            faulty, policy=RetryPolicy(max_retries=1, backoff_s=0)
        )
        twin = _filled()
        assert call(retrier) == call(twin)
        assert (faulty.injected, retrier.retries, faulty.clock.ops) == (1, 1, 2)
        assert _contents(faulty.inner) == _contents(twin)

    def test_contains_keys_ticks_once_per_probed_block(self):
        """A multi-block probe is one read per block, in probe order, and
        a one-op burst on any of them heals under the retry layer."""
        blocks, keys = _ids(0, 1, 0, 0), _ids(5, 5, 4, 7)
        expected = [True, False, False, True]
        trace: list[str] = []
        faulty = FaultInjectingBackend(_filled(), trace=trace)
        assert faulty.contains_keys(blocks, keys).tolist() == expected
        assert (faulty.clock.ops, trace) == (4, ["read"] * 4)
        faulty = FaultInjectingBackend(
            _filled(), schedule=FaultSchedule(read_faults={3: 1})
        )
        retrier = RetryingBackend(
            faulty, policy=RetryPolicy(max_retries=1, backoff_s=0)
        )
        assert retrier.contains_keys(blocks, keys).tolist() == expected
        assert (faulty.injected, retrier.retries, faulty.clock.ops) == (1, 1, 5)

    @pytest.mark.parametrize("method", ["append", "replace"])
    def test_crash_tears_multi_record_writes_only(self, method):
        inner = _filled()
        faulty = FaultInjectingBackend(inner, schedule=FaultSchedule(crash_at_op=1))
        with pytest.raises(SimulatedCrash):
            getattr(faulty, method)(1, [2, 4, 6, 8])
        assert inner.records(1) == [2, 4]
        with pytest.raises(SimulatedCrash):
            getattr(faulty, method)(0, [9])  # one record: whole or nothing
        assert inner.records(0) == [3, 5, 7]

    @pytest.mark.parametrize("method", sorted(PASS_THROUGH))
    def test_pass_through_ticks_nothing(self, method):
        call = PASS_THROUGH[method]
        # Any tick would crash: the schedule crashes at the first op.
        faulty = FaultInjectingBackend(_filled(), schedule=FaultSchedule(crash_at_op=1))
        stack = RetryingBackend(faulty)
        twin = _filled()
        assert call(stack) == call(twin)
        assert faulty.clock.ops == 0
        assert _contents(faulty.inner) == _contents(twin)


class TestSchedule:
    def test_sample_deterministic(self):
        a = FaultSchedule.sample(7, 500, read_sites=5, write_sites=5)
        b = FaultSchedule.sample(7, 500, read_sites=5, write_sites=5)
        assert a == b
        c = FaultSchedule.sample(8, 500, read_sites=5, write_sites=5)
        assert a != c

    def test_sample_sites_in_range(self):
        s = FaultSchedule.sample(1, 50, read_sites=10, write_sites=10, burst=3)
        for site, burst in {**s.read_faults, **s.write_faults}.items():
            assert 1 <= site <= 50
            assert burst == 3


class TestInjection:
    def test_fault_fires_at_site_then_heals(self):
        inner, faulty, _ = _stack(FaultSchedule(read_faults={2: 1}))
        inner.create(0)
        inner.append(0, [5])
        faulty.fetch(0)  # op 1: clean
        with pytest.raises(StorageFault, match="read fault"):
            faulty.fetch(0)  # op 2: scheduled
        assert faulty.fetch(0).records() == [5]  # op 3: healed

    def test_burst_spans_consecutive_calls(self):
        inner, faulty, _ = _stack(FaultSchedule(write_faults={1: 3}))
        inner.create(0)
        for _ in range(3):
            with pytest.raises(StorageFault):
                faulty.append(0, [1])
        faulty.append(0, [1])  # burst exhausted
        assert inner.records(0) == [1]

    def test_crash_tears_multi_record_write(self):
        inner, faulty, _ = _stack(FaultSchedule(crash_at_op=1))
        inner.create(0)
        with pytest.raises(SimulatedCrash):
            faulty.append(0, [1, 2, 3, 4])
        # A prefix landed: the abandoned state is genuinely torn.
        assert inner.records(0) == [1, 2]

    def test_crash_fires_at_first_op_past_index(self):
        inner, faulty, _ = _stack(FaultSchedule(crash_at_op=3))
        inner.create(0)
        inner.append(0, [9])
        faulty.fetch(0)
        faulty.fetch(0)
        with pytest.raises(SimulatedCrash):
            faulty.fetch(0)

    def test_passthrough_without_schedule(self):
        inner = MappingBackend(8, 1)
        faulty = FaultInjectingBackend(inner)
        inner.create(0)
        faulty.append(0, [1, 2])
        assert faulty.records(0) == [1, 2]
        assert faulty.clock.ops == 2
        assert faulty.injected == 0


class TestRetry:
    def test_heals_within_budget(self):
        inner, faulty, retrier = _stack(FaultSchedule(read_faults={1: 2}))
        inner.create(0)
        inner.append(0, [7])
        assert retrier.fetch(0).records() == [7]
        assert retrier.retries == 2

    def test_exhaustion_names_block(self):
        inner, faulty, retrier = _stack(FaultSchedule(read_faults={1: 10}))
        inner.create(0)
        with pytest.raises(RetryExhausted, match=r"block 0: gave up after 3"):
            retrier.fetch(0)

    def test_backoff_exponential_and_capped(self):
        sleeps: list[float] = []
        policy = RetryPolicy(max_retries=4, backoff_s=0.001, max_backoff_s=0.003)
        inner, faulty, retrier = _stack(
            FaultSchedule(write_faults={1: 4}), policy=policy, sleeps=sleeps
        )
        inner.create(0)
        retrier.append(0, [1])
        assert sleeps == [0.001, 0.002, 0.003, 0.003]  # doubled, then capped
        assert retrier.total_backoff_s == pytest.approx(sum(sleeps))

    def test_crash_is_not_retried(self):
        inner, faulty, retrier = _stack(FaultSchedule(crash_at_op=1))
        inner.create(0)
        with pytest.raises(SimulatedCrash):
            retrier.fetch(0)
        assert retrier.retries == 0

    def test_healed_faults_leave_accounting_untouched(self):
        """The acceptance invariant: retries are invisible to IOStats."""

        def run(schedule):
            disk = Disk(8)
            disk.backend = RetryingBackend(
                FaultInjectingBackend(disk.backend, schedule=schedule),
                policy=RetryPolicy(max_retries=4, backoff_s=0),
            )
            from repro.em import Block

            ids = [disk.allocate() for _ in range(10)]
            for i, bid in enumerate(ids):
                disk.write(bid, Block(8, data=[i]))
            for bid in ids:
                with disk.modify(bid) as blk:
                    blk.append(99)
                disk.read(bid)
            return (disk.stats.reads, disk.stats.writes, disk.stats.combined)

        clean = run(FaultSchedule())
        faulted = run(FaultSchedule.sample(3, 40, read_sites=5, write_sites=5, burst=2))
        assert clean == faulted


class TestServiceFaultNaming:
    """Satellite: surfaced faults name the shard and the epoch."""

    def _service(self, schedule):
        ctx = make_context(b=16, m=128, u=10**12, backend="mapping")
        svc = DictionaryService(
            ctx,
            lambda c: BufferedHashTable(c, MULTIPLY_SHIFT.sample(c.u, seed=7)),
            shards=2,
            executor="serial",
            epoch_ops=64,
        )
        for sub in svc._contexts:
            svc_retrier = RetryingBackend(
                FaultInjectingBackend(sub.disk.backend, schedule=schedule),
                policy=RetryPolicy(max_retries=2, backoff_s=0),
            )
            sub.disk.backend = svc_retrier
        return svc

    def test_retry_exhausted_names_shard_and_epoch(self):
        svc = self._service(FaultSchedule(write_faults={1: 50}))
        keys = np.arange(1, 400, dtype=np.uint64)
        kinds = np.zeros(len(keys), dtype=np.uint8)  # all inserts
        with pytest.raises(RetryExhausted) as exc_info:
            svc.run(kinds, keys)
        msg = str(exc_info.value)
        assert "epoch " in msg and "shard " in msg and "block " in msg

    def test_simulated_crash_propagates_unwrapped(self):
        svc = self._service(FaultSchedule(crash_at_op=5))
        keys = np.arange(1, 400, dtype=np.uint64)
        kinds = np.zeros(len(keys), dtype=np.uint8)
        with pytest.raises(SimulatedCrash) as exc_info:
            svc.run(kinds, keys)
        assert "shard" not in str(exc_info.value)  # kill -9 has no courtesy


class TestCrashingJournal:
    def test_crash_on_append_leaves_torn_record(self, tmp_path):
        path = tmp_path / "j.bin"
        kinds = np.zeros(10, dtype=np.uint8)
        keys = np.arange(10, dtype=np.uint64)
        j = CrashingJournal(path, crash_append_at=1, fsync=False)
        j.append_epoch(0, 0, 10, kinds, keys)
        j.commit(0, 0, 10)
        with pytest.raises(SimulatedCrash):
            j.append_epoch(1, 10, 20, kinds, keys)
        j.close()
        scan = EpochJournal.scan(path)
        assert [r.epoch for r in scan.committed] == [0]
        assert scan.valid_bytes < path.stat().st_size  # the torn bytes

    def test_crash_on_commit_discards_executed_epoch(self, tmp_path):
        path = tmp_path / "j.bin"
        kinds = np.zeros(10, dtype=np.uint8)
        keys = np.arange(10, dtype=np.uint64)
        j = CrashingJournal(path, crash_commit_at=0, fsync=False)
        j.append_epoch(0, 0, 10, kinds, keys)
        with pytest.raises(SimulatedCrash):
            j.commit(0, 0, 10)
        j.close()
        scan = EpochJournal.scan(path)
        assert scan.committed == []
        assert scan.uncommitted_ops == 10
