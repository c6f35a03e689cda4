"""Error-path coverage for the EM exception hierarchy.

Each failure mode must raise its precise subclass with a message an
operator can act on: budget exhaustion names the owner and the numbers,
bad block ids name the id, storage faults surface through the service
with the shard and epoch named (``tests/test_faults.py`` drives the
full injection machinery; this file pins the hierarchy and messages).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.buffered import BufferedHashTable
from repro.em import (
    Block,
    BlockOverflowError,
    ConfigurationError,
    Disk,
    EMError,
    InvalidBlockError,
    MemoryBudget,
    MemoryBudgetExceededError,
    RetryExhausted,
    SimulatedCrash,
    StorageFault,
    make_context,
)
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import (
    DictionaryService,
    FaultInjectingBackend,
    FaultSchedule,
    RetryPolicy,
    RetryingBackend,
)


class TestHierarchy:
    def test_every_model_error_is_an_em_error(self):
        for exc in (
            BlockOverflowError,
            ConfigurationError,
            InvalidBlockError,
            MemoryBudgetExceededError,
            StorageFault,
            SimulatedCrash,
        ):
            assert issubclass(exc, EMError)

    def test_retry_exhausted_is_a_storage_fault(self):
        # Callers that tolerate transient faults catch StorageFault and
        # get exhaustion for free; crash is deliberately NOT a fault.
        assert issubclass(RetryExhausted, StorageFault)
        assert not issubclass(SimulatedCrash, StorageFault)


class TestMemoryBudget:
    def test_hard_budget_exhaustion(self):
        budget = MemoryBudget(m=64)
        budget.charge("buffer", 60)
        with pytest.raises(MemoryBudgetExceededError):
            budget.charge("overflow", 5)

    def test_exhaustion_in_a_real_table(self):
        # A buffered table in a tiny hard-budget context must fail with
        # the precise budget error, not an opaque crash.
        ctx = make_context(b=16, m=8, u=10**9, hard_memory=True)
        table = BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=3))
        with pytest.raises(MemoryBudgetExceededError):
            table.insert_batch(np.arange(1, 500, dtype=np.uint64))


class TestBadBlockIds:
    def test_read_unknown_id(self):
        disk = Disk(8)
        with pytest.raises(InvalidBlockError):
            disk.read(123456)

    def test_write_unallocated_id(self):
        disk = Disk(8)
        with pytest.raises(InvalidBlockError):
            disk.write(42, Block(8, data=[1]))

    def test_freed_id_on_every_charged_path(self):
        disk = Disk(8)
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[1]))
        disk.free(bid)
        with pytest.raises(InvalidBlockError):
            disk.read(bid)
        with pytest.raises(InvalidBlockError):
            disk.probe_record(bid, 1)
        with pytest.raises(InvalidBlockError):
            disk.free(bid)  # double free


class TestServiceFaultMessages:
    """Satellite: surfaced storage faults must name shard and epoch."""

    def _service(self):
        ctx = make_context(b=16, m=128, u=10**12)
        svc = DictionaryService(
            ctx,
            lambda c: BufferedHashTable(c, MULTIPLY_SHIFT.sample(c.u, seed=7)),
            shards=2,
            epoch_ops=64,
        )
        for sub in [t.ctx for t in svc.shard_tables()]:
            sub.disk.backend = RetryingBackend(
                FaultInjectingBackend(
                    sub.disk.backend,
                    schedule=FaultSchedule(write_faults={1: 50}),
                ),
                policy=RetryPolicy(max_retries=2, backoff_s=0),
            )
        return svc

    def test_message_names_shard_epoch_block_and_cause(self):
        svc = self._service()
        kinds = np.zeros(300, dtype=np.uint8)
        keys = np.arange(1, 301, dtype=np.uint64)
        with pytest.raises(RetryExhausted) as exc_info:
            svc.run(kinds, keys)
        msg = str(exc_info.value)
        # The first write happens when the memory buffer first spills,
        # whichever epoch that lands in.
        assert re.match(r"epoch \d+: shard \d+:", msg)
        assert "shard " in msg
        assert "block " in msg
        assert "gave up after 2 retries" in msg
        assert "injected transient write fault" in msg

    def test_wrapped_exception_keeps_type(self):
        svc = self._service()
        kinds = np.zeros(300, dtype=np.uint8)
        keys = np.arange(1, 301, dtype=np.uint64)
        with pytest.raises(StorageFault):  # still catchable as the base
            svc.run(kinds, keys)
