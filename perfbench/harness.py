"""One pass of a workload: build the service, prefill it, time the requests.

A pass always starts from freshly built state, so repeated passes of a
run execute identical work and charge identical I/O.  Set-up (building
the service and bulk-loading the prefill through ``DictionaryService.run``)
and the timed phase are timed separately; result checks and every
metric that needs a walk over the shards run after the timers stop.

The prefill runs with an epoch cap of :data:`PREFILL_REQUEST`, so a
journaled service commits (and fsyncs) once per prefill request rather
than once per small epoch; the workload's own cap is set before the
timed phase.  ``BufferedHashTable.insert_batch`` charges the same I/O
whatever the batch split, so the cap changes neither the charged I/O nor
the state the timed phase starts from.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.buffered import BufferedHashTable
from repro.em import make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import DictionaryService
from repro.service.journal import EpochJournal

from tracer import Tracer
from workloads import OP_DELETE, OP_LOOKUP, U, Inputs, Workload

#: Block and memory words of every shard machine, and the shard count:
#: the geometry of the repository's own service benchmarks.
B, M, SHARDS = 1024, 4096, 8
#: Prefill keys per ``run`` call, and the epoch cap, during set-up.
PREFILL_REQUEST = 65536


def shard_table(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=61))


@dataclass
class Pass:
    """What one pass measured and checked."""

    #: Set-up seconds: building the service and loading the prefill.
    setup_s: float
    timed_s: float
    latencies: np.ndarray
    #: Charged I/O deltas over the timed phase: reads, writes, combined.
    io: tuple[int, int, int]
    #: Buffer-pool deltas over the timed phase: hits, misses, evictions.
    cache: tuple[int, int, int]
    journal_bytes: int
    epochs: int
    space_amp: float
    size: int
    failed: int
    executor: str
    errors: list[str] = field(default_factory=list)

    @property
    def io_total(self) -> int:
        return self.io[0] + self.io[1]


def build(workload: Workload, workdir: Path) -> DictionaryService:
    ctx = make_context(
        b=B, m=M, u=U, backend=workload.backend, cache_blocks=workload.cache_blocks
    )
    journal = EpochJournal(workdir / "epochs.journal") if workload.journal else None
    return DictionaryService(
        ctx,
        shard_table,
        shards=SHARDS,
        epoch_ops=PREFILL_REQUEST,
        journal=journal,
    )


def run_pass(
    workload: Workload,
    inputs: Inputs,
    workdir: Path,
    tracer: Tracer | None = None,
) -> Pass:
    """Set up fresh state, run every request once, check every result."""
    workdir.mkdir(parents=True)
    gc.collect()
    clock = time.perf_counter
    prefill = inputs.prefill
    inserts = np.zeros(PREFILL_REQUEST, dtype=np.uint8)
    t = clock()
    svc = build(workload, workdir)
    for lo in range(0, len(prefill), PREFILL_REQUEST):
        chunk = prefill[lo : lo + PREFILL_REQUEST]
        svc.run(inserts[: len(chunk)], chunk)
    setup_s = clock() - t
    try:
        if len(svc) != len(prefill):
            raise RuntimeError(f"prefill left {len(svc)} keys, expected {len(prefill)}")
        svc.epoch_ops = inputs.request_ops
        return _timed_phase(svc, inputs, tracer, setup_s)
    finally:
        svc.close()
        if svc.journal is not None:
            svc.journal.close()
        del svc
        gc.collect()


def _timed_phase(svc, inputs: Inputs, tracer: Tracer | None, setup_s: float) -> Pass:
    n_req = inputs.requests
    latencies = np.zeros(n_req)
    found = np.zeros(inputs.ops, dtype=bool)
    removed = np.zeros(inputs.ops, dtype=bool)
    raised = np.zeros(inputs.ops, dtype=bool)
    errors: list[str] = []
    epochs = 0
    io0 = svc.io_snapshot()
    cache0 = svc.cache_snapshot()
    journal0 = svc.journal.bytes_written if svc.journal is not None else 0
    run = svc.run
    if tracer is not None:
        tracer.install(svc)
        run = tracer.span("request", "client.request", svc.run)
    clock = time.perf_counter
    gc.collect()
    start = clock()
    try:
        for i in range(n_req):
            kinds, keys = inputs.request(i)
            lo = i * inputs.request_ops
            if tracer is not None:
                tracer.request = i
            t = clock()
            try:
                result = run(kinds, keys)
            except Exception:  # a failed request fails its ops; keep going
                latencies[i] = clock() - t
                raised[lo : lo + len(kinds)] = True
                errors.append(traceback.format_exc())
                continue
            latencies[i] = clock() - t
            found[lo : lo + len(kinds)] = result.lookup_found
            removed[lo : lo + len(kinds)] = result.delete_removed
            epochs += len(result.epochs)
        timed_s = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    io = svc.io_snapshot() - io0
    cache = svc.cache_snapshot().delta_since(cache0)
    journal_bytes = (
        svc.journal.bytes_written - journal0 if svc.journal is not None else 0
    )
    kinds = inputs.kinds
    wrong = raised | (
        ((kinds == OP_LOOKUP) & (found != inputs.expect))
        | ((kinds == OP_DELETE) & (removed != inputs.expect))
    )
    size = len(svc)
    expected_size = len(inputs.prefill) + inputs.inserts - inputs.deletes
    if size != expected_size:
        errors.append(f"service holds {size} keys, expected {expected_size}")
    blocks = sum(table.ctx.disk.blocks_in_use() for table in svc.shard_tables())
    return Pass(
        setup_s=setup_s,
        timed_s=timed_s,
        latencies=latencies,
        io=(io.reads, io.writes, io.combined),
        cache=(cache.hits, cache.misses, cache.evictions),
        journal_bytes=journal_bytes,
        epochs=epochs,
        space_amp=blocks * B / size if size else float("inf"),
        size=size,
        failed=int(np.count_nonzero(wrong)),
        executor=getattr(svc.executor, "name", type(svc.executor).__name__),
        errors=errors,
    )
