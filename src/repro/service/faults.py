"""Deterministic fault injection and the crash-recovery chaos harness.

Three decorators over the storage/journal layers, all driven by seeded
schedules so every failure is exactly reproducible:

* :class:`FaultInjectingBackend` — wraps any
  :class:`~repro.em.backends.StorageBackend`; raises
  :class:`~repro.em.errors.StorageFault` at scheduled backend-op
  indices (transient, in bursts), and :class:`~repro.em.errors.SimulatedCrash`
  at a scheduled hard crash point — tearing multi-record writes first,
  so the abandoned live state is genuinely inconsistent.
* :class:`RetryingBackend` — the healing side: bounded
  retry-with-exponential-backoff around every faultable primitive,
  raising :class:`~repro.em.errors.RetryExhausted` when the burst
  outlives the retry budget.  Retries happen *below* the disk's
  charging layer, so a healed fault never perturbs the I/O ledgers —
  the accounting the paper's bounds are checked against.
* :class:`CrashingJournal` — crashes the write-ahead journal itself at
  a scheduled epoch's append (leaving a torn record) or commit (epoch
  executed but never marked durable).

The two backend decorators share :class:`BackendDecorator`, which sends
the nine data-path primitives through one ``_guard`` hook and passes the
rest of the protocol straight through.

:func:`run_crash_matrix` composes them into the chaos harness: one
uninterrupted golden run, then one crash-and-recover run per crash
point (every epoch's append and commit boundary plus sampled
intra-epoch backend-op indices), each asserting the recovered service
finishes the trace with **bit-identical** layout, lookup results,
per-shard and cluster ledgers, sizes, and memory peaks.
"""

from __future__ import annotations

import abc
import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..em.backends import StorageBackend
from ..em.block import Block
from ..em.errors import RetryExhausted, SimulatedCrash, StorageFault
from .journal import EpochJournal
from .recovery import recover, snapshot_service
from .service import DictionaryService

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "ChaosOutcome",
    "ChaosReport",
    "CrashPoint",
    "CrashingJournal",
    "FaultClock",
    "FaultInjectingBackend",
    "FaultSchedule",
    "OverloadChaosReport",
    "RetryPolicy",
    "RetryingBackend",
    "ShardBreakerBoard",
    "run_crash_matrix",
    "run_overload_chaos",
]


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


class FaultClock:
    """A monotone counter of faultable backend primitives.

    Shared by every shard's :class:`FaultInjectingBackend` so a single
    op index identifies one global point in the execution — which is
    only deterministic under the ``serial`` executor (the chaos harness
    requires it).
    """

    def __init__(self) -> None:
        self.ops = 0

    def tick(self) -> int:
        self.ops += 1
        return self.ops


@dataclass(frozen=True)
class FaultSchedule:
    """Seeded, deterministic plan of faults against one clock.

    ``read_faults`` / ``write_faults`` map a clock index to a *burst
    length*: starting at that primitive invocation, the next ``burst``
    invocations of that kind fail before the device heals.  A burst no
    longer than the retry budget is healed invisibly; a longer one
    surfaces as :class:`~repro.em.errors.RetryExhausted`.
    ``crash_at_op`` is a hard crash: the first faultable primitive at or
    past that index raises :class:`~repro.em.errors.SimulatedCrash`
    (after tearing the write, when it was a multi-record write).
    """

    read_faults: dict[int, int] = field(default_factory=dict)
    write_faults: dict[int, int] = field(default_factory=dict)
    crash_at_op: int | None = None

    @classmethod
    def sample(
        cls,
        seed: int,
        ops: int,
        *,
        read_sites: int = 4,
        write_sites: int = 4,
        burst: int = 2,
        crash_at_op: int | None = None,
    ) -> "FaultSchedule":
        """Sample distinct fault sites uniformly over ``[1, ops]``."""
        rng = np.random.default_rng(seed)

        def pick(k: int) -> dict[int, int]:
            if ops < 1 or k < 1:
                return {}
            sites = rng.choice(np.arange(1, ops + 1), size=min(k, ops), replace=False)
            return {int(i): burst for i in sites}

        return cls(
            read_faults=pick(read_sites),
            write_faults=pick(write_sites),
            crash_at_op=crash_at_op,
        )


# ---------------------------------------------------------------------------
# Backend decorators
# ---------------------------------------------------------------------------


class BackendDecorator(StorageBackend):
    """Wraps another backend; every data-path primitive runs through one hook.

    The nine data-path primitives — reads ``fetch``, ``records``,
    ``records_arr``, ``contains_key``; writes ``commit``, ``append``,
    ``replace``, ``drain``, ``remove_key`` — hand :meth:`_guard` their
    kind, block id and the inner call; ``contains_keys`` keeps the base
    loop over ``contains_key``, one guarded read per probed block, and
    ``remove_keys`` the base loop over ``remove_key``, one guarded write
    per probed block.
    Lifecycle and introspection calls (``create``, ``delete``,
    ``length`` ...) pass straight through: faults model the data path,
    not the allocator.
    """

    def __init__(self, inner: StorageBackend) -> None:
        super().__init__(inner.b, inner.record_words)
        self.inner = inner

    @abc.abstractmethod
    def _guard(self, kind: str, block_id: int, call: Callable[[], object], torn=None):
        """Run ``call`` (a ``"read"`` or ``"write"`` of ``block_id``).

        ``torn`` is set for multi-record ``append``/``replace``: it lands
        half the records, which is what a crash mid-write leaves behind.
        """

    # -- data path -----------------------------------------------------------

    def fetch(self, block_id: int) -> Block:
        return self._guard("read", block_id, lambda: self.inner.fetch(block_id))

    def records(self, block_id: int) -> list[int]:
        return self._guard("read", block_id, lambda: self.inner.records(block_id))

    def records_arr(self, block_id: int) -> np.ndarray:
        return self._guard("read", block_id, lambda: self.inner.records_arr(block_id))

    def contains_key(self, block_id: int, key: int) -> bool:
        return self._guard(
            "read", block_id, lambda: self.inner.contains_key(block_id, key)
        )

    def commit(self, block_id: int, block: Block, *, copy: bool = False) -> None:
        self._guard(
            "write", block_id, lambda: self.inner.commit(block_id, block, copy=copy)
        )

    def append(self, block_id: int, items: list[int]) -> None:
        self._write_records(self.inner.append, block_id, items)

    def replace(self, block_id: int, items: list[int]) -> None:
        self._write_records(self.inner.replace, block_id, items)

    def drain(self, block_id: int) -> list[int]:
        return self._guard("write", block_id, lambda: self.inner.drain(block_id))

    def remove_key(self, block_id: int, key: int) -> bool:
        return self._guard(
            "write", block_id, lambda: self.inner.remove_key(block_id, key)
        )

    def _write_records(self, write, block_id: int, items: list[int]) -> None:
        torn = None
        if len(items) > 1:
            # A crash mid-write lands only the first half of the records.
            torn = lambda: write(block_id, items[: len(items) // 2])
        self._guard("write", block_id, lambda: write(block_id, items), torn)

    # -- untouched pass-through ----------------------------------------------

    def create(self, block_id: int, *, record_words: int | None = None) -> None:
        self.inner.create(block_id, record_words=record_words)

    def create_many(self, block_ids, *, record_words: int | None = None) -> None:
        self.inner.create_many(block_ids, record_words=record_words)

    def delete(self, block_id: int) -> None:
        self.inner.delete(block_id)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self.inner

    def length(self, block_id: int) -> int:
        return self.inner.length(block_id)

    def is_fresh(self, block_id: int) -> bool:
        return self.inner.is_fresh(block_id)

    def ids(self) -> list[int]:
        return self.inner.ids()

    def count(self) -> int:
        return self.inner.count()

    def nonempty(self) -> int:
        return self.inner.nonempty()

    def words_stored(self) -> int:
        return self.inner.words_stored()


class FaultInjectingBackend(BackendDecorator):
    """Injects scheduled faults into another backend's data path.

    Every data-path primitive ticks the shared :class:`FaultClock` once
    with its kind; the schedule decides whether that op raises a
    transient :class:`~repro.em.errors.StorageFault` or the hard
    :class:`~repro.em.errors.SimulatedCrash`.
    """

    name = "fault-injecting"

    def __init__(
        self,
        inner: StorageBackend,
        *,
        clock: FaultClock | None = None,
        schedule: FaultSchedule | None = None,
        trace: list[str] | None = None,
    ) -> None:
        super().__init__(inner)
        self.clock = clock if clock is not None else FaultClock()
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.trace = trace
        self.injected = 0
        self._pending = {"read": 0, "write": 0}

    def _guard(self, kind, block_id, call, torn=None):
        op = self.clock.tick()
        if self.trace is not None:
            # op indices start at 1, so trace[op - 1] is this op's kind;
            # harnesses use the log to aim faults at real read/write ops.
            self.trace.append(kind)
        sched = self.schedule
        if sched.crash_at_op is not None and op >= sched.crash_at_op:
            if torn is not None:
                # Tear the write: a prefix of the records lands, the
                # rest never does — the abandoned state is inconsistent
                # and recovery must not look at it.
                with contextlib.suppress(Exception):
                    torn()
            raise SimulatedCrash(
                f"hard crash at backend op {op} ({kind} on block {block_id})"
            )
        table = sched.read_faults if kind == "read" else sched.write_faults
        burst = table.get(op, 0)
        if burst:
            self._pending[kind] = max(self._pending[kind], burst)
        if self._pending[kind] > 0:
            self._pending[kind] -= 1
            self.injected += 1
            raise StorageFault(
                f"injected transient {kind} fault on block {block_id} (op {op})"
            )
        return call()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``backoff_s · 2^(attempt-1)``, capped."""

    max_retries: int = 4
    backoff_s: float = 0.0005
    max_backoff_s: float = 0.008

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return min(self.backoff_s * (2 ** (attempt - 1)), self.max_backoff_s)


class RetryingBackend(BackendDecorator):
    """Heals transient :class:`StorageFault`\\ s with bounded retries.

    Sits between the disk and a (possibly faulty) inner backend.  The
    disk charges an I/O only after the primitive returns, so healed
    retries are invisible to the ledgers — fault-free and healed runs
    produce bit-identical :class:`~repro.em.iostats.IOStats`.
    :class:`SimulatedCrash` is *not* retried (the process is dead), and
    a burst outliving ``policy.max_retries`` raises
    :class:`~repro.em.errors.RetryExhausted` naming the block.
    """

    name = "retrying"

    def __init__(
        self,
        inner: StorageBackend,
        *,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner)
        self.policy = policy if policy is not None else RetryPolicy()
        self._sleep = sleep
        self.retries = 0
        self.total_backoff_s = 0.0

    def _guard(self, kind, block_id, call, torn=None):
        policy = self.policy
        last: StorageFault | None = None
        for attempt in range(policy.max_retries + 1):
            try:
                return call()
            except RetryExhausted:
                raise
            except StorageFault as exc:
                last = exc
                if attempt == policy.max_retries:
                    break
                self.retries += 1
                delay = policy.delay(attempt + 1)
                self.total_backoff_s += delay
                if delay > 0:
                    self._sleep(delay)
        raise RetryExhausted(
            f"block {block_id}: gave up after {policy.max_retries} retries: {last}"
        ) from last


# ---------------------------------------------------------------------------
# Per-shard circuit breakers
# ---------------------------------------------------------------------------


BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN = "closed", "open", "half-open"


class ShardBreakerBoard:
    """Per-shard circuit breakers: quarantine a faulting shard, probe back.

    The classic three-state machine, one per shard, driven entirely by
    an external clock so every transition is deterministic:

    * **closed** — healthy; ``threshold`` consecutive recorded failures
      trip the breaker **open**;
    * **open** — quarantined: :meth:`blocked` is ``True`` until
      ``cooldown`` clock units have passed since the trip, at which
      point the breaker turns **half-open**;
    * **half-open** — one probe is let through (:meth:`blocked` returns
      ``False``); a recorded success closes the breaker, a recorded
      failure re-opens it and restarts the cooldown.

    The clock is whatever the caller supplies per call — the open-loop
    client passes its virtual ``now`` (seconds), the deterministic
    tests pass a seeded :class:`FaultClock`'s op counter.  The board
    never reads wall time.
    """

    def __init__(self, shards: int, *, threshold: int = 3, cooldown: float = 1.0) -> None:
        if shards <= 0:
            raise ValueError(f"shard count must be positive, got {shards}")
        if threshold <= 0:
            raise ValueError(f"failure threshold must be positive, got {threshold}")
        if not cooldown > 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.shards = shards
        self.threshold = threshold
        self.cooldown = cooldown
        self._state = [BREAKER_CLOSED] * shards
        self._failures = [0] * shards
        self._opened_at = [0.0] * shards
        self.trips = 0
        self.recoveries = 0
        #: Optional observer ``(shard, old_state, new_state, now)`` fired
        #: on every state change (the open-loop client wires this to the
        #: trace recorder's ``breaker`` events).  Purely observational:
        #: the machine never reads it.
        self.on_transition = None

    def state(self, shard: int) -> str:
        return self._state[shard]

    def _transition(self, shard: int, new: str, now: float) -> None:
        old = self._state[shard]
        if old == new:
            return
        self._state[shard] = new
        if self.on_transition is not None:
            self.on_transition(shard, old, new, now)

    def blocked(self, shard: int, now: float) -> bool:
        """Is the shard quarantined at clock value ``now``?

        Transitions open → half-open as a side effect once the cooldown
        has elapsed (the half-open probe is then admitted).
        """
        if self._state[shard] == BREAKER_OPEN:
            # Same expression as reopen_at(): a caller that advances its
            # clock to exactly reopen_at(s) must see the probe admitted
            # (``now - opened >= cooldown`` can fail to that by one ulp).
            if now >= self._opened_at[shard] + self.cooldown:
                self._transition(shard, BREAKER_HALF_OPEN, now)
                return False
            return True
        return False

    def reopen_at(self, shard: int) -> float:
        """Clock value at which an open shard turns half-open (probe time)."""
        return self._opened_at[shard] + self.cooldown

    def record_success(self, shard: int, now: float) -> None:
        if self._state[shard] == BREAKER_HALF_OPEN:
            self.recoveries += 1
        self._transition(shard, BREAKER_CLOSED, now)
        self._failures[shard] = 0

    def record_failure(self, shard: int, now: float) -> None:
        if self._state[shard] == BREAKER_HALF_OPEN:
            # The probe failed: straight back to quarantine.
            self._opened_at[shard] = now
            self._transition(shard, BREAKER_OPEN, now)
            self.trips += 1
            return
        self._failures[shard] += 1
        if self._state[shard] == BREAKER_CLOSED and self._failures[shard] >= self.threshold:
            self._opened_at[shard] = now
            self._transition(shard, BREAKER_OPEN, now)
            self.trips += 1

    def any_open(self) -> bool:
        return any(s != BREAKER_CLOSED for s in self._state)


# ---------------------------------------------------------------------------
# Crashing journal decorator
# ---------------------------------------------------------------------------


class CrashingJournal(EpochJournal):
    """An :class:`EpochJournal` that crashes at a scheduled epoch.

    ``crash_append_at=e`` tears epoch ``e``'s OPS record: a prefix of
    the record bytes lands on disk, then the process dies — scan must
    discard it.  ``crash_commit_at=e`` dies after epoch ``e`` executed
    but before its COMMIT marker — recovery must discard and re-run the
    fully-executed epoch.
    """

    def __init__(
        self,
        path,
        *,
        crash_append_at: int | None = None,
        crash_commit_at: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(path, **kwargs)
        self.crash_append_at = crash_append_at
        self.crash_commit_at = crash_commit_at

    def append_epoch(self, epoch, start, stop, kinds, keys) -> None:
        if epoch == self.crash_append_at:
            record = self.encode_ops(epoch, start, stop, kinds, keys)
            self._write(record[: max(1, len(record) // 3)])
            raise SimulatedCrash(f"hard crash mid-append of epoch {epoch}")
        super().append_epoch(epoch, start, stop, kinds, keys)

    def commit(self, epoch, start, stop) -> None:
        if epoch == self.crash_commit_at:
            raise SimulatedCrash(f"hard crash before commit of epoch {epoch}")
        super().commit(epoch, start, stop)


# ---------------------------------------------------------------------------
# The chaos harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashPoint:
    """One scheduled crash: at a journal boundary or a backend op index."""

    kind: str  # "journal-append" | "journal-commit" | "backend-op"
    index: int

    def __str__(self) -> str:
        return f"{self.kind}@{self.index}"


@dataclass(frozen=True)
class ChaosOutcome:
    point: CrashPoint
    crashed: bool
    replayed_epochs: int
    discarded_ops: int
    retries: int


@dataclass(frozen=True)
class ChaosReport:
    """One golden run + one verified recovery per crash point."""

    outcomes: list[ChaosOutcome]
    epochs: int
    backend_ops: int

    @property
    def points(self) -> int:
        return len(self.outcomes)

    @property
    def crashes(self) -> int:
        return sum(1 for o in self.outcomes if o.crashed)

    @property
    def retries(self) -> int:
        return sum(o.retries for o in self.outcomes)


@dataclass(frozen=True)
class _Golden:
    cluster: tuple
    shards: list[tuple]
    blocks: dict
    memory_items: frozenset
    sizes: list[int]
    peak: int
    found: np.ndarray


def _ledger_tuple(snap) -> tuple:
    return (snap.reads, snap.writes, snap.combined, snap.allocations)


def _drive(
    svc: DictionaryService,
    kinds: np.ndarray,
    keys: np.ndarray,
    window: int,
    start: int = 0,
) -> None:
    """Submit the trace window by window, aligned to the global grid.

    Alignment is what makes recovery bit-identical: epochs cannot span
    ``run()`` calls, so a resumed client must cut its windows at the
    same global positions the original client did.
    """
    n = len(kinds)
    pos = start
    while pos < n:
        hi = min(n, (pos // window + 1) * window)
        svc.run(kinds[pos:hi], keys[pos:hi])
        pos = hi


def _observe(svc: DictionaryService, probe_keys: np.ndarray) -> _Golden:
    """Capture every compared observable; ledgers before the probes."""
    cluster = _ledger_tuple(svc.io_snapshot())
    shards = [_ledger_tuple(s) for s in svc.shard_io_snapshots()]
    layout = svc.layout_snapshot()
    sizes = svc.shard_sizes()
    peak = svc.memory_high_water()
    probe = svc.run(
        np.ones(len(probe_keys), dtype=np.uint8), probe_keys  # all lookups
    )
    return _Golden(
        cluster=cluster,
        shards=shards,
        blocks=dict(layout.blocks),
        memory_items=layout.memory_items,
        sizes=sizes,
        peak=peak,
        found=probe.lookup_found.copy(),
    )


def _compare(golden: _Golden, got: _Golden, point: CrashPoint) -> None:
    checks = [
        ("cluster ledger", golden.cluster, got.cluster),
        ("shard ledgers", golden.shards, got.shards),
        ("layout blocks", golden.blocks, got.blocks),
        ("memory items", golden.memory_items, got.memory_items),
        ("shard sizes", golden.sizes, got.sizes),
        ("memory peak", golden.peak, got.peak),
    ]
    for what, want, have in checks:
        if want != have:
            raise AssertionError(
                f"[{point}] recovered {what} diverged:\n  want {want}\n  have {have}"
            )
    if not np.array_equal(golden.found, got.found):
        diff = int(np.sum(golden.found != got.found))
        raise AssertionError(
            f"[{point}] recovered lookup results diverged on {diff} probe keys"
        )


def run_crash_matrix(
    make_service: Callable[[], DictionaryService],
    kinds: np.ndarray,
    keys: np.ndarray,
    *,
    window: int,
    sample_ops: int = 8,
    seed: int = 0,
    fault_sites: int = 3,
    fault_burst: int = 2,
    retry_policy: RetryPolicy | None = None,
    workdir: str | Path | None = None,
) -> ChaosReport:
    """Crash everywhere, recover every time, assert bit-identity.

    ``make_service`` must build a *fresh, identical, serial-executor*
    service on every call (determinism of the comparison depends on
    it).  The matrix covers every epoch's journal append and commit
    boundary plus ``sample_ops`` seeded intra-epoch backend-op indices;
    every leg also carries seeded transient read/write faults (bursts
    within the retry budget) to prove healing leaves the accounting
    untouched.
    """
    kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    if fault_burst > policy.max_retries:
        raise ValueError(
            f"fault_burst {fault_burst} exceeds the retry budget "
            f"{policy.max_retries}; transient faults would not heal"
        )
    probe_keys = np.unique(keys)

    # Golden uninterrupted run — wrapped with a pass-through injector so
    # the same decorator stack is in place while we count backend ops.
    golden_svc = make_service()
    clock = FaultClock()
    for sub in golden_svc._contexts:
        sub.disk.backend = FaultInjectingBackend(sub.disk.backend, clock=clock)
    _drive(golden_svc, kinds, keys, window)
    backend_ops = clock.ops
    epochs = golden_svc.epochs_run
    golden = _observe(golden_svc, probe_keys)
    golden_svc.close()

    points = [
        CrashPoint(kind, e)
        for e in range(epochs)
        for kind in ("journal-append", "journal-commit")
    ]
    if backend_ops > 0 and sample_ops > 0:
        rng = np.random.default_rng(seed)
        sampled = rng.choice(
            np.arange(1, backend_ops + 1),
            size=min(sample_ops, backend_ops),
            replace=False,
        )
        points += [CrashPoint("backend-op", int(i)) for i in np.sort(sampled)]

    own_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-")) if own_workdir else Path(workdir)
    outcomes: list[ChaosOutcome] = []
    try:
        for k, point in enumerate(points):
            leg = workdir / f"leg{k:03d}"
            leg.mkdir(parents=True, exist_ok=True)
            snap, jpath = leg / "snapshot.pkl", leg / "journal.bin"

            svc = make_service()
            snapshot_service(svc, snap)  # the t=0 checkpoint
            schedule = FaultSchedule.sample(
                seed + 1000 + k,
                backend_ops,
                read_sites=fault_sites,
                write_sites=fault_sites,
                burst=fault_burst,
                crash_at_op=point.index if point.kind == "backend-op" else None,
            )
            leg_clock = FaultClock()
            retriers = []
            for sub in svc._contexts:
                faulty = FaultInjectingBackend(
                    sub.disk.backend, clock=leg_clock, schedule=schedule
                )
                retrier = RetryingBackend(faulty, policy=policy, sleep=lambda s: None)
                sub.disk.backend = retrier
                retriers.append(retrier)
            if point.kind == "journal-append":
                svc.journal = CrashingJournal(jpath, crash_append_at=point.index)
            elif point.kind == "journal-commit":
                svc.journal = CrashingJournal(jpath, crash_commit_at=point.index)
            else:
                svc.journal = EpochJournal(jpath)

            crashed = False
            try:
                _drive(svc, kinds, keys, window)
            except SimulatedCrash:
                crashed = True
            retries = sum(r.retries for r in retriers)
            svc.journal.close()
            svc.close()
            del svc  # the dead process: never consulted again

            rep = recover(snap, jpath, executor="serial")
            _drive(rep.service, kinds, keys, window, start=rep.committed_through)
            got = _observe(rep.service, probe_keys)
            _compare(golden, got, point)
            rep.service.journal.close()
            rep.service.close()
            outcomes.append(
                ChaosOutcome(
                    point=point,
                    crashed=crashed,
                    replayed_epochs=rep.replayed_epochs,
                    discarded_ops=rep.discarded_ops,
                    retries=retries,
                )
            )
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return ChaosReport(outcomes=outcomes, epochs=epochs, backend_ops=backend_ops)


# ---------------------------------------------------------------------------
# Overload chaos: fault bursts under saturating arrivals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverloadChaosReport:
    """One saturated, fault-injected open-loop run, fully accounted."""

    ops: int
    executed: int
    rejected: int
    shed: int
    expired: int
    breaker_trips: int
    breaker_recoveries: int
    retries: int
    faults_injected: int

    @property
    def accounted(self) -> int:
        return self.executed + self.rejected + self.shed + self.expired


def run_overload_chaos(
    make_service: Callable[[], DictionaryService],
    kinds: np.ndarray,
    keys: np.ndarray,
    *,
    service_rate: float,
    rate_factor: float = 1.5,
    queue_depth: int = 2048,
    policy: str = "shed",
    seed: int = 0,
    fault_sites: int = 2,
    fault_burst: int = 12,
    breaker_threshold: int = 1,
    cooldown_s: float = 0.05,
    retry_policy: RetryPolicy | None = None,
) -> OverloadChaosReport:
    """Saturate a service, burst-fault its shards, account every op.

    The degradation sibling of :func:`run_crash_matrix`: instead of
    killing the process, the schedule injects fault *bursts that outlive
    the retry budget* (``fault_burst > max_retries``), so
    :class:`~repro.em.errors.RetryExhausted` surfaces from a shard, the
    per-shard breaker trips, and the open-loop client must degrade
    gracefully — healthy shards keep executing, quarantined-shard ops
    wait behind the breaker or are shed by the admission policy, and
    half-open probes re-admit the shard once the burst has drained.

    Offered load is a seeded Poisson process at ``rate_factor ×
    service_rate`` (saturating for any factor > 1) and the service-time
    model is the deterministic virtual rate, so the whole run — arrival
    times, shed decisions, breaker transitions — is exactly
    reproducible.  Asserted here: **no silent loss** (every op ends
    executed / rejected / shed / deadline-exceeded) and the executed
    subset is a program-order subsequence.
    """
    from .admission import (
        EXECUTED,
        EXPIRED,
        PENDING,
        REJECTED,
        SHED,
        AdmissionController,
    )
    from .client import OpenLoopClient
    from .traffic import PoissonArrivals

    kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    policy_r = retry_policy if retry_policy is not None else RetryPolicy()
    if fault_burst <= policy_r.max_retries:
        raise ValueError(
            f"fault_burst {fault_burst} must exceed the retry budget "
            f"{policy_r.max_retries}, or no fault ever surfaces to the breaker"
        )

    # Dry run (no faults) to learn which backend-op indices are reads
    # vs writes, exactly like run_crash_matrix's golden pass.  Sampling
    # sites from the recorded kind log (rather than blind indices à la
    # FaultSchedule.sample) guarantees the first scheduled site actually
    # fires: the chaos leg replays identically up to that point.
    probe_svc = make_service()
    clock = FaultClock()
    op_log: list[str] = []
    for sub in probe_svc._contexts:
        sub.disk.backend = FaultInjectingBackend(
            sub.disk.backend, clock=clock, trace=op_log
        )
    arrivals = PoissonArrivals(rate_factor * service_rate, seed=seed + 1)
    controller = AdmissionController(queue_depth=queue_depth, policy=policy)
    OpenLoopClient(
        probe_svc, arrivals, controller=controller, service_rate=service_rate
    ).drive(kinds, keys)
    probe_svc.close()

    # The chaos leg: same trace, same arrivals, now with fault bursts
    # long enough to defeat the retrier, plus the breaker board.
    rng = np.random.default_rng(seed + 2)
    reads = [i + 1 for i, k in enumerate(op_log) if k == "read"]
    writes = [i + 1 for i, k in enumerate(op_log) if k == "write"]
    if not reads and not writes:
        raise ValueError(
            "dry run performed no backend ops (the stream fits in memory "
            "buffers) — nothing to fault; grow the stream or shrink m"
        )

    def _sites(pool: list[int], count: int) -> dict[int, int]:
        if not pool or count <= 0:
            return {}
        picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
        return {pool[int(i)]: fault_burst for i in picks}

    schedule = FaultSchedule(
        read_faults=_sites(reads, fault_sites),
        write_faults=_sites(writes, fault_sites),
    )
    svc = make_service()
    leg_clock = FaultClock()
    retriers, injectors = [], []
    for sub in svc._contexts:
        faulty = FaultInjectingBackend(
            sub.disk.backend, clock=leg_clock, schedule=schedule
        )
        retrier = RetryingBackend(faulty, policy=policy_r, sleep=lambda s: None)
        sub.disk.backend = retrier
        injectors.append(faulty)
        retriers.append(retrier)
    breaker = ShardBreakerBoard(
        svc.shards, threshold=breaker_threshold, cooldown=cooldown_s
    )
    client = OpenLoopClient(
        svc,
        PoissonArrivals(rate_factor * service_rate, seed=seed + 1),
        controller=AdmissionController(queue_depth=queue_depth, policy=policy),
        breaker=breaker,
        service_rate=service_rate,
    )
    report = client.drive(kinds, keys)
    svc.close()

    outcomes = client.outcomes
    if int(np.sum(outcomes == PENDING)) != 0:
        raise AssertionError(
            f"overload chaos lost ops: {int(np.sum(outcomes == PENDING))} "
            "left pending after the run"
        )
    counts = {
        "executed": int(np.sum(outcomes == EXECUTED)),
        "rejected": int(np.sum(outcomes == REJECTED)),
        "shed": int(np.sum(outcomes == SHED)),
        "expired": int(np.sum(outcomes == EXPIRED)),
    }
    if sum(counts.values()) != len(kinds):
        raise AssertionError(f"overload accounting does not conserve: {counts}")
    if report.shed != counts["shed"] or report.rejected != counts["rejected"]:
        raise AssertionError("client report disagrees with outcome array")
    # Quarantine may delay one shard's ops past another's, but each
    # shard's stream must still execute in program order (same-key ops
    # share a shard, so this is the per-key ordering guarantee).
    order = np.asarray(client.executed_order, dtype=np.int64)
    if svc.shards == 1:
        shard_arr = np.zeros(len(keys), dtype=np.int64)
    else:
        shard_arr = svc.directory.shards_of(keys)
    for s in range(svc.shards):
        sub = order[shard_arr[order] == s]
        if len(sub) > 1 and not bool(np.all(np.diff(sub) > 0)):
            raise AssertionError(
                f"shard {s} executed ops out of program order under quarantine"
            )
    return OverloadChaosReport(
        ops=len(kinds),
        **counts,
        breaker_trips=breaker.trips,
        breaker_recoveries=breaker.recoveries,
        retries=sum(r.retries for r in retriers),
        faults_injected=sum(i.injected for i in injectors),
    )
