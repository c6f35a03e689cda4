"""I/O accounting for the external-memory model.

The complexity measure of the paper (and of the Aggarwal--Vitter model
[1]) is the number of block transfers between disk and memory.  The
paper's footnote 2 additionally adopts the convention that *writing a
block immediately after reading it* counts as a single I/O, because disk
cost is dominated by the seek.  :class:`IOPolicy` makes that convention
explicit and togglable so the ablation in ``bench_knuth_table`` can
quantify its effect.

:class:`IOStats` is a plain counter object shared by a :class:`~repro.em.disk.Disk`
and everything layered above it.  It supports cheap checkpointing
(:meth:`IOStats.snapshot` / :meth:`IOStats.delta_since`) so drivers can
attribute I/Os to individual operations without resetting global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence
import contextlib

import numpy as np


@dataclass(frozen=True)
class IOPolicy:
    """Conventions for charging I/Os.

    Attributes
    ----------
    combine_rmw:
        If ``True`` (the paper's footnote-2 convention), a write of block
        ``i`` that immediately follows a read of block ``i`` — with no
        intervening I/O — is free: the read-modify-write pair costs one
        I/O in total.  If ``False``, reads and writes are each one I/O.
    charge_allocation:
        If ``True``, allocating a fresh block (its first write) costs one
        I/O like any other write.  The paper never needs free allocation;
        this exists for sensitivity checks and defaults to ``True``.
    """

    combine_rmw: bool = True
    charge_allocation: bool = True


#: The policy used throughout the paper's accounting.
PAPER_POLICY = IOPolicy(combine_rmw=True, charge_allocation=True)

#: Strict policy: every block transfer costs one I/O.
STRICT_POLICY = IOPolicy(combine_rmw=False, charge_allocation=True)


@dataclass
class IOSnapshot:
    """Immutable view of counter values at a point in time."""

    reads: int
    writes: int
    combined: int
    allocations: int

    @property
    def total(self) -> int:
        """Total charged I/Os (combined read-modify-writes already netted out)."""
        return self.reads + self.writes

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            combined=self.combined - other.combined,
            allocations=self.allocations - other.allocations,
        )

    def as_dict(self) -> dict:
        """Plain-dict counter view (trace spans, metrics folding)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "combined": self.combined,
            "allocations": self.allocations,
        }


@dataclass
class IOStats:
    """Mutable I/O counters with checkpoint support.

    ``reads`` and ``writes`` count *charged* I/Os: when the policy
    combines read-modify-write pairs, the elided write increments
    ``combined`` instead of ``writes``.
    """

    policy: IOPolicy = field(default_factory=lambda: PAPER_POLICY)
    reads: int = 0
    writes: int = 0
    combined: int = 0
    allocations: int = 0
    _last_read_block: int | None = field(default=None, repr=False)

    # -- recording ---------------------------------------------------------

    def record_read(self, block_id: int) -> None:
        """Charge one read I/O of ``block_id``."""
        self.reads += 1
        self._last_read_block = block_id

    def record_reads(self, block_ids: Sequence[int]) -> None:
        """Charge one read I/O per block in ``block_ids`` in O(1) Python ops.

        Equivalent to calling :meth:`record_read` once per id in order:
        the read counter advances by ``len(block_ids)`` and the pending
        read-modify-write block becomes the *last* id, so a write that
        immediately follows the final read still combines under the
        footnote-2 policy.  Bulk scans and merges use this so charging
        ``n`` I/Os does not cost ``n`` interpreter-level calls.
        ``block_ids`` may be a list or an integer array.
        """
        if len(block_ids):
            self.record_read_run(len(block_ids), int(block_ids[-1]))

    def record_read_run(self, count: int, last: int) -> None:
        """Charge ``count`` > 0 reads, the final one of block ``last``:
        :meth:`record_reads` of a run known only by its length and its
        last id (a lookup walk charged without listing it)."""
        self.reads += count
        self._last_read_block = last

    def record_write(self, block_id: int, *, fresh: bool = False) -> None:
        """Charge a write of ``block_id``.

        ``fresh`` marks the first write of a newly allocated block; it is
        free when the policy's ``charge_allocation`` is ``False``.
        """
        if fresh:
            self.allocations += 1
            if not self.policy.charge_allocation:
                self._last_read_block = None
                return
        if self.policy.combine_rmw and self._last_read_block == block_id:
            # Footnote 2: a write immediately after reading the same block
            # rides on the same seek and is not charged.
            self.combined += 1
            self._last_read_block = None
            return
        self.writes += 1
        self._last_read_block = None

    def record_sweep(
        self,
        block_ids: Sequence[int],
        written: Sequence[bool] | None = None,
        fresh: Sequence[bool] | None = None,
        *,
        read: bool = True,
    ) -> None:
        """Charge a sweep over ``block_ids`` in O(1) counter updates.

        Equivalent to, block by block in order, :meth:`record_read`
        (unless ``read`` is false) and then :meth:`record_write` where
        ``written`` says so (every block when ``None``), ``fresh`` marking
        first writes (a subset of the written blocks; none when ``None``).
        The masks may be lists or bool arrays.  A write right after the
        read of its own block combines under the footnote-2 policy.  A
        write-only sweep (``read=False``) writes every block, and only its
        first write can meet the pending read.
        """
        n = len(block_ids)
        if n == 0:
            return
        policy = self.policy
        nwritten = n if written is None else int(np.count_nonzero(written))
        nfresh = 0 if fresh is None else int(np.count_nonzero(fresh))
        self.allocations += nfresh
        charged = nwritten if policy.charge_allocation else nwritten - nfresh
        if read:
            self.reads += n
            combined = charged if policy.combine_rmw else 0
            last_written = written is None or written[-1]
            self._last_read_block = None if last_written else int(block_ids[-1])
        else:
            first_charged = policy.charge_allocation or not (
                fresh is not None and fresh[0]
            )
            combined = int(
                policy.combine_rmw
                and first_charged
                and self._last_read_block == block_ids[0]
            )
            self._last_read_block = None
        self.combined += combined
        self.writes += charged - combined

    def invalidate_rmw(self) -> None:
        """Forget the pending read so the next write is charged normally."""
        self._last_read_block = None

    def absorb(self, delta: IOSnapshot) -> None:
        """Fold another ledger's counter delta into this one.

        Used by the service layer to merge per-shard ledgers into a
        cluster total at epoch close: pure counter addition, so the
        merged result is independent of shard execution order.  The
        pending read-modify-write block is deliberately untouched — RMW
        combining is a per-disk (per-shard) affair and stays on the
        shard's own ledger.
        """
        self.reads += delta.reads
        self.writes += delta.writes
        self.combined += delta.combined
        self.allocations += delta.allocations

    # -- reading back ------------------------------------------------------

    @property
    def total(self) -> int:
        """Total charged I/Os so far."""
        return self.reads + self.writes

    @property
    def raw_total(self) -> int:
        """Total block transfers ignoring the read-modify-write netting."""
        return self.reads + self.writes + self.combined

    def snapshot(self) -> IOSnapshot:
        """Capture the current counter values."""
        return IOSnapshot(self.reads, self.writes, self.combined, self.allocations)

    def delta_since(self, snap: IOSnapshot) -> IOSnapshot:
        """Counters accumulated since ``snap`` was taken."""
        return self.snapshot() - snap

    @contextlib.contextmanager
    def measure(self) -> Iterator[IOSnapshot]:
        """Context manager yielding a snapshot that is updated in place on exit.

        >>> stats = IOStats()
        >>> with stats.measure() as cost:
        ...     stats.record_read(3)
        >>> cost.total
        1
        """
        before = self.snapshot()
        out = IOSnapshot(0, 0, 0, 0)
        yield out
        after = self.delta_since(before)
        out.reads = after.reads
        out.writes = after.writes
        out.combined = after.combined
        out.allocations = after.allocations

    def reset(self) -> None:
        """Zero every counter (policy is kept)."""
        self.reads = 0
        self.writes = 0
        self.combined = 0
        self.allocations = 0
        self._last_read_block = None

    def with_policy(self, **changes) -> "IOStats":
        """Return a fresh zeroed ``IOStats`` with a modified policy."""
        return IOStats(policy=replace(self.policy, **changes))
