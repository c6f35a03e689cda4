"""The epoch write-ahead journal: redo logging at epoch granularity.

PR 5's epoch scheduler gave the service a natural atomicity boundary:
an epoch's per-shard batches either all merged into the cluster ledger
or the epoch never happened.  The journal makes that boundary durable:

* **before** an epoch executes, its encoded ops (the ``(kinds, keys)``
  slice plus its global stream positions) are appended as an ``OPS``
  record (flushed, not yet fsynced);
* **after** the epoch's per-shard ledgers merged, a ``COMMIT`` marker
  for the same epoch index is appended and **fsynced** — the one
  barrier per epoch, which forces the buffered OPS record down with it.
  An epoch is durable iff its marker is on disk; an OPS record that
  never reached the device reads on recovery exactly like an
  uncommitted one, so the deferred barrier loses nothing.

Recovery (:mod:`repro.service.recovery`) then is: load the last
snapshot, re-execute every journaled epoch whose ``COMMIT`` marker made
it to disk, and discard the tail — a half-executed epoch shows up as an
``OPS`` record with no marker (or as a torn record) and is simply re-run
by the resuming client.  Because epoch execution is deterministic, the
replayed epochs charge bit-identical I/O to the original run.

Record format (little-endian)::

    record  := header payload
    header  := magic "RJL1" | type u8 | epoch u64 | start u64 | stop u64
               | crc32 u32
    type    := 1 (OPS), 2 (COMMIT) or 3 (REBALANCE)
    payload := OPS:       kinds  (stop-start bytes, one op code each)
                          keys   ((stop-start) * 8 bytes, uint64)
               COMMIT:    empty
               REBALANCE: (stop-start) * 3 uint64 (slot, src, dst) triples

The REBALANCE record is the rebalancer's write-ahead intent: the
``epoch`` field carries the migration *sequence number*, ``start`` the
stream position the migration runs at, and ``stop - start`` the move
count.  It is appended **fsynced, before the moves execute**, and is
self-committed — crash mid-migration and recovery re-executes the
journaled moves deterministically (slot drains are pure functions of
the shard state the committed-epoch replay just rebuilt).

``crc32`` covers the header fields after the magic plus the payload, so
a torn append (crash mid-record) is detected and everything from the
first invalid byte on is ignored — exactly the redo-log convention.
``start``/``stop`` are *global* stream positions (across ``run()``
calls), which is what lets a resuming client know where to pick the
trace back up.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["EpochJournal", "JournalRecord", "JournalScan"]

#: Header layout: magic, record type, epoch index, global start/stop, crc.
_HEADER = struct.Struct("<4sBQQQI")
_MAGIC = b"RJL1"
_OPS = 1
_COMMIT = 2
_REBALANCE = 3


def _crc(rtype: int, epoch: int, start: int, stop: int, payload: bytes) -> int:
    head = struct.pack("<BQQQ", rtype, epoch, start, stop)
    return zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF


@dataclass(frozen=True)
class JournalRecord:
    """One parsed journal record (``kinds``/``keys`` only for OPS,
    ``moves`` only for REBALANCE — where ``epoch`` is the migration
    sequence number and ``stop - start`` the move count)."""

    kind: str  # "ops" | "commit" | "rebalance"
    epoch: int
    start: int
    stop: int
    kinds: np.ndarray | None = None
    keys: np.ndarray | None = None
    moves: tuple[tuple[int, int, int], ...] | None = None

    @property
    def ops(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning a journal file.

    ``committed`` holds the OPS records whose COMMIT marker made it to
    disk, in epoch order; ``redo`` is the full redo set — the committed
    OPS records *and* the (self-committed) REBALANCE records,
    interleaved in log order, which is the order recovery re-executes
    them in.  ``valid_bytes`` is the offset of the first invalid/torn
    byte; ``committed_bytes`` the offset just after the last durable
    record (truncating there discards the uncommitted tail so a resumed
    journal re-appends the re-run epoch).
    """

    records: list[JournalRecord]
    committed: list[JournalRecord]
    redo: list[JournalRecord]
    valid_bytes: int
    committed_bytes: int
    uncommitted_ops: int


class EpochJournal:
    """Append-side handle on an epoch journal file.

    Parameters
    ----------
    path:
        Journal file; created (with parents) when missing, appended to
        when present — recovery truncates the uncommitted tail first.
    fsync:
        Issue the commit barrier (one fsync per epoch, at the COMMIT
        marker — the protocol's durability guarantee).  Disable only in
        tests that measure pure journaling overhead.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._fh = open(self.path, "ab")
        #: Appended/committed counters (instrumentation).
        self.appended_epochs = 0
        self.committed_epochs = 0
        self.bytes_written = 0

    # -- encoding ------------------------------------------------------------

    @staticmethod
    def encode_ops(
        epoch: int, start: int, stop: int, kinds: np.ndarray, keys: np.ndarray
    ) -> bytes:
        """The OPS record bytes for one epoch (also used by fault tests)."""
        payload = (
            np.ascontiguousarray(kinds, dtype=np.uint8).tobytes()
            + np.ascontiguousarray(keys, dtype="<u8").tobytes()
        )
        header = _HEADER.pack(
            _MAGIC, _OPS, epoch, start, stop, _crc(_OPS, epoch, start, stop, payload)
        )
        return header + payload

    @staticmethod
    def encode_commit(epoch: int, start: int, stop: int) -> bytes:
        return _HEADER.pack(
            _MAGIC, _COMMIT, epoch, start, stop, _crc(_COMMIT, epoch, start, stop, b"")
        )

    @staticmethod
    def encode_rebalance(seq: int, position: int, moves) -> bytes:
        """The REBALANCE record bytes for one migration decision.

        ``seq`` is the migration sequence number (how many migrations
        the service has applied before this one), ``position`` the
        committed stream position it runs at, ``moves`` the
        ``(slot, src, dst)`` triples in execution order.
        """
        payload = np.asarray(
            [(m[0], m[1], m[2]) for m in moves], dtype="<u8"
        ).tobytes()
        start, stop = position, position + len(moves)
        header = _HEADER.pack(
            _MAGIC,
            _REBALANCE,
            seq,
            start,
            stop,
            _crc(_REBALANCE, seq, start, stop, payload),
        )
        return header + payload

    # -- the write protocol --------------------------------------------------

    def append_epoch(
        self, epoch: int, start: int, stop: int, kinds: np.ndarray, keys: np.ndarray
    ) -> None:
        """Record an epoch's ops *before* it executes (no barrier yet).

        The append is flushed but not fsynced: durability is only
        promised at :meth:`commit`, and an OPS record that never reaches
        the device is indistinguishable on recovery from one with no
        COMMIT marker — the epoch is discarded and re-driven either way.
        Deferring the barrier halves the fsyncs per epoch.
        """
        if stop - start != len(kinds) or len(kinds) != len(keys):
            raise ValueError(
                f"epoch bounds [{start}, {stop}) do not match "
                f"{len(kinds)} kinds / {len(keys)} keys"
            )
        self._write(self.encode_ops(epoch, start, stop, kinds, keys))
        self.appended_epochs += 1

    def commit(self, epoch: int, start: int, stop: int) -> None:
        """Durably mark an epoch committed *after* its ledger merge.

        The single fsync here is the commit barrier: it forces the
        epoch's buffered OPS record and this marker to the device
        together, so "COMMIT on disk" implies "ops on disk".
        """
        self._write(self.encode_commit(epoch, start, stop), barrier=True)
        self.committed_epochs += 1

    def append_rebalance(self, seq: int, position: int, moves) -> None:
        """Durably record a migration's intent *before* it executes.

        Write-ahead with its own barrier: once this returns, a crash at
        any point during the slot drains leaves the record on disk and
        recovery re-executes the moves; a crash before it leaves no
        trace and the rebalancer simply re-decides after recovery.
        """
        if not moves:
            raise ValueError("a REBALANCE record needs at least one move")
        self._write(self.encode_rebalance(seq, position, moves), barrier=True)

    def _write(self, record: bytes, *, barrier: bool = False) -> None:
        self._fh.write(record)
        self._fh.flush()
        if barrier and self.fsync:
            os.fsync(self._fh.fileno())
        self.bytes_written += len(record)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EpochJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the read side -------------------------------------------------------

    @classmethod
    def scan(cls, path: str | Path) -> JournalScan:
        """Parse a journal, stopping at the first torn/corrupt byte."""
        try:
            raw = Path(path).read_bytes()
        except FileNotFoundError:
            return JournalScan([], [], [], 0, 0, 0)
        records: list[JournalRecord] = []
        committed: list[JournalRecord] = []
        redo: list[JournalRecord] = []
        pending: dict[int, JournalRecord] = {}
        offset = 0
        committed_bytes = 0
        while offset + _HEADER.size <= len(raw):
            magic, rtype, epoch, start, stop, crc = _HEADER.unpack_from(raw, offset)
            if magic != _MAGIC or rtype not in (_OPS, _COMMIT, _REBALANCE):
                break
            if rtype == _OPS:
                body_len = (stop - start) * 9
            elif rtype == _REBALANCE:
                body_len = (stop - start) * 24
            else:
                body_len = 0
            end = offset + _HEADER.size + body_len
            if end > len(raw):
                break  # torn append: the record tail never hit the disk
            payload = raw[offset + _HEADER.size : end]
            if _crc(rtype, epoch, start, stop, payload) != crc:
                break
            if rtype == _OPS:
                n = stop - start
                rec = JournalRecord(
                    kind="ops",
                    epoch=epoch,
                    start=start,
                    stop=stop,
                    kinds=np.frombuffer(payload[:n], dtype=np.uint8).copy(),
                    keys=np.frombuffer(payload[n:], dtype="<u8").astype(np.uint64),
                )
                pending[epoch] = rec
            elif rtype == _REBALANCE:
                triples = np.frombuffer(payload, dtype="<u8").reshape(-1, 3)
                rec = JournalRecord(
                    kind="rebalance",
                    epoch=epoch,
                    start=start,
                    stop=stop,
                    moves=tuple(
                        (int(s), int(a), int(b)) for s, a, b in triples
                    ),
                )
                # Self-committed: fsynced before the moves execute.
                redo.append(rec)
                committed_bytes = end
            else:
                rec = JournalRecord(kind="commit", epoch=epoch, start=start, stop=stop)
                ops_rec = pending.pop(epoch, None)
                if ops_rec is not None:
                    committed.append(ops_rec)
                    redo.append(ops_rec)
                    committed_bytes = end
            records.append(rec)
            offset = end
        return JournalScan(
            records=records,
            committed=committed,
            redo=redo,
            valid_bytes=offset,
            committed_bytes=committed_bytes,
            uncommitted_ops=sum(r.ops for r in pending.values()),
        )

    @staticmethod
    def check_file(path: str | Path) -> None:
        """Raise :class:`ValueError` naming ``path`` unless it is a file
        whose first bytes are a prefix of the record magic.  An empty file,
        or one cut inside its first record, passes: a journal with nothing
        committed."""
        try:
            with open(path, "rb") as fh:
                head = fh.read(len(_MAGIC))
        except FileNotFoundError:
            raise ValueError(f"no journal file at {path}") from None
        if not _MAGIC.startswith(head):
            raise ValueError(f"{path} is not an epoch journal (starts {head!r})")

    @staticmethod
    def truncate(path: str | Path, nbytes: int) -> None:
        """Cut the journal back to ``nbytes`` (drop the uncommitted tail)."""
        with open(path, "rb+") as fh:
            fh.truncate(nbytes)
            fh.flush()
            os.fsync(fh.fileno())
