"""Span tracing: crc-framed JSONL records of *when* things happened.

The service's aggregate ledgers (:class:`~repro.em.iostats.IOStats`,
:class:`~repro.em.cache.CacheStats`, ``ClientReport.row()``) say *how
much* a run cost; they cannot say when inside the run a breaker
tripped, a migration fired, or the hit rate collapsed.  The
:class:`TraceRecorder` closes that gap with a span tree per run::

    run_start                       one per service (construction I/O)
    └── run                         one per DictionaryService.run()
        └── epoch                   one per closed epoch
            └── shards: [...]       per-shard batch sub-spans (embedded)

plus point events interleaved in emission order: ``fsync`` (journal
commit / rebalance barriers), ``rebalance`` (slot migrations),
``breaker`` (circuit transitions), ``admission`` (shed/reject/expiry
counts + queue depth), and ``cache_evict`` (buffer-pool pressure).

**Relabelling, never new charges.**  The recorder is a read-only
observer of deltas the service already computes at epoch close; with
tracing on, ledgers, layouts and results are bit-identical to tracing
off, and every charged I/O appears in exactly one span —
:func:`charged_io` over a trace equals the cluster ledger total (the
contract ``tests/test_obs.py`` pins).

**Two clocks.**  Every record can carry ``vt`` (the driving client's
virtual clock — deterministic) and ``wall``/``wall_ms`` (wall-clock
milliseconds — not).  :func:`strip_wall` removes the wall fields, and
the determinism contract is: same seed + virtual clock ⇒ traces
byte-identical modulo wall fields, whatever order the shards run in,
journal on or off.

**Framing.**  One record per line: 8 hex chars of crc32 over the
compact sorted-key JSON payload, a space, the payload.  Like the epoch
journal, :func:`scan_trace` stops at the first torn or corrupt line, so
a trace written alongside the journal survives a crash with a clean
valid prefix.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "WALL_FIELDS",
    "TraceRecorder",
    "TraceScan",
    "charged_io",
    "frame_record",
    "scan_trace",
    "strip_wall",
    "unframe_line",
]

#: Record fields that carry wall-clock time (nondeterministic by
#: nature).  Everything else in a trace is a pure function of the
#: request stream, the seeds and the virtual clock.
WALL_FIELDS = frozenset({"wall", "wall_ms"})


def frame_record(record: dict) -> bytes:
    """One crc-framed JSONL line: ``crc32-hex8 SP compact-json NL``."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x " % crc + payload + b"\n"


def unframe_line(line: bytes) -> dict | None:
    """Parse one framed line; ``None`` when torn/corrupt (crc or JSON)."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def strip_wall(record: dict) -> dict:
    """The record minus its wall-clock fields (recursing into sub-spans)."""
    out = {}
    for key, value in record.items():
        if key in WALL_FIELDS:
            continue
        if isinstance(value, list):
            value = [
                strip_wall(item) if isinstance(item, dict) else item
                for item in value
            ]
        out[key] = value
    return out


def charged_io(records) -> int:
    """Total charged I/O the trace attributes to spans.

    Construction (``run_start``), every epoch span, and every migration
    event each carry the ``io`` their ledger-merge delta charged; the
    three kinds partition the cluster ledger, so this sum equals
    ``service.io_snapshot().total`` — the relabelling contract.
    """
    return sum(
        r.get("io", 0)
        for r in records
        if r.get("t") in ("run_start", "epoch", "rebalance")
    )


@dataclass(frozen=True)
class TraceScan:
    """Result of scanning a trace file.

    ``records`` is the valid prefix in emission order; ``truncated`` is
    ``True`` when a torn/corrupt line stopped the scan early (the
    crash-survival case — everything before it is intact).
    """

    records: list[dict] = field(default_factory=list)
    valid_lines: int = 0
    total_lines: int = 0

    @property
    def truncated(self) -> bool:
        return self.valid_lines < self.total_lines


def scan_trace(path: str | Path) -> TraceScan:
    """Parse a crc-framed JSONL trace, stopping at the first bad line."""
    raw = Path(path).read_bytes()
    lines = [line for line in raw.split(b"\n") if line]
    records: list[dict] = []
    for line in lines:
        record = unframe_line(line)
        if record is None:
            break
        records.append(record)
    return TraceScan(
        records=records, valid_lines=len(records), total_lines=len(lines)
    )


class TraceRecorder:
    """Collects trace records; optionally streams them to a file.

    Parameters
    ----------
    path:
        Destination for the crc-framed JSONL stream.  ``None`` keeps
        the records in memory only (benchmark harnesses that feed the
        time-series exporter directly).  Each record is flushed as it
        is written, so a crash loses at most the in-flight line — the
        scanner's torn-tail rule discards it cleanly.
    wall:
        Stamp records with wall-clock fields (``wall`` = milliseconds
        since the recorder was created; span durations use
        ``wall_ms``).  Disable for byte-reproducible trace files with
        no stripping step.

    The ``vt`` attribute is the *virtual* clock: a driving client sets
    it before dispatching (and point-event emitters pass their own
    clock), so every record carries the deterministic simulation time
    alongside the wall stamps.
    """

    def __init__(self, path: str | Path | None = None, *, wall: bool = True) -> None:
        self.path = Path(path) if path is not None else None
        self.wall = wall
        #: In-memory copy of every emitted record, emission order.
        self.records: list[dict] = []
        #: Virtual-clock value stamped on subsequent records (or None).
        self.vt: float | None = None
        self.seq = 0
        self._t0 = time.perf_counter()
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")

    def emit(self, t: str, **fields) -> dict:
        """Append one record (type ``t``); returns the record dict."""
        record = {"t": t, "seq": self.seq, **fields}
        if self.vt is not None and "vt" not in record:
            record["vt"] = self.vt
        if self.wall:
            record["wall"] = round((time.perf_counter() - self._t0) * 1e3, 3)
        else:
            # Wall-free mode strips every wall field callers stamped, so
            # the whole trace is byte-reproducible, not just mostly so.
            record = strip_wall(record)
        self.seq += 1
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(frame_record(record))
            self._fh.flush()
        return record

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dest = str(self.path) if self.path else "memory"
        return f"TraceRecorder({dest!r}, records={len(self.records)})"
