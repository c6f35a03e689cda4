"""The observability layer: tracing, metrics, and the relabelling contract.

Pinned here:

* **framing** — crc-framed JSONL round-trips; a torn tail or a flipped
  byte truncates the scan at the last valid record (journal idiom)
  instead of poisoning it;
* **relabelling** — observability on (span trace to a file, metrics
  folding) leaves lookup/delete results, per-shard ledgers, cluster
  totals and final contents bit-identical to the observability-off run
  of the same stream, across the cached, journaled and rebalancing
  configurations; the trace's charged-I/O records *partition* the
  ledger: ``charged_io(records) == io_snapshot().total``;
* **determinism** — wall-free traces of the same seeded stream are
  byte-identical across runs and shard orders (serial vs
  :class:`ReversedExecutor`), with and without a journal; wall-stamped traces agree modulo
  :data:`~repro.obs.WALL_FIELDS`; open-loop traces carry the virtual
  clock and are deterministic;
* **metrics** — the registry is shard-order-invariant, rides
  snapshot/restore, and its Prometheus dump is well-formed;
* **events** — admission, breaker, rebalance, fsync and cache-evict
  point events appear when (and only when) their subsystems engage.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.buffered import BufferedHashTable
from repro.em import ConfigurationError, make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.obs import (
    LogHistogram,
    MetricsRegistry,
    TraceRecorder,
    charged_io,
    epoch_spans,
    frame_record,
    metric_key,
    scan_trace,
    slowest_shard_batches,
    strip_wall,
    summarize_epochs,
    timeseries_rows,
    unframe_line,
)
from repro.service import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionController,
    ClosedLoopClient,
    DictionaryService,
    EpochJournal,
    ObsConfig,
    OpenLoopClient,
    PoissonArrivals,
    ShardBreakerBoard,
    restore_service,
    snapshot_service,
)
from repro.tables.sharded import _ROUTER_SEED
from repro.workloads.generators import AdversarialBucketKeys, UniformKeys
from repro.workloads.trace import BulkMixedWorkload

from reversed_executor import ReversedExecutor

U = 2**61 - 1
SHARDS = 4
WINDOW = 512
N = 4096
MIX = (0.25, 0.60, 0.10, 0.05)


def _table_factory(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=61))


def _stream(n=N, *, adversarial=False):
    gen = (
        AdversarialBucketKeys(
            U,
            seed=62,
            hash_fn=MULTIPLY_SHIFT.sample(U, seed=_ROUTER_SEED),
            buckets=SHARDS,
            hot=1,
        )
        if adversarial
        else UniformKeys(U, seed=62)
    )
    wl = BulkMixedWorkload(gen, mix=MIX, seed=63, chunk=WINDOW)
    return wl.take_arrays(n)


def _service(*, obs=None, cache_blocks=0, journal=None, rebalance=None,
             executor=None):
    # Memory-starved (m = 4 blocks of 64 words per cluster) so the
    # stream genuinely spills: every epoch charges I/O, and the cached
    # configuration sees hits, misses and evictions.
    ctx = make_context(
        b=64, m=256, u=U, backend="arena", cache_blocks=cache_blocks
    )
    svc = DictionaryService(
        ctx,
        _table_factory,
        shards=SHARDS,
        epoch_ops=WINDOW,
        journal=journal,
        rebalance=rebalance,
        obs=obs,
    )
    if executor is not None:
        svc.executor = executor
    return svc


def _fingerprint(svc, run):
    return (
        run.lookup_found.tolist(),
        run.delete_removed.tolist(),
        svc.io_snapshot().as_dict(),
        [s.as_dict() for s in svc.shard_io_snapshots()],
        len(svc),
    )


# -- framing ----------------------------------------------------------------


def test_frame_unframe_roundtrip():
    rec = {"t": "epoch", "seq": 3, "io": 17, "shards": [{"shard": 0}]}
    line = frame_record(rec)
    assert line.endswith(b"\n") and line[8:9] == b" "
    assert unframe_line(line.rstrip(b"\n")) == rec


def test_unframe_rejects_corruption():
    line = frame_record({"t": "run", "seq": 0}).rstrip(b"\n")
    assert unframe_line(line) is not None
    # Flip one payload byte: crc mismatch.
    corrupt = line[:-1] + (b"x" if line[-1:] != b"x" else b"y")
    assert unframe_line(corrupt) is None
    # Garbage shapes.
    assert unframe_line(b"") is None
    assert unframe_line(b"deadbeef") is None
    assert unframe_line(b"not a frame at all") is None
    # Valid crc over a non-dict JSON payload is still rejected.
    import json
    import zlib

    payload = json.dumps([1, 2]).encode()
    framed = b"%08x " % (zlib.crc32(payload) & 0xFFFFFFFF) + payload
    assert unframe_line(framed) is None


def test_scan_trace_stops_at_torn_tail(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceRecorder(path) as rec:
        for i in range(5):
            rec.emit("epoch", epoch=i, io=i)
    # Simulate a crash mid-write: append half a frame.
    whole = path.read_bytes()
    path.write_bytes(whole + frame_record({"t": "epoch", "epoch": 9})[:10])
    scan = scan_trace(path)
    assert scan.truncated
    assert scan.valid_lines == 5 and scan.total_lines == 6
    assert [r["epoch"] for r in scan.records] == list(range(5))
    # A flipped byte mid-file truncates there, keeping the valid prefix.
    lines = whole.splitlines(keepends=True)
    lines[2] = b"00000000 {}\n"
    path.write_bytes(b"".join(lines))
    scan = scan_trace(path)
    assert scan.truncated and scan.valid_lines == 2


def test_scan_trace_empty_file(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_bytes(b"")
    scan = scan_trace(path)
    assert scan.records == [] and not scan.truncated


def test_strip_wall_recurses_into_spans():
    rec = {
        "t": "epoch",
        "wall": 1.5,
        "io": 3,
        "shards": [{"shard": 0, "wall_ms": 0.2, "io": 3}],
    }
    bare = strip_wall(rec)
    assert bare == {"t": "epoch", "io": 3, "shards": [{"shard": 0, "io": 3}]}
    # Original untouched.
    assert "wall" in rec and "wall_ms" in rec["shards"][0]


def test_wall_free_recorder_strips_caller_wall_fields():
    rec = TraceRecorder(None, wall=False)
    rec.emit("epoch", epoch=0, wall_ms=3.2, shards=[{"shard": 1, "wall_ms": 1}])
    (record,) = rec.records
    assert "wall" not in record and "wall_ms" not in record
    assert record["shards"] == [{"shard": 1}]


# -- metrics registry -------------------------------------------------------


def test_log_histogram_binning():
    h = LogHistogram()
    assert LogHistogram.bucket_index(0) == 0
    assert LogHistogram.bucket_index(1) == 1
    assert LogHistogram.bucket_index(2) == 2
    assert LogHistogram.bucket_index(3) == 2
    assert LogHistogram.bucket_index(4) == 3
    assert LogHistogram.bucket_index(2**70) == 63
    for v in (0, 1, 2, 3, 1000):
        h.observe(v)
    d = h.as_dict()
    assert d["count"] == 5 and d["sum"] == 1006
    assert d["buckets"][2] == 2
    h2 = LogHistogram()
    for v in (0, 1, 2, 3, 1000):
        h2.observe(v)
    assert h == h2


def test_metric_key_sorts_labels():
    assert metric_key("x", {"b": 2, "a": 1}) == 'x{a="1",b="2"}'
    assert metric_key("x", {}) == "x"


def test_registry_counters_gauges_histograms():
    m = MetricsRegistry()
    m.inc("ops_total", 3, kind="insert")
    m.inc("ops_total", 2, kind="insert")
    m.inc("ops_total", 0, kind="delete")  # zero increments leave no key
    m.set_gauge("depth", 7)
    m.observe("epoch_io", 100)
    assert m.counter("ops_total", kind="insert") == 5
    assert m.counter("ops_total", kind="delete") == 0
    assert m.gauge("depth") == 7
    assert m.histogram("epoch_io").as_dict()["count"] == 1
    text = m.render()
    assert "# TYPE ops_total counter" in text
    assert 'ops_total{kind="insert"} 5' in text
    assert "# TYPE epoch_io histogram" in text
    assert "epoch_io_count 1" in text
    assert 'le="+Inf"' in text


def test_registry_pickles_and_compares():
    m = MetricsRegistry()
    m.inc("a", 2, x="1")
    m.observe("h", 9)
    m.set_gauge("g", 0.5)
    twin = pickle.loads(pickle.dumps(m))
    assert twin == m
    twin.inc("a", 1, x="1")
    assert twin != m


def test_obs_config_validation():
    with pytest.raises(ConfigurationError):
        ObsConfig(metrics_every=-1)
    with pytest.raises(ConfigurationError):
        ObsConfig(trace_path="")
    assert ObsConfig().trace_path is None


# -- the relabelling contract ------------------------------------------------


@pytest.mark.parametrize("cache_blocks", [0, 4])
def test_tracing_is_relabelling_only(tmp_path, cache_blocks):
    kinds, keys = _stream()
    with _service(cache_blocks=cache_blocks) as svc:
        baseline = _fingerprint(svc, svc.run(kinds, keys))

    trace = tmp_path / "t.jsonl"
    with _service(
        cache_blocks=cache_blocks, obs=ObsConfig(trace_path=str(trace))
    ) as svc:
        traced = _fingerprint(svc, svc.run(kinds, keys))
        total = svc.io_snapshot().total
    assert traced == baseline

    records = scan_trace(trace).records
    # The trace partitions the ledger: setup + epochs (+ migrations)
    # sum exactly to the cluster's charged total.
    assert charged_io(records) == total
    spans = epoch_spans(records)
    assert len(spans) == N // WINDOW
    for span in spans:
        assert span["io"] == sum(s["io"] for s in span["shards"])
    if cache_blocks:
        assert any("cache" in s for s in spans)


def test_tracing_is_relabelling_under_rebalance_and_journal(tmp_path):
    kinds, keys = _stream(adversarial=True)

    def leg(obs, journal_path):
        journal = EpochJournal(journal_path, fsync=False)
        with _service(journal=journal, rebalance=True, obs=obs) as svc:
            fp = _fingerprint(svc, svc.run(kinds, keys))
            extras = (svc.migrated_slots, svc.migration_io, svc.epochs_run)
            total = svc.io_snapshot().total
        return fp, extras, total

    base_fp, base_extras, _ = leg(None, tmp_path / "j0.bin")
    trace = tmp_path / "t.jsonl"
    traced_fp, traced_extras, total = leg(
        ObsConfig(trace_path=str(trace)), tmp_path / "j1.bin"
    )
    assert traced_fp == base_fp and traced_extras == base_extras
    assert base_extras[0] > 0, "adversarial stream must trigger migration"

    records = scan_trace(trace).records
    assert charged_io(records) == total
    rebalances = [r for r in records if r["t"] == "rebalance"]
    assert rebalances and sum(r["slots_moved"] for r in rebalances) == base_extras[0]
    assert sum(r["io"] for r in rebalances) == base_extras[1]
    fsyncs = [r for r in records if r["t"] == "fsync"]
    assert {r["kind"] for r in fsyncs} == {"commit", "rebalance"}
    assert len([r for r in fsyncs if r["kind"] == "commit"]) == base_extras[2]


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("journaled", [False, True])
def test_wall_free_trace_is_byte_identical(tmp_path, journaled):
    kinds, keys = _stream()

    def run(tag, executor):
        path = tmp_path / f"{tag}.jsonl"
        journal = (
            EpochJournal(tmp_path / f"{tag}.bin", fsync=False)
            if journaled
            else None
        )
        obs = ObsConfig(trace_path=str(path), wall_clock=False)
        with _service(journal=journal, executor=executor, obs=obs) as svc:
            svc.run(kinds, keys)
        return path.read_bytes()

    reverse = ReversedExecutor()
    a = run("a", None)
    b = run("b", None)
    c = run("c", reverse)
    assert reverse.reordered > 0
    # Same shard order: the whole file is byte-identical run to run.
    assert a == b
    # Reversed shard order: byte-identical too, run_start included (the
    # executor is swapped after construction, so it still says serial).
    assert a == c


def test_wall_trace_agrees_modulo_wall_fields(tmp_path):
    kinds, keys = _stream()
    paths = [tmp_path / "w0.jsonl", tmp_path / "w1.jsonl"]
    for path in paths:
        with _service(obs=ObsConfig(trace_path=str(path))) as svc:
            svc.run(kinds, keys)
    r0, r1 = (scan_trace(p).records for p in paths)
    assert [strip_wall(r) for r in r0] == [strip_wall(r) for r in r1]
    assert r0 != r1 or all("wall" not in r for r in r0)


def test_open_loop_trace_carries_virtual_clock():
    kinds, keys = _stream()

    def run():
        recorder = TraceRecorder(None, wall=False)
        with _service(obs=recorder) as svc:
            client = OpenLoopClient(
                svc,
                PoissonArrivals(50_000.0, seed=11),
                controller=AdmissionController(queue_depth=64, policy="shed"),
                service_rate=25_000.0,
            )
            rep = client.drive(kinds, keys)
        return recorder.records, rep

    records_a, rep_a = run()
    records_b, rep_b = run()
    assert records_a == records_b, "virtual-clock trace must be deterministic"
    assert rep_a.shed == rep_b.shed and rep_a.shed > 0
    admissions = [r for r in records_a if r["t"] == "admission"]
    assert admissions and all("vt" in r for r in admissions)
    assert admissions[-1]["shed"] == rep_a.shed
    # Overload shows up in the exported time series too.
    rows = timeseries_rows(records_a)
    assert sum(r["shed"] for r in rows) == rep_a.shed + rep_a.rejected
    assert all("queue" in r for r in rows)


# -- metrics folding over the service ----------------------------------------


def test_metrics_match_service_counters_and_executors():
    kinds, keys = _stream()
    dicts = []
    reverse = ReversedExecutor()
    for executor in (None, reverse):
        with _service(executor=executor) as svc:
            svc.run(kinds, keys)
            m = svc.metrics()
            assert m.counter("repro_epochs_total") == svc.epochs_run
            ops = sum(
                m.counter("repro_ops_total", kind=k)
                for k in ("insert", "lookup", "delete")
            )
            assert ops == N
            snap = svc.io_snapshot()
            # total nets out combined RMWs: reads + writes.
            assert (
                m.counter("repro_io_reads_total")
                + m.counter("repro_io_writes_total")
                == snap.total
            )
            assert m.counter("repro_io_combined_total") == snap.combined
            shard_sum = sum(
                m.counter("repro_shard_io_total", shard=str(i))
                for i in range(SHARDS)
            )
            assert shard_sum == snap.total
            dicts.append(m.as_dict())
    assert reverse.reordered > 0
    assert dicts[0] == dicts[1], "metrics registry must be shard-order-invariant"


def test_metrics_survive_snapshot_restore(tmp_path):
    kinds, keys = _stream()
    half = N // 2
    with _service() as svc:
        svc.run(kinds[:half], keys[:half])
        snapshot_service(svc, tmp_path / "s.pkl")
        svc.run(kinds[half:], keys[half:])
        full = svc.metrics().as_dict()

    twin = restore_service(tmp_path / "s.pkl")
    assert twin.metrics().counter("repro_epochs_total") == half // WINDOW
    twin.run(kinds[half:], keys[half:])
    assert twin.metrics().as_dict() == full
    twin.close()


def test_metrics_listener_fires_every_k_epochs():
    kinds, keys = _stream()
    seen = []
    with _service(obs=ObsConfig(metrics_every=2)) as svc:
        svc.metrics_listener = lambda epoch, m: seen.append(epoch)
        svc.run(kinds, keys)
    assert seen == [2, 4, 6, 8]


# -- breaker + admission events ----------------------------------------------


def test_breaker_board_transition_hook():
    board = ShardBreakerBoard(2, threshold=1, cooldown=10.0)
    events = []
    board.on_transition = lambda *args: events.append(args)
    board.record_failure(1, now=0.0)
    assert board.blocked(1, now=1.0)
    assert not board.blocked(1, now=11.0)  # probe allowed: half-open
    board.record_success(1, now=11.5)
    assert events == [
        (1, BREAKER_CLOSED, BREAKER_OPEN, 0.0),
        (1, BREAKER_OPEN, BREAKER_HALF_OPEN, 11.0),
        (1, BREAKER_HALF_OPEN, BREAKER_CLOSED, 11.5),
    ]
    assert board.trips == 1 and board.recoveries == 1


# -- export / summaries ------------------------------------------------------


def _traced_run():
    kinds, keys = _stream()
    recorder = TraceRecorder(None)
    with _service(obs=recorder) as svc:
        svc.run(kinds, keys)
        total = svc.io_snapshot().total
    return recorder.records, total


def test_summaries_and_timeseries_rows():
    records, total = _traced_run()
    epochs = N // WINDOW
    rows = timeseries_rows(records)
    assert [r["epoch"] for r in rows] == list(range(epochs))
    assert sum(r["ops"] for r in rows) == N
    # Early epochs may be fully buffer-resident (io 0); the steady
    # state must charge.
    assert rows[-1]["io_op"] > 0
    assert all(r["kops"] > 0 for r in rows)

    summary = summarize_epochs(records)
    assert len(summary) == epochs
    assert sum(r["io"] for r in summary) + charged_io(
        [r for r in records if r["t"] == "run_start"]
    ) == total

    slow = slowest_shard_batches(records, top=5)
    assert len(slow) == 5
    assert slow[0]["wall_ms"] >= slow[-1]["wall_ms"]


def test_closed_loop_report_row_schema_zero_fills():
    kinds, keys = _stream(1024)
    with _service() as svc:
        rep = ClosedLoopClient(svc, window=WINDOW).drive(kinds, keys)
    row = rep.row()
    assert list(row) == [c for c, _, _ in rep.ROW_SCHEMA]
    # Closed-loop, uncached, static routing: overload/cache/migration
    # columns zero-fill through the one schema.
    assert row["shed"] == row["rejected"] == row["deadline_exceeded"] == 0
    assert row["hit_rate"] == 0.0 and row["negative_hits"] == 0
    assert row["migrated_slots"] == 0
    assert row["goodput_kops"] == row["kops"]
