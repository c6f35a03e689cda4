"""SERVICE SLO — latency vs. offered load, and the sustainable knee.

The closed-loop rows in ``bench_throughput.py`` measure *capacity*:
the client always has the next window ready, so reported latency is
pure service time.  This harness measures what the paper's dictionary
looks like as a *service*: an open-loop client offers load at a fixed
rate regardless of completion (seeded Poisson arrivals on a virtual
clock), so queueing delay appears the moment offered load approaches
capacity and the latency/throughput trade-off becomes visible.

Method: one closed-loop calibration run measures the config's capacity
``C`` (kops); the sweep then replays the same stream at offered loads
``f × C`` for f in LOADS through a bounded admission queue with the
``shed`` policy, using the calibrated rate as a deterministic virtual
service-time model — so every row (arrival times, queue depths, shed
decisions, percentiles) is exactly reproducible.  Each row reports
offered load, goodput (executed ops / makespan), p50/p99 end-to-end
latency (queueing included), queueing-delay p99, and the shed /
rejected / deadline-exceeded counts.  A final chaos row re-runs a
saturated sweep leg with injected fault bursts and per-shard breakers
(:func:`repro.service.run_overload_chaos`) to show degradation stays
accounted under shard failure.

Asserted shape:

* **knee** — some row with p99 ≤ SLO_MS sustains goodput within 20%
  of the calibrated closed-loop capacity (the service keeps its
  throughput while meeting the SLO, rather than meeting it only when
  idle);
* **graceful overload** — at the deepest overload factor the shed
  policy is actually shedding, goodput holds at ≥ 60% of capacity
  (no congestion collapse), and accounting conserves every op;
* **breaker chaos** — the chaos row trips at least one breaker and
  accounts every op (no silent loss under quarantine);
* **trace overhead** — re-running the closed-loop calibration leg with
  span tracing to a file costs ≤ 5% kops (best-of-3, alternating) and
  leaves the charged-I/O ledger bit-identical (tracing relabels, never
  recounts).

Headline numbers land in ``benchmark.extra_info`` → ``make slo-bench``
writes ``BENCH_slo.json`` at the repo root.  Every emitted series
is also stashed in ``extra_info["series"]`` so ``make plots`` can
regenerate the ``.dat`` files from the JSON alone; the knee-load sweep
leg additionally exports its per-epoch observability trace as
``plots/ts_slo_knee.dat``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.buffered import BufferedHashTable
from repro.em import make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.obs import TraceRecorder, timeseries_rows
from repro.service import (
    AdmissionController,
    ClosedLoopClient,
    DictionaryService,
    ObsConfig,
    OpenLoopClient,
    PoissonArrivals,
    run_overload_chaos,
)
from repro.workloads.trace import BulkMixedWorkload

from conftest import emit, once
from plotdata import (
    series_payload,
    timeseries_payload,
    write_series,
    write_timeseries,
)

B, M, U = 1024, 4096, 2**61 - 1
N = 120_000
#: Dispatch window; smaller than the throughput bench's 65536 so the
#: queue drains in fine enough grains for meaningful latency tails.
WINDOW = 8192
SHARDS = 8
MIX = (0.25, 0.60, 0.10, 0.05)
#: Offered-load factors, as multiples of calibrated capacity.
LOADS = (0.5, 0.8, 1.0, 1.3, 1.7, 2.5)
QUEUE_DEPTH = 16384
SLO_MS = 50.0
#: Knee gate: best SLO-meeting goodput vs. closed-loop capacity.
REQUIRED_KNEE_RATIO = 0.80
#: Overload gate: goodput retained at the deepest factor (shed policy).
REQUIRED_OVERLOAD_RATIO = 0.60
#: Chaos row scale (dry + fault legs run the full stream twice).
CHAOS_N = 60_000
#: The chaos service runs memory-starved (b=64, m=512 words per shard)
#: so the stream actually spills to disk — at the sweep's B/M the whole
#: chaos stream is buffer-resident and there would be no I/O to fault.
CHAOS_B, CHAOS_M = 64, 512
#: Trace-overhead gate: kops with file tracing vs. without (best-of-3).
REQUIRED_TRACE_RATIO = 0.95
TRACE_TRIALS = 3


def _table_factory(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=61))


def _make_service(obs=None):
    ctx = make_context(b=B, m=M, u=U, backend="arena")
    return DictionaryService(
        ctx, _table_factory, shards=SHARDS, epoch_ops=WINDOW, obs=obs
    )


def _make_chaos_service():
    ctx = make_context(b=CHAOS_B, m=CHAOS_M, u=U, backend="arena")
    return DictionaryService(
        ctx, _table_factory, shards=SHARDS, epoch_ops=WINDOW
    )


def _stream(n):
    from repro.workloads.generators import UniformKeys

    wl = BulkMixedWorkload(
        UniformKeys(U, seed=62), mix=MIX, seed=63, chunk=WINDOW
    )
    return wl.take_arrays(n)


def _trace_overhead(kinds, keys):
    """Closed-loop kops with and without file tracing (best-of-3 each).

    Runs the legs alternately so thermal / allocator drift hits both
    sides equally; also pins the relabelling contract — the charged-I/O
    ledger must be bit-identical with tracing on.
    """

    def _leg(obs):
        with _make_service(obs) as svc:
            rep = ClosedLoopClient(svc, window=WINDOW).drive(kinds, keys)
            ledger = svc.io_snapshot().as_dict()
        return rep.kops, ledger

    best_off = best_on = 0.0
    ledger_off = ledger_on = None
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "overhead.jsonl")
        for trial in range(TRACE_TRIALS):
            kops, ledger_off = _leg(None)
            best_off = max(best_off, kops)
            Path(trace_path).unlink(missing_ok=True)
            kops, ledger_on = _leg(ObsConfig(trace_path=trace_path))
            best_on = max(best_on, kops)
    assert ledger_on == ledger_off, (
        f"tracing changed the charged-I/O ledger: {ledger_on} vs {ledger_off}"
    )
    return best_off, best_on


def test_service_slo_sweep(benchmark):
    def sweep():
        kinds, keys = _stream(N)

        # Calibration: closed-loop capacity of this exact config/stream.
        with _make_service() as svc:
            base = ClosedLoopClient(svc, window=WINDOW).drive(kinds, keys)
        capacity_kops = base.kops
        service_rate = base.ops / base.seconds

        rows, reports, traces = [], [], []
        for factor in LOADS:
            # In-memory recorder per leg: the knee leg's records become
            # the ts_slo_knee per-epoch export after the knee is known.
            recorder = TraceRecorder(None)
            with _make_service(recorder) as svc:
                client = OpenLoopClient(
                    svc,
                    PoissonArrivals(factor * service_rate, seed=11),
                    controller=AdmissionController(
                        queue_depth=QUEUE_DEPTH, policy="shed"
                    ),
                    service_rate=service_rate,
                )
                rep = client.drive(kinds, keys)
            rows.append(dict({"load_x": factor}, **rep.row()))
            reports.append(rep)
            traces.append(recorder.records)

        # SLO-aware degradation leg: same overload through an unbounded
        # queue, but every op carries a deadline sized to the queueing
        # delay the overload actually builds — late work is dropped as
        # deadline_exceeded instead of being served uselessly late.
        deadline_s = (QUEUE_DEPTH / service_rate) / 2
        with _make_service() as svc:
            client = OpenLoopClient(
                svc,
                PoissonArrivals(LOADS[-1] * service_rate, seed=11),
                controller=AdmissionController(deadline_s=deadline_s),
                service_rate=service_rate,
            )
            deadline_rep = client.drive(kinds, keys)
        rows.append(dict({"load_x": "2.5+ddl"}, **deadline_rep.row()))

        chaos = run_overload_chaos(
            _make_chaos_service,
            *_stream(CHAOS_N),
            service_rate=service_rate / 4,
            rate_factor=1.5,
            queue_depth=QUEUE_DEPTH,
            policy="shed",
            seed=5,
        )

        kops_off, kops_on = _trace_overhead(kinds, keys)
        return (
            capacity_kops,
            service_rate,
            rows,
            reports,
            traces,
            deadline_rep,
            chaos,
            (kops_off, kops_on),
        )

    (
        capacity_kops,
        service_rate,
        rows,
        reports,
        traces,
        deadline_rep,
        chaos,
        (kops_off, kops_on),
    ) = once(benchmark, sweep)
    emit(
        f"Open-loop latency vs offered load (capacity {capacity_kops:.1f} "
        f"kops, shed policy, SLO p99 <= {SLO_MS:g} ms)",
        rows,
    )

    # Per-config series for the plotting pipeline: emitted as .dat now
    # (opt-in via $REPRO_PLOT_DIR, e.g. `make slo-bench`) AND stashed in
    # extra_info["series"] so `make plots` can regenerate them from
    # BENCH_slo.json alone.
    series_cols = (
        "load_x", "goodput_kops", "p50_ms", "p99_ms", "queue_p99",
        "shed", "rejected", "deadline_exceeded",
    )
    sweep_rows = [r for r in rows if isinstance(r["load_x"], float)]
    deadline_rows = [dict(deadline_rep.row(), load_x=LOADS[-1])]
    series = {
        "slo_sweep_shed": series_payload(sweep_rows, columns=series_cols),
        "slo_deadline": series_payload(deadline_rows, columns=series_cols),
    }
    write_series("slo_sweep_shed", sweep_rows, columns=series_cols)
    write_series("slo_deadline", deadline_rows, columns=series_cols)

    ok_rows = [r for r in sweep_rows if r["p99_ms"] <= SLO_MS]
    assert ok_rows, f"no offered load met the p99 <= {SLO_MS} ms SLO"
    knee = max(ok_rows, key=lambda r: r["goodput_kops"])
    knee_ts = timeseries_rows(traces[sweep_rows.index(knee)])
    series["ts_slo_knee"] = timeseries_payload(knee_ts)
    write_timeseries("slo_knee", knee_ts)
    assert knee["goodput_kops"] >= REQUIRED_KNEE_RATIO * capacity_kops, (
        f"SLO-sustainable goodput {knee['goodput_kops']:.1f} kops is below "
        f"{REQUIRED_KNEE_RATIO:.0%} of closed-loop capacity "
        f"{capacity_kops:.1f} kops"
    )

    # Graceful overload: shedding engaged, goodput held, every op
    # accounted at the deepest factor.
    deep = sweep_rows[-1]
    assert deep["shed"] > 0, "deepest overload factor never shed load"
    assert deep["goodput_kops"] >= REQUIRED_OVERLOAD_RATIO * capacity_kops, (
        f"goodput collapsed under overload: {deep['goodput_kops']:.1f} kops "
        f"vs capacity {capacity_kops:.1f}"
    )
    for factor, rep in zip(LOADS, reports):
        total = rep.executed + rep.shed + rep.rejected + rep.deadline_exceeded
        assert total == N, f"load {factor}x does not conserve ops: {rep}"
    # Underload rows execute everything.
    assert reports[0].executed == N

    # The deadline leg converts lateness into accounted drops.
    assert deadline_rep.deadline_exceeded > 0
    assert (
        deadline_rep.executed
        + deadline_rep.shed
        + deadline_rep.rejected
        + deadline_rep.deadline_exceeded
        == N
    )

    assert chaos.accounted == chaos.ops == CHAOS_N
    assert chaos.breaker_trips >= 1, "chaos row never tripped a breaker"

    # Tracing must be observation, not perturbation: ≤5% kops and a
    # bit-identical ledger (checked inside _trace_overhead).
    assert kops_on >= REQUIRED_TRACE_RATIO * kops_off, (
        f"file tracing cost too much: {kops_on:.1f} kops traced vs "
        f"{kops_off:.1f} untraced"
    )

    benchmark.extra_info["series"] = series
    benchmark.extra_info["trace_overhead"] = {
        "kops_off": round(kops_off, 1),
        "kops_on": round(kops_on, 1),
        "ratio": round(kops_on / kops_off, 3),
    }
    benchmark.extra_info["capacity_kops"] = round(capacity_kops, 1)
    benchmark.extra_info["service_rate_ops"] = round(service_rate, 1)
    benchmark.extra_info["slo_ms"] = SLO_MS
    benchmark.extra_info["max_sustainable_kops"] = round(
        knee["goodput_kops"], 1
    )
    benchmark.extra_info["knee_load_x"] = knee["load_x"]
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["chaos"] = {
        "ops": chaos.ops,
        "executed": chaos.executed,
        "shed": chaos.shed,
        "breaker_trips": chaos.breaker_trips,
        "breaker_recoveries": chaos.breaker_recoveries,
        "retries": chaos.retries,
        "faults_injected": chaos.faults_injected,
    }
    print(
        f"max sustainable goodput at p99 <= {SLO_MS:g} ms: "
        f"{knee['goodput_kops']:.1f} kops at {knee['load_x']}x "
        f"(capacity {capacity_kops:.1f} kops); chaos: "
        f"{chaos.breaker_trips} trips, {chaos.executed}/{chaos.ops} executed; "
        f"trace overhead: {kops_off:.1f} -> {kops_on:.1f} kops "
        f"({kops_on / kops_off:.1%})"
    )
