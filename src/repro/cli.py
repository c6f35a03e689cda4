"""Command-line interface: ``python -m repro <command>``.

Gives quick terminal access to the headline artifacts without writing
code:

* ``figure1``   — print the ASCII tradeoff plane with measured points.
* ``knuth``     — print the analytic Knuth §6.4 reference grid.
* ``baselines`` — run the one-workload structure comparison.
* ``audit``     — zone-decompose and certify the built-in tables.
* ``trace``     — replay a mixed workload against a chosen table.
* ``serve``     — drive the dictionary service over a mixed request
  stream: closed-loop by default, or open-loop (``--arrival poisson |
  diurnal | bursty`` + ``--rate``) with a bounded admission queue
  (``--queue-depth``), per-op deadlines (``--deadline``) and a shedding
  policy (``--shed-policy``); optionally journaled (``--journal``) and
  checkpointed (``--snapshot``).
* ``recover``   — rebuild a crashed ``serve`` run from its snapshot +
  journal and report what was replayed.
* ``trace-summary`` — per-epoch table + slowest shard batches from a
  ``serve --trace`` span-trace file (``--torn-ok`` accepts the valid
  prefix of a crash-truncated trace).
* ``slo``       — sweep open-loop offered load across the capacity knee
  and report goodput, queueing-inclusive p99, and the max sustainable
  rate under a p99 SLO.

Every command accepts ``--b``, ``--m``, ``--n`` to change the model
geometry, plus the system axes ``--backend`` (storage backend behind
the disk: ``mapping``, ``arena``, or the memmap-persistent
``durable-arena``; I/O counts are backend-invariant), ``--shards``
(fan the dictionary out over N independent shards) and
``--cache-blocks`` (per-shard buffer pool: hits are served uncharged,
results stay bit-identical), and prints plain aligned tables (no
plotting dependencies).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .analysis.knuth import knuth_table
from .analysis.tradeoff_curves import format_rows, render_figure1
from .baselines.btree import BTree
from .baselines.lsm import LSMTree
from .core.buffered import BufferedHashTable
from .core.config import (
    ARRIVAL_KINDS,
    KEY_DISTS,
    OVERLOAD_POLICIES,
    BufferedParams,
    ObsConfig,
    StorageConfig,
    TrafficConfig,
)
from .em.errors import ConfigurationError, MemoryBudgetExceededError
from .core.jensen_pagh import JensenPaghTable
from .core.logmethod import LogMethodHashTable
from .core.tradeoff import figure1_curves
from .em import BACKENDS, make_context
from .hashing.family import MULTIPLY_SHIFT
from .tables.chaining import ChainedHashTable
from .tables.sharded import _ROUTER_SEED, make_sharded
from .workloads.drivers import measure_table
from .workloads.generators import UniformKeys, make_generator
from .workloads.trace import MixedWorkload, replay


def _add_geometry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b", type=int, default=64, help="words per block")
    parser.add_argument("--m", type=int, default=512, help="words of memory")
    parser.add_argument("--n", type=int, default=6000, help="keys to insert")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="mapping",
        help="storage backend behind the disk (never changes I/O counts)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the dictionary over N independent routers (1 = off)",
    )
    parser.add_argument(
        "--cache-blocks",
        type=int,
        default=0,
        help="per-shard buffer-pool capacity in blocks (0 = uncached; "
        "hits are uncharged, results stay bit-identical)",
    )


def _storage(args) -> StorageConfig:
    """Validate and bundle the system axes of a CLI invocation."""
    return StorageConfig(
        backend=args.backend,
        shards=args.shards,
        cache_blocks=args.cache_blocks,
    )


def _add_traffic(parser: argparse.ArgumentParser) -> None:
    """The load-model axes of `serve` (closed-loop by default)."""
    parser.add_argument(
        "--arrival",
        choices=list(ARRIVAL_KINDS),
        default="closed",
        help="load model: closed-loop client, or an open-loop arrival process",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="mean offered load in ops/sec (open-loop arrivals only)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="bound the admission queue (open-loop; default unbounded)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-op queueing deadline in virtual seconds (open-loop)",
    )
    parser.add_argument(
        "--shed-policy",
        choices=list(OVERLOAD_POLICIES),
        default="reject",
        help="overload policy once the queue passes its high-water mark",
    )


def _table_factories(args) -> dict[str, Callable]:
    storage = _storage(args)
    factories = _base_factories(args)
    if storage.shards == 1:
        return factories
    return {
        name: make_sharded(factory, storage.shards)
        for name, factory in factories.items()
    }


def _base_factories(args) -> dict[str, Callable]:
    return {
        "chaining": lambda c: ChainedHashTable(
            c,
            MULTIPLY_SHIFT.sample(c.u, args.seed),
            buckets=max(16, 2 * args.n // args.b),
            max_load=None,
        ),
        "buffered": lambda c: BufferedHashTable(
            c,
            MULTIPLY_SHIFT.sample(c.u, args.seed),
            params=BufferedParams.for_query_exponent(args.b, 0.5),
        ),
        "logmethod": lambda c: LogMethodHashTable(
            c, MULTIPLY_SHIFT.sample(c.u, args.seed)
        ),
        "jensen-pagh": lambda c: JensenPaghTable(
            c, MULTIPLY_SHIFT.sample(c.u, args.seed)
        ),
        "lsm": lambda c: LSMTree(c, gamma=4, memtable_items=max(32, args.m // 8)),
        "btree": lambda c: BTree(c),
    }


def cmd_figure1(args) -> int:
    storage = _storage(args)

    def ctx_factory():
        return make_context(
            b=args.b, m=args.m, u=2**40, backend=storage.backend,
            cache_blocks=storage.cache_blocks,
        )

    curves = figure1_curves(args.b, args.n, args.m)
    factories = _table_factories(args)
    std = measure_table(ctx_factory, factories["chaining"], args.n, seed=args.seed)
    curves.add_measured(2.0, std.t_q, std.t_u, "standard chaining")
    for c in (0.25, 0.5, 0.75):
        factory = lambda ctx, c=c: BufferedHashTable(
            ctx,
            MULTIPLY_SHIFT.sample(ctx.u, args.seed),
            params=BufferedParams.for_query_exponent(args.b, c),
        )
        # Same sharding mechanism as _table_factories: pre-wrap the
        # factory, never pass shards= on top of a wrapped one.
        if storage.shards > 1:
            factory = make_sharded(factory, storage.shards)
        m = measure_table(ctx_factory, factory, args.n, seed=args.seed)
        curves.add_measured(c, m.t_q, m.t_u, f"buffered c={c}")
    print(render_figure1(curves))
    return 0


def cmd_knuth(args) -> int:
    rows = [
        {
            "b": r.b,
            "alpha": r.alpha,
            "t_q_success": round(r.successful, 6),
            "t_q_fail": round(r.unsuccessful, 6),
            "overflow": f"{r.overflow:.2e}",
        }
        for r in knuth_table()
    ]
    print(format_rows(rows))
    return 0


def cmd_baselines(args) -> int:
    storage = _storage(args)

    def ctx_factory():
        return make_context(
            b=args.b, m=args.m, u=2**40, backend=storage.backend,
            cache_blocks=storage.cache_blocks,
        )

    rows = []
    for name, factory in _table_factories(args).items():
        m = measure_table(ctx_factory, factory, args.n, seed=args.seed)
        rows.append({"table": name, "t_u": round(m.t_u, 4), "t_q": round(m.t_q, 4)})
    print(format_rows(rows))
    return 0


def cmd_audit(args) -> int:
    from .lowerbound.zones import decompose

    storage = _storage(args)
    rows = []
    for name, factory in _table_factories(args).items():
        ctx = make_context(
            b=args.b, m=args.m, u=2**40, backend=storage.backend,
            cache_blocks=storage.cache_blocks,
        )
        table = factory(ctx)
        table.insert_many(UniformKeys(ctx.u, args.seed).take(args.n))
        z = decompose(table.layout_snapshot())
        rows.append(
            {
                "table": name,
                "memory": len(z.memory),
                "fast": len(z.fast),
                "slow": len(z.slow),
                "query_floor": round(z.query_cost_lower_bound(), 4),
            }
        )
    print(format_rows(rows))
    return 0


def cmd_trace(args) -> int:
    factories = _table_factories(args)
    if args.table not in factories:
        print(f"unknown table {args.table!r}; choose from {sorted(factories)}")
        return 2
    storage = _storage(args)
    ctx = make_context(
        b=args.b, m=args.m, u=2**40, backend=storage.backend,
        cache_blocks=storage.cache_blocks,
    )
    table = factories[args.table](ctx)
    wl = MixedWorkload(
        UniformKeys(ctx.u, args.seed),
        mix=tuple(args.mix),
        seed=args.seed + 1,
    )
    report = replay(table, wl.ops(args.n), strict=False)
    print(format_rows(report.rows()))
    print(f"\ntotal: {report.total_ops} ops, {report.total_ios} I/Os "
          f"({report.amortized:.4f}/op), {report.errors} unsupported ops skipped")
    return 0


def _make_keygen(args, u: int):
    """Build the ``serve`` key stream for ``--key-dist``.

    The adversarial stream attacks the service's own slot router (the
    fixed-seed hash every service instance shares), concentrating all
    keys on the buckets that map to shard 0 under static routing —
    the worst case the rebalancer exists to absorb.
    """
    if args.key_dist == "zipf":
        return make_generator("zipf", u, args.seed, theta=args.zipf_theta)
    if args.key_dist == "adversarial":
        router = MULTIPLY_SHIFT.sample(u, seed=_ROUTER_SEED)
        return make_generator(
            "adversarial", u, args.seed,
            hash_fn=router, buckets=max(args.shards, 2), hot=1,
        )
    return make_generator(args.key_dist, u, args.seed)


def _traffic(args) -> TrafficConfig:
    return TrafficConfig(
        arrival=args.arrival,
        rate=args.rate,
        queue_depth=args.queue_depth,
        deadline_s=args.deadline,
        shed_policy=args.shed_policy,
    )


def _obs(args) -> ObsConfig | None:
    """Observability config from ``serve``'s flags (None = untraced)."""
    if not args.trace and not args.metrics_every:
        return None
    return ObsConfig(trace_path=args.trace, metrics_every=args.metrics_every)


def _validate_stream(args) -> str | None:
    """The ``--mix`` and ``--epoch-ops`` checks ``serve`` and ``slo`` share."""
    mix_sum = sum(args.mix)
    if any(w < 0 for w in args.mix):
        return f"--mix weights must be non-negative, got {args.mix}"
    if abs(mix_sum - 1.0) > 1e-6:
        return f"--mix must sum to 1.0, got {args.mix} (sum {mix_sum:.6g})"
    if args.epoch_ops <= 0:
        return f"--epoch-ops must be positive, got {args.epoch_ops}"
    return None


def _validate_serve(args) -> str | None:
    """The ``serve`` checks no config class makes (shards already valid)."""
    if args.window <= 0:
        return f"--window must be positive, got {args.window}"
    if args.key_dist == "zipf" and not args.zipf_theta > 1.0:
        return f"--zipf-theta must exceed 1.0, got {args.zipf_theta}"
    if args.slots is not None and (
        args.slots <= 0 or args.slots % args.shards != 0
    ):
        return (
            f"--slots must be a positive multiple of --shards "
            f"(got slots={args.slots}, shards={args.shards})"
        )
    return None


def cmd_serve(args) -> int:
    from .service import (
        AdmissionController,
        ClosedLoopClient,
        DictionaryService,
        EpochJournal,
        OpenLoopClient,
        make_arrivals,
    )
    from .workloads.trace import BulkMixedWorkload

    # Config classes raise ConfigurationError (exit 2 in main()) before
    # the journal file opens or the workload is generated.
    storage, traffic, obs = _storage(args), _traffic(args), _obs(args)
    error = _validate_stream(args) or _validate_serve(args)
    if error is not None:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    factories = _base_factories(args)
    if args.table not in factories:
        print(f"unknown table {args.table!r}; choose from {sorted(factories)}")
        return 2
    ctx = make_context(
        b=args.b, m=args.m, u=2**40, backend=storage.backend,
        cache_blocks=storage.cache_blocks,
    )
    wl = BulkMixedWorkload(
        _make_keygen(args, ctx.u),
        mix=tuple(args.mix),
        seed=args.seed + 1,
        chunk=args.window,  # chunk-aligned windows maximise epoch sizes
    )
    kinds, keys = wl.take_arrays(args.n)
    journal = EpochJournal(args.journal) if args.journal else None
    with DictionaryService(
        ctx,
        factories[args.table],
        shards=args.shards,
        executor=args.executor,
        epoch_ops=args.epoch_ops,
        journal=journal,
        slots=args.slots,
        rebalance=args.rebalance or None,
        obs=obs,
    ) as svc:
        if args.metrics_every:
            def _dump(epoch: int, registry) -> None:
                print(f"-- metrics @ epoch {epoch} --")
                print(registry.render(), end="")

            svc.metrics_listener = _dump
        if args.snapshot:
            # The t=0 checkpoint: `repro recover` rebuilds the final
            # state from it plus the journal's committed epochs.
            svc.snapshot(args.snapshot)
        if traffic.open_loop:
            client = OpenLoopClient(
                svc,
                make_arrivals(traffic.arrival, traffic.rate, seed=args.seed + 2),
                controller=AdmissionController(
                    queue_depth=traffic.queue_depth,
                    policy=traffic.shed_policy,
                    deadline_s=traffic.deadline_s,
                ),
            )
            report = client.drive(kinds, keys)
        else:
            report = ClosedLoopClient(svc, window=args.window).drive(kinds, keys)
        print(format_rows([dict(report.row(), arrival=traffic.arrival,
                                executor=args.executor, shards=args.shards,
                                backend=args.backend,
                                key_dist=args.key_dist)]))
        if svc.rebalancer is not None:
            print(f"\nrebalance: {svc.migrations_applied} migrations, "
                  f"{svc.migrated_slots} slots / {svc.keys_moved} keys moved, "
                  f"{svc.migration_io} I/Os charged")
        io = svc.io_snapshot()
        print(f"\ncluster I/O: {io.reads + io.writes} "
              f"(reads={io.reads} writes={io.writes} combined={io.combined}), "
              f"memory peak {svc.memory_high_water()} words over "
              f"{svc.shards} shard machines")
        if storage.cache_blocks:
            cache = svc.cache_snapshot()
            print(f"cluster cache: hits={cache.hits} misses={cache.misses} "
                  f"negative_hits={cache.negative_hits} "
                  f"hit_rate={cache.hit_rate:.3f} "
                  f"({storage.cache_blocks} blocks/shard)")
        if journal is not None:
            print(f"journal: {journal.committed_epochs} epochs committed, "
                  f"{journal.bytes_written} bytes -> {args.journal}")
            journal.close()
        if args.trace:
            print(f"trace: {svc.recorder.seq} records -> {args.trace}")
        if args.metrics_every:
            print(f"-- metrics @ end ({svc.epochs_run} epochs) --")
            print(svc.metrics().render(), end="")
    return 0


def cmd_trace_summary(args) -> int:
    from .obs import charged_io, scan_trace, slowest_shard_batches, summarize_epochs

    if args.top <= 0:
        print(f"trace-summary: --top must be positive, got {args.top}",
              file=sys.stderr)
        return 2
    try:
        scan = scan_trace(args.trace)
    except OSError as exc:
        print(f"trace-summary: {exc}", file=sys.stderr)
        return 2
    if not scan.records:
        print(f"trace-summary: {args.trace}: no valid trace records",
              file=sys.stderr)
        return 2
    if scan.truncated and not args.torn_ok:
        print(
            f"trace-summary: {args.trace}: torn/corrupt record after line "
            f"{scan.valid_lines} of {scan.total_lines} "
            f"(use --torn-ok to summarise the valid prefix)",
            file=sys.stderr,
        )
        return 2
    records = scan.records
    if scan.truncated:
        print(
            f"trace-summary: warning: summarising {scan.valid_lines} valid "
            f"records (torn tail after line {scan.valid_lines})",
            file=sys.stderr,
        )
    epochs = summarize_epochs(records)
    if not epochs:
        print(f"trace-summary: {args.trace}: trace contains no epoch spans",
              file=sys.stderr)
        return 2
    print(format_rows(epochs))
    slow = slowest_shard_batches(records, top=args.top)
    if slow:
        print(f"\nslowest {len(slow)} shard batches:")
        print(format_rows(slow))
    total_ops = sum(r["ops"] for r in epochs)
    events = sum(
        1 for r in records if r.get("t") in ("fsync", "rebalance", "breaker",
                                             "admission", "cache_evict")
    )
    print(
        f"\n{len(epochs)} epochs, {total_ops} ops, "
        f"{charged_io(records)} charged I/Os attributed "
        f"({events} point events, {len(records)} records)"
    )
    return 0


def _validate_slo(args) -> str | None:
    if not args.loads or any(not f > 0 for f in args.loads):
        return f"--loads factors must be positive, got {args.loads}"
    if args.queue_depth is not None and args.queue_depth <= 0:
        return f"--queue-depth must be positive, got {args.queue_depth}"
    if args.deadline is not None and not args.deadline > 0:
        return f"--deadline must be positive, got {args.deadline}"
    if not args.slo_ms > 0:
        return f"--slo-ms must be positive, got {args.slo_ms}"
    return None


def cmd_slo(args) -> int:
    """Latency-vs-offered-load sweep across the capacity knee."""
    from .service import (
        AdmissionController,
        ClosedLoopClient,
        DictionaryService,
        OpenLoopClient,
        make_arrivals,
    )
    from .workloads.trace import BulkMixedWorkload

    storage = _storage(args)
    error = _validate_stream(args) or _validate_slo(args)
    if error is not None:
        print(f"slo: {error}", file=sys.stderr)
        return 2
    factories = _base_factories(args)
    if args.table not in factories:
        print(f"unknown table {args.table!r}; choose from {sorted(factories)}")
        return 2

    def make_service():
        ctx = make_context(
            b=args.b, m=args.m, u=2**40, backend=storage.backend,
            cache_blocks=storage.cache_blocks,
        )
        return DictionaryService(
            ctx, factories[args.table], shards=args.shards,
            epoch_ops=args.epoch_ops,
        )

    wl = BulkMixedWorkload(
        UniformKeys(2**40, args.seed),
        mix=tuple(args.mix),
        seed=args.seed + 1,
        chunk=args.epoch_ops,
    )
    kinds, keys = wl.take_arrays(args.n)

    # Calibrate: the closed-loop run measures capacity; its rate becomes
    # the sweep's deterministic service model and the x-axis unit.
    with make_service() as svc:
        base = ClosedLoopClient(svc, window=args.epoch_ops).drive(kinds, keys)
    service_rate = base.ops / base.seconds if base.seconds else 1.0

    rows = []
    sustainable = 0.0
    for factor in args.loads:
        with make_service() as svc:
            client = OpenLoopClient(
                svc,
                make_arrivals(
                    args.arrival, factor * service_rate, seed=args.seed + 2
                ),
                controller=AdmissionController(
                    queue_depth=args.queue_depth,
                    policy=args.shed_policy,
                    deadline_s=args.deadline,
                ),
                service_rate=service_rate,
            )
            rep = client.drive(kinds, keys)
        ok = rep.p99_ms <= args.slo_ms
        if ok:
            sustainable = max(sustainable, rep.goodput_kops)
        rows.append(dict({"load_x": factor}, **rep.row(), slo_ok=ok))
    print(format_rows(rows))
    print(f"\nclosed-loop capacity: {base.kops:.1f} kops; "
          f"max sustainable goodput at p99 <= {args.slo_ms:g} ms: "
          f"{sustainable:.1f} kops")
    return 0


def cmd_recover(args) -> int:
    from .service import recover

    try:
        rep = recover(args.snapshot, args.journal, executor=args.executor,
                      resume_journal=False)
    except FileNotFoundError as exc:
        print(f"recover: {exc}", file=sys.stderr)
        return 2
    svc = rep.service
    io = svc.io_snapshot()
    print(format_rows([{
        "replayed_epochs": rep.replayed_epochs,
        "replayed_ops": rep.replayed_ops,
        "discarded_ops": rep.discarded_ops,
        "committed_through": rep.committed_through,
        "keys": len(svc),
    }]))
    print(f"\ncluster I/O: {io.reads + io.writes} "
          f"(reads={io.reads} writes={io.writes} combined={io.combined}), "
          f"memory peak {svc.memory_high_water()} words over "
          f"{svc.shards} shard machines")
    svc.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic External Hashing: The Limit of Buffering — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="ASCII Figure 1 with measured points")
    _add_geometry(p)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("knuth", help="Knuth §6.4 analytic reference grid")
    _add_geometry(p)
    p.set_defaults(func=cmd_knuth)

    p = sub.add_parser("baselines", help="one-workload structure comparison")
    _add_geometry(p)
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("audit", help="zone decomposition of the built-in tables")
    _add_geometry(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("trace", help="replay a mixed workload")
    _add_geometry(p)
    p.add_argument("--table", default="buffered")
    p.add_argument(
        "--mix",
        type=float,
        nargs=4,
        default=[0.5, 0.4, 0.05, 0.05],
        metavar=("INS", "HIT", "MISS", "DEL"),
        help="op-mix weights (insert, hit-lookup, miss-lookup, delete)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve", help="closed-loop mixed-op run through the dictionary service"
    )
    _add_geometry(p)
    p.add_argument("--table", default="buffered")
    p.add_argument(
        "--mix",
        type=float,
        nargs=4,
        default=[0.25, 0.60, 0.10, 0.05],
        metavar=("INS", "HIT", "MISS", "DEL"),
        help="op-mix weights (insert, hit-lookup, miss-lookup, delete)",
    )
    p.add_argument(
        "--executor",
        choices=["serial", "threads"],
        default="serial",
        help="shard executor (accounting is executor-invariant)",
    )
    p.add_argument("--epoch-ops", type=int, default=8192,
                   help="max ops coalesced into one epoch")
    p.add_argument("--window", type=int, default=8192,
                   help="closed-loop client window (requests per round trip)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="epoch write-ahead journal file (enables durability)")
    p.add_argument("--snapshot", default=None, metavar="PATH",
                   help="write a t=0 service checkpoint before driving")
    p.add_argument(
        "--key-dist",
        choices=list(KEY_DISTS),
        default="uniform",
        help="key distribution of the request stream (adversarial targets "
        "the service's own shard router)",
    )
    p.add_argument("--zipf-theta", type=float, default=1.2, metavar="θ",
                   help="Zipf exponent for --key-dist zipf (must exceed 1)")
    p.add_argument(
        "--rebalance",
        action="store_true",
        help="enable skew-adaptive slot rebalancing between epochs",
    )
    p.add_argument(
        "--slots",
        type=int,
        default=None,
        metavar="S",
        help="slot-directory size (multiple of --shards; default 64/shard)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a crc-framed JSONL span trace (crash-surviving; "
        "summarise with `repro trace-summary`)",
    )
    p.add_argument(
        "--metrics-every",
        type=int,
        default=0,
        metavar="K",
        help="print a Prometheus-style metrics dump every K epochs "
        "(plus one at end; 0 = off)",
    )
    _add_traffic(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace-summary",
        help="per-epoch table + slowest shard batches from a --trace file",
    )
    p.add_argument("trace", metavar="FILE",
                   help="crc-framed JSONL trace written by `serve --trace`")
    p.add_argument("--top", type=int, default=5,
                   help="how many slowest shard batches to show")
    p.add_argument(
        "--torn-ok",
        action="store_true",
        help="accept a crash-truncated trace and summarise its valid prefix",
    )
    p.set_defaults(func=cmd_trace_summary)

    p = sub.add_parser(
        "slo", help="open-loop offered-load sweep against a p99 SLO"
    )
    _add_geometry(p)
    p.add_argument("--table", default="buffered")
    p.add_argument(
        "--mix",
        type=float,
        nargs=4,
        default=[0.25, 0.60, 0.10, 0.05],
        metavar=("INS", "HIT", "MISS", "DEL"),
        help="op-mix weights (insert, hit-lookup, miss-lookup, delete)",
    )
    p.add_argument("--epoch-ops", type=int, default=8192,
                   help="max ops coalesced into one epoch")
    p.add_argument(
        "--arrival",
        choices=[k for k in ARRIVAL_KINDS if k != "closed"],
        default="poisson",
        help="open-loop arrival process for the sweep",
    )
    p.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=[0.5, 0.8, 1.0, 1.2, 1.5, 2.0],
        metavar="X",
        help="offered-load factors relative to measured closed-loop capacity",
    )
    p.add_argument("--queue-depth", type=int, default=8192,
                   help="admission queue bound (ops)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-op queueing deadline in virtual seconds")
    p.add_argument("--shed-policy", choices=list(OVERLOAD_POLICIES),
                   default="shed", help="overload policy past the high-water mark")
    p.add_argument("--slo-ms", type=float, default=50.0,
                   help="p99 latency SLO in milliseconds")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser(
        "recover", help="rebuild a service from a snapshot + journal"
    )
    p.add_argument("--snapshot", required=True, metavar="PATH",
                   help="snapshot file written by `serve --snapshot`")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="journal file written by `serve --journal`")
    p.add_argument("--executor", choices=["serial", "threads"], default="serial")
    p.set_defaults(func=cmd_recover)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, MemoryBudgetExceededError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
