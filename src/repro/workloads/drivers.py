"""Measurement drivers: turn a table + key stream into (t_u, t_q) points.

The paper's two quantities are

* ``t_u`` — expected **amortized** insertion cost: total I/Os of an
  insertion run divided by the number of insertions;
* ``t_q`` — expected **average** successful-lookup cost: the mean I/O
  count of looking up a uniformly chosen *stored* item.

``measure_table`` computes both for any :class:`ExternalDictionary`
factory and is the engine behind the Figure 1 "measured" points; the
finer-grained helpers expose insertion-cost trajectories and query-cost
distributions for the per-theorem benchmarks.

Queries are measured **non-destructively**: lookups charge I/Os to the
shared context, so the driver snapshots the counter around the query
phase and excludes it from the insertion figure.

All drivers ride the tables' **batch APIs**
(:meth:`~repro.tables.base.ExternalDictionary.insert_batch` /
:meth:`~repro.tables.base.ExternalDictionary.lookup_batch`), whose
contract guarantees I/O counts bit-identical to the scalar loops — the
measured ``(t_u, t_q)`` numbers are unchanged, only the wall-clock to
produce them drops (see ``benchmarks/bench_throughput.py``).

Storage backends and shard counts ride along orthogonally: the context
factory picks the backend (``make_context(backend="arena")``), and
every driver accepts ``shards`` to wrap the table factory in a
:class:`~repro.tables.sharded.ShardedDictionary` router — see
``src/repro/workloads/README.md`` for the backend/shard contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..em.storage import EMContext
from ..tables.base import ExternalDictionary
from ..tables.sharded import make_sharded
from .generators import KeyGenerator, UniformKeys
from .metrics import CostHistory, Summary, summarize

#: A factory gets a fresh context and returns the table under test.
TableFactory = Callable[[EMContext], ExternalDictionary]
#: A context factory builds one experiment's EMContext.
ContextFactory = Callable[[], EMContext]


def resolve_factory(table_factory: TableFactory, shards: int) -> TableFactory:
    """Apply the drivers' ``shards`` axis: wrap in a router when N > 1."""
    if shards == 1:
        return table_factory
    return make_sharded(table_factory, shards)


@dataclass(frozen=True)
class InsertQueryMeasurement:
    """The measured (t_u, t_q) pair plus supporting detail."""

    n: int
    insert_ios: int
    amortized_insert: float
    query_summary: Summary
    load_factor: float
    memory_high_water: int

    @property
    def t_u(self) -> float:
        return self.amortized_insert

    @property
    def t_q(self) -> float:
        return self.query_summary.mean

    def row(self) -> dict[str, float | int]:
        return {
            "n": self.n,
            "t_u": round(self.amortized_insert, 6),
            "t_q": round(self.query_summary.mean, 6),
            "t_q_p99": self.query_summary.p99,
            "load": round(self.load_factor, 4),
            "mem_hw": self.memory_high_water,
        }


def measure_insert_cost(
    table: ExternalDictionary, keys: Sequence[int]
) -> tuple[int, float]:
    """Insert ``keys``; return (total I/Os, amortized I/Os per key)."""
    ctx = table.ctx
    before = ctx.stats.snapshot()
    table.insert_batch(keys)
    total = ctx.stats.delta_since(before).total
    return total, total / len(keys) if len(keys) else 0.0


def measure_query_cost(
    table: ExternalDictionary,
    stored_keys: Sequence[int],
    *,
    sample_size: int | None = None,
    seed: int = 0,
    require_hits: bool = True,
) -> Summary:
    """Per-query I/O costs of successful lookups of stored keys.

    Samples ``sample_size`` keys uniformly (with replacement — the
    paper's "average over a uniformly chosen stored item") and measures
    the I/O delta of each lookup individually.
    """
    if not len(stored_keys):
        return summarize([])
    rng = np.random.default_rng(seed)
    if sample_size is None:
        sample_size = min(len(stored_keys), 2000)
    idx = rng.integers(0, len(stored_keys), size=sample_size)
    sample = [stored_keys[int(i)] for i in idx]
    costs: list[int] = []
    found = table.lookup_batch(sample, cost_out=costs)
    if require_hits and not bool(found.all()):
        key = sample[int(np.argmin(found))]
        raise AssertionError(
            f"{table.name} lost key {key}: successful-lookup measurement "
            "requires every sampled key to be found"
        )
    return summarize(costs)


def measure_table(
    context_factory: ContextFactory,
    table_factory: TableFactory,
    n: int,
    *,
    generator: KeyGenerator | None = None,
    seed: int = 0,
    query_sample: int | None = None,
    shards: int = 1,
) -> InsertQueryMeasurement:
    """End-to-end measurement: build, insert ``n`` uniform keys, query.

    A fresh context comes from ``context_factory`` so runs are
    independent (pass ``make_context(backend=...)`` there to choose the
    storage backend); the query phase's I/Os are excluded from ``t_u``.
    ``shards > 1`` routes the table through a
    :class:`~repro.tables.sharded.ShardedDictionary`; the load factor
    and memory peak are then aggregated over the shard disks/budgets
    via the table's own accessors.
    """
    ctx = context_factory()
    table = resolve_factory(table_factory, shards)(ctx)
    gen = generator if generator is not None else UniformKeys(ctx.u, seed)
    keys = gen.take(n)
    insert_ios, amortized = measure_insert_cost(table, keys)
    qsummary = measure_query_cost(
        table, keys, sample_size=query_sample, seed=seed + 1
    )
    used = table.nonempty_disk_blocks()
    load = math.ceil(n / ctx.b) / used if used else 0.0
    return InsertQueryMeasurement(
        n=n,
        insert_ios=insert_ios,
        amortized_insert=amortized,
        query_summary=qsummary,
        load_factor=load,
        memory_high_water=table.memory_high_water(),
    )


def trace_insert_history(
    context_factory: ContextFactory,
    table_factory: TableFactory,
    n: int,
    *,
    checkpoints: int = 16,
    generator: KeyGenerator | None = None,
    seed: int = 0,
    shards: int = 1,
) -> CostHistory:
    """Amortized-insert trajectory at geometric checkpoints up to ``n``.

    Useful for seeing the logarithmic method's merge cascades and the
    buffered table's round boundaries as cost spikes.
    """
    ctx = context_factory()
    table = resolve_factory(table_factory, shards)(ctx)
    gen = generator if generator is not None else UniformKeys(ctx.u, seed)
    history = CostHistory()
    marks = sorted(
        {max(1, int(n * (i + 1) / checkpoints)) for i in range(checkpoints)}
    )
    done = 0
    for mark in marks:
        table.insert_batch(gen.take(mark - done))
        done = mark
        history.record(done, ctx.stats.total)
    return history


def compare_tables(
    context_factory: ContextFactory,
    factories: dict[str, TableFactory],
    n: int,
    *,
    seed: int = 0,
    shards: int = 1,
) -> list[dict[str, float | int | str]]:
    """Measure several tables on the same workload size; one row each.

    Each table is driven through :func:`measure_table`, i.e. the batch
    insert/lookup paths — rows are I/O-identical to the scalar drivers.
    ``shards > 1`` routes every factory through the sharded router.
    """
    rows: list[dict[str, float | int | str]] = []
    for name, factory in factories.items():
        m = measure_table(context_factory, factory, n, seed=seed, shards=shards)
        row: dict[str, float | int | str] = {"table": name}
        row.update(m.row())
        rows.append(row)
    return rows
