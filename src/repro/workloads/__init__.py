"""Workload generation and measurement drivers.

* :mod:`repro.workloads.generators` — seeded key streams (uniform,
  Zipf, sequential, clustered, hash-adversarial) over ``U = [0, u)``.
* :mod:`repro.workloads.drivers` — harnesses that insert a stream into
  a table and measure amortized insertion cost and expected average
  successful-query cost, producing Figure 1 "measured" points.
* :mod:`repro.workloads.metrics` — summary statistics and run history.
* :mod:`repro.workloads.trace` — interleaved op traces: mixed-workload
  generation, strict replay with per-op-kind costs, save/load.

The drivers run on the tables' batch APIs (``insert_batch`` /
``lookup_batch``), which charge I/Os bit-identically to the scalar
loops — see ``README.md`` in this directory for the contract.
"""

from .generators import (
    AdversarialBucketKeys,
    ClusteredKeys,
    KeyGenerator,
    SequentialKeys,
    UniformKeys,
    ZipfKeys,
    make_generator,
)
from .drivers import (
    InsertQueryMeasurement,
    measure_insert_cost,
    measure_query_cost,
    measure_table,
    trace_insert_history,
)
from .metrics import CostHistory, RunningStats, Summary, summarize
from .trace import (
    MixedWorkload,
    Op,
    ReplayReport,
    load_trace,
    replay,
    save_trace,
    uniform_mixed_trace,
)

__all__ = [
    "AdversarialBucketKeys",
    "ClusteredKeys",
    "KeyGenerator",
    "SequentialKeys",
    "UniformKeys",
    "ZipfKeys",
    "make_generator",
    "InsertQueryMeasurement",
    "measure_insert_cost",
    "measure_query_cost",
    "measure_table",
    "trace_insert_history",
    "CostHistory",
    "MixedWorkload",
    "Op",
    "ReplayReport",
    "load_trace",
    "replay",
    "save_trace",
    "uniform_mixed_trace",
    "RunningStats",
    "Summary",
    "summarize",
]
