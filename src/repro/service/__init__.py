"""The dictionary service layer: mixed-op epochs over private shard machines.

Turns the reproduction's dictionaries into a servable system:

* :mod:`repro.service.epochs` — conflict-aware coalescing of interleaved
  insert/lookup/delete streams into vectorized epochs;
* :mod:`repro.service.service` — :class:`DictionaryService`, executing
  each epoch over N private shard machines, with per-shard I/O ledgers
  merged at epoch close (bit-identical whatever order the shards run
  in);
* :mod:`repro.service.client` — closed-loop (capacity) and open-loop
  (queueing-inclusive latency under offered load) client simulators;
* :mod:`repro.service.traffic` — seeded virtual-clock arrival processes
  (Poisson, diurnal, bursty) for the open-loop client;
* :mod:`repro.service.admission` — the bounded admission queue and
  reject/shed/adapt overload policies with per-op outcome accounting;
* :mod:`repro.service.journal` — the epoch write-ahead journal
  (append-before-execute, fsync-commit-after-merge);
* :mod:`repro.service.recovery` — snapshot/restore of a live service
  and snapshot+journal crash recovery;
* :mod:`repro.service.faults` — deterministic fault injection,
  retry-with-backoff healing, per-shard circuit breakers, and the
  crash-recovery + overload chaos harnesses;
* :mod:`repro.obs` (re-exported here) — the observability layer: span
  tracing (``DictionaryService(obs=...)``), the always-on
  ``service.metrics()`` registry, and per-epoch time-series export.

See ``src/repro/service/README.md`` for the epoch/shard, durability,
and overload/SLO guarantees.
"""

from ..core.config import ObsConfig, RebalanceConfig
from ..obs import MetricsRegistry, TraceRecorder, scan_trace
from ..tables.rebalance import MigrationReport, Rebalancer, SlotMove
from ..tables.sharded import SlotDirectory
from .admission import (
    EXECUTED,
    EXPIRED,
    OUTCOME_NAMES,
    PENDING,
    REJECTED,
    SHED,
    SHED_POLICIES,
    AdmissionController,
    AdmissionQueue,
)
from .client import ClientReport, ClosedLoopClient, OpenLoopClient
from .epochs import Epoch, build_epochs
from .faults import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    ChaosReport,
    CrashPoint,
    CrashingJournal,
    FaultClock,
    FaultInjectingBackend,
    FaultSchedule,
    OverloadChaosReport,
    RetryPolicy,
    RetryingBackend,
    ShardBreakerBoard,
    run_crash_matrix,
    run_overload_chaos,
)
from .journal import EpochJournal, JournalRecord, JournalScan
from .recovery import RecoveryReport, recover, restore_service, snapshot_service
from .service import DictionaryService, EpochReport, SerialExecutor, ServiceRun
from .traffic import (
    ARRIVALS,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)

__all__ = [
    "MetricsRegistry",
    "MigrationReport",
    "ObsConfig",
    "RebalanceConfig",
    "TraceRecorder",
    "scan_trace",
    "Rebalancer",
    "SlotDirectory",
    "SlotMove",
    "ClientReport",
    "ClosedLoopClient",
    "OpenLoopClient",
    "Epoch",
    "build_epochs",
    "ARRIVALS",
    "ArrivalProcess",
    "BurstyArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "make_arrivals",
    "EXECUTED",
    "EXPIRED",
    "PENDING",
    "REJECTED",
    "SHED",
    "SHED_POLICIES",
    "OUTCOME_NAMES",
    "AdmissionController",
    "AdmissionQueue",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "ChaosReport",
    "CrashPoint",
    "CrashingJournal",
    "EpochJournal",
    "FaultClock",
    "FaultInjectingBackend",
    "FaultSchedule",
    "JournalRecord",
    "JournalScan",
    "OverloadChaosReport",
    "RecoveryReport",
    "RetryPolicy",
    "RetryingBackend",
    "ShardBreakerBoard",
    "recover",
    "restore_service",
    "run_crash_matrix",
    "run_overload_chaos",
    "snapshot_service",
    "DictionaryService",
    "EpochReport",
    "ServiceRun",
    "SerialExecutor",
]
