"""Parameter derivations for the paper's constructions and bounds.

Centralises the translations between the exponent ``c`` of the target
query cost ``t_q = 1 + Θ(1/b^c)`` and the construction/lower-bound
parameters:

* Theorem 2 (upper bounds): ``β = b^c`` for the ``c < 1`` regime, or
  ``β = ε b / (2 c')`` for the ``t_u = ε`` regime.
* Theorem 1 (lower bounds): the per-case tuples ``(δ, φ, ρ, s)`` from
  Section 2's proof.

It also hosts :class:`StorageConfig`, the system-level knobs that are
orthogonal to the paper's parameters: which storage backend the disk
runs on and how many shards the dictionary router fans out over.  The
CLI, drivers and throughput benchmark all consume one of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..em.backends import BACKENDS
from ..em.errors import ConfigurationError


@dataclass(frozen=True)
class StorageConfig:
    """System configuration: storage backend, shard fan-out, caching.

    Attributes
    ----------
    backend:
        Registry name of the block store behind every disk
        (:data:`repro.em.backends.BACKENDS`): ``"mapping"``,
        ``"arena"``, or the memmap-persistent ``"durable-arena"``.
        Never changes I/O accounting, only wall-clock.
    shards:
        Number of independent shards the dictionary router splits a
        logical table over (1 = unsharded).
    cache_blocks:
        Per-shard :class:`~repro.em.cache.BufferPool` capacity in
        blocks (0 = uncached).  The third I/O-policy axis: cache hits
        are served uncharged, and every cached run satisfies
        ``hits + misses == uncached charged reads`` while producing
        bit-identical results and layouts.
    """

    backend: str = "mapping"
    shards: int = 1
    cache_blocks: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown storage backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        if self.shards <= 0:
            raise ConfigurationError(
                f"shard count must be positive, got {self.shards}"
            )
        if self.cache_blocks < 0:
            raise ConfigurationError(
                f"cache_blocks must be non-negative, got {self.cache_blocks}"
            )


@dataclass(frozen=True)
class RebalanceConfig:
    """Knobs of the skew-adaptive slot rebalancer.

    The rebalancer watches per-shard charged I/O over a sliding window
    of epochs and, when the worst shard's share exceeds ``threshold``
    times the mean, migrates that shard's hottest slots (by windowed op
    count) to the least-loaded shards — at most ``max_moves`` slots per
    decision, then ``cooldown`` epochs of quiet so each migration's
    effect is observed before the next.

    Attributes
    ----------
    threshold:
        Worst-shard/mean-shard charged-I/O ratio that triggers a
        migration decision (``> 1``).
    window:
        Sliding-window length in epochs for both the I/O ratio and the
        per-slot op counts (``>= 1``).
    max_moves:
        Upper bound on slots migrated per decision (``>= 1``).
    cooldown:
        Epochs to wait after a migration before deciding again
        (``>= 0``).
    min_io:
        Windowed cluster charged-I/O floor below which no decision is
        made — idle or tiny windows carry no load signal.
    """

    threshold: float = 1.5
    window: int = 4
    max_moves: int = 8
    cooldown: int = 2
    min_io: int = 64

    def __post_init__(self) -> None:
        if not self.threshold > 1.0:
            raise ConfigurationError(
                f"rebalance threshold must exceed 1, got {self.threshold}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"rebalance window must be >= 1 epoch, got {self.window}"
            )
        if self.max_moves < 1:
            raise ConfigurationError(
                f"max_moves must be >= 1, got {self.max_moves}"
            )
        if self.cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be non-negative, got {self.cooldown}"
            )
        if self.min_io < 0:
            raise ConfigurationError(
                f"min_io must be non-negative, got {self.min_io}"
            )


#: Load-model names the CLI accepts: the closed-loop client plus the
#: open-loop arrival processes (:data:`repro.service.traffic.ARRIVALS`).
ARRIVAL_KINDS = ("closed", "poisson", "diurnal", "bursty")

#: Key-distribution names the CLI and benches accept
#: (:data:`repro.workloads.generators._GENERATORS` plus the router-aware
#: adversarial attack).
KEY_DISTS = ("uniform", "zipf", "clustered", "sequential", "adversarial")

#: Overload policies (:data:`repro.service.admission.SHED_POLICIES`).
OVERLOAD_POLICIES = ("reject", "shed", "adapt")


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of the load model a service run is driven under.

    Attributes
    ----------
    arrival:
        ``"closed"`` (closed-loop client: offered load adapts to
        service speed) or an open-loop arrival process name —
        ``"poisson"``, ``"diurnal"``, ``"bursty"``.
    rate:
        Mean offered load in ops/sec (open-loop only; required there).
    queue_depth:
        Bound on the admission queue (open-loop; ``None`` = unbounded).
    deadline_s:
        Per-op queueing deadline in virtual seconds (open-loop;
        ``None`` = none).  Expired ops are accounted, never executed.
    shed_policy:
        What happens past the high-water mark: ``"reject"`` new work,
        ``"shed"`` lowest-priority queued work, or ``"adapt"`` the
        dispatch batch down to drain faster.
    """

    arrival: str = "closed"
    rate: float | None = None
    queue_depth: int | None = None
    deadline_s: float | None = None
    shed_policy: str = "reject"

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival kind {self.arrival!r}; "
                f"choose from {ARRIVAL_KINDS}"
            )
        if self.shed_policy not in OVERLOAD_POLICIES:
            raise ConfigurationError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"choose from {OVERLOAD_POLICIES}"
            )
        if self.open_loop:
            if self.rate is None or not self.rate > 0:
                raise ConfigurationError(
                    f"open-loop traffic needs a positive --rate, got {self.rate}"
                )
        elif (
            self.rate is not None
            or self.queue_depth is not None
            or self.deadline_s is not None
        ):
            raise ConfigurationError(
                "--rate/--queue-depth/--deadline only apply to open-loop "
                "arrivals (closed-loop load adapts to service speed)"
            )
        if self.queue_depth is not None and self.queue_depth <= 0:
            raise ConfigurationError(
                f"queue_depth must be positive, got {self.queue_depth}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    @property
    def open_loop(self) -> bool:
        return self.arrival != "closed"


@dataclass(frozen=True)
class ObsConfig:
    """Knobs of the observability layer (:mod:`repro.obs`).

    Observability is strictly relabelling: enabling it never changes
    ledgers, layouts, or results — it only attributes the charges the
    service already makes to spans and metric series.

    Attributes
    ----------
    trace_path:
        Destination for the crc-framed JSONL span trace (``serve
        --trace out.jsonl``); ``None`` disables span tracing (the
        metrics registry stays on — it is a handful of integer folds
        per epoch).
    metrics_every:
        Emit a Prometheus-style metrics dump to the service's
        ``metrics_listener`` every N closed epochs; ``0`` disables
        periodic dumps.
    wall_clock:
        Stamp trace records with wall-clock fields.  Disable for
        byte-reproducible trace files (virtual-clock stamps remain).
    """

    trace_path: str | None = None
    metrics_every: int = 0
    wall_clock: bool = True

    def __post_init__(self) -> None:
        if self.metrics_every < 0:
            raise ConfigurationError(
                f"metrics_every must be non-negative, got {self.metrics_every}"
            )
        if self.trace_path is not None and not str(self.trace_path):
            raise ConfigurationError("trace_path must be a non-empty path")


@dataclass(frozen=True)
class BufferedParams:
    """Parameters of the Theorem 2 construction.

    Attributes
    ----------
    beta:
        Scan frequency: the big table ``Ĥ`` is merged/scanned ``β``
        times per doubling round; at most a ``1/β`` fraction of items
        lives outside ``Ĥ``.  Must satisfy ``2 <= β <= b``.
    gamma:
        Growth factor of the inner logarithmic method (``γ >= 2``).
    """

    beta: int
    gamma: int = 2

    def __post_init__(self) -> None:
        if self.beta < 2:
            raise ConfigurationError(f"β must be at least 2, got {self.beta}")
        if self.gamma < 2:
            raise ConfigurationError(f"γ must be at least 2, got {self.gamma}")

    @classmethod
    def for_query_exponent(cls, b: int, c: float, *, gamma: int = 2) -> "BufferedParams":
        """``β = b^c`` — Theorem 2's ``t_q = 1 + O(1/b^c)`` regime (``c < 1``)."""
        if not 0 < c < 1:
            raise ConfigurationError(f"query exponent must satisfy 0 < c < 1, got {c}")
        beta = max(2, min(b, round(b**c)))
        return cls(beta=beta, gamma=gamma)

    @classmethod
    def for_insert_budget(
        cls, b: int, epsilon: float, *, constant: float = 2.0, gamma: int = 2
    ) -> "BufferedParams":
        """``β = ε b / (2 c')`` — Theorem 2's ``t_u = ε`` regime.

        ``constant`` plays the role of ``2 c'`` (the hidden constant in
        the insertion-cost analysis).
        """
        if epsilon <= 0:
            raise ConfigurationError(f"ε must be positive, got {epsilon}")
        beta = max(2, min(b, round(epsilon * b / constant)))
        return cls(beta=beta, gamma=gamma)

    def predicted_query_excess(self) -> float:
        """The ``O(1/β)`` excess over 1 I/O of a successful lookup."""
        return 1.0 / self.beta

    def predicted_insert_cost(self, b: int, n: int, m: int) -> float:
        """The ``O((β + γ log(n/m)) / b)`` amortized insertion cost."""
        log_term = math.log2(max(n / m, 2.0))
        return (self.beta + self.gamma * log_term) / b


@dataclass(frozen=True)
class LowerBoundParams:
    """The tuple ``(δ, φ, ρ, s)`` of Section 2's proof, per tradeoff case.

    * ``δ``  — allowed query excess: ``t_q <= 1 + δ``.
    * ``φ``  — failure-probability / slack parameter.
    * ``ρ``  — characteristic-vector threshold: indices with
      ``α_i > ρ`` form the bad index area.
    * ``s``  — items per insertion round.
    """

    delta: float
    phi: float
    rho: float
    s: int
    case: int

    @classmethod
    def case1(cls, b: int, n: int, c: float) -> "LowerBoundParams":
        """``t_q <= 1 + O(1/b^c)``, ``c > 1``: δ=1/b^c, φ=1/b^{(c-1)/4},
        ρ=2 b^{(c+3)/4}/n, s=n/b^{(c+1)/2}."""
        if c <= 1:
            raise ConfigurationError(f"case 1 needs c > 1, got {c}")
        return cls(
            delta=b**-c,
            phi=b ** (-(c - 1) / 4),
            rho=2 * b ** ((c + 3) / 4) / n,
            s=max(1, round(n / b ** ((c + 1) / 2))),
            case=1,
        )

    @classmethod
    def case2(cls, b: int, n: int, kappa: float = 4.0) -> "LowerBoundParams":
        """``t_q <= 1 + O(1/b)``: φ=1/κ, ρ=2κb/n, s=n/(κ²b), δ=1/(κ⁴b)."""
        if kappa <= 1:
            raise ConfigurationError(f"κ must exceed 1, got {kappa}")
        return cls(
            delta=1.0 / (kappa**4 * b),
            phi=1.0 / kappa,
            rho=2 * kappa * b / n,
            s=max(1, round(n / (kappa**2 * b))),
            case=2,
        )

    @classmethod
    def case3(cls, b: int, n: int, c: float) -> "LowerBoundParams":
        """``t_q <= 1 + O(1/b^c)``, ``c < 1``: φ=1/8, ρ=16b/n, s=32n/b^c, δ=1/b^c."""
        if not 0 < c < 1:
            raise ConfigurationError(f"case 3 needs 0 < c < 1, got {c}")
        return cls(
            delta=b**-c,
            phi=0.125,
            rho=16 * b / n,
            s=max(1, round(32 * n / b**c)),
            case=3,
        )

    @classmethod
    def for_exponent(cls, b: int, n: int, c: float, **kw) -> "LowerBoundParams":
        """Dispatch on ``c`` to the matching case."""
        if c > 1:
            return cls.case1(b, n, c)
        if c == 1:
            return cls.case2(b, n, **kw)
        return cls.case3(b, n, c)

    def bad_index_capacity(self, b: int, lambda_f: float) -> float:
        """Fast-zone items the bad index area can hold: ``b · λ_f / ρ``
        (at most ``λ_f/ρ`` bad indices, each block holding ``b`` items)."""
        return b * lambda_f / self.rho


def insertion_lower_bound(b: int, c: float, *, constant: float = 1.0) -> float:
    """Theorem 1's insertion lower bound ``t_u`` for query target
    ``t_q = 1 + Θ(1/b^c)``.

    Returns the leading-order value with ``constant`` standing in for
    the suppressed big-O constant:

    * ``c > 1``:  ``1 - constant / b^{(c-1)/4}``
    * ``c = 1``:  ``constant`` (the Ω(1) case; constant ≤ 1)
    * ``c < 1``:  ``constant * b^{c-1}``
    """
    if c > 1:
        return max(0.0, 1.0 - constant * b ** (-(c - 1) / 4))
    if c == 1:
        return constant
    return constant * b ** (c - 1)


def insertion_upper_bound(b: int, c: float, n: int, m: int, *, gamma: int = 2) -> float:
    """The matching constructive upper bound on ``t_u``.

    * ``c >= 1``: the standard table's ``1 + 1/2^{Ω(b)}`` (``c > 1``), or
      any constant ``ε`` via Theorem 2 (``c = 1``; we report the β=b/2
      instantiation).
    * ``c < 1``: Theorem 2's ``O((b^c + γ log(n/m))/b)``.
    """
    if c > 1:
        return 1.0 + 2.0 ** (-min(b / 4.0, 60.0))
    log_term = math.log2(max(n / m, 2.0))
    if c == 1:
        beta = b / 2
        return (beta + gamma * log_term) / b
    return (b**c + gamma * log_term) / b


def query_cost_target(b: int, c: float) -> float:
    """The query target ``1 + 1/b^c``."""
    return 1.0 + b**-c
