"""The round-based insertion experiment behind Theorem 1's proof.

The proof inserts ``n`` uniform items: the first ``φn`` for free, the
rest in rounds of ``s``.  For each round it argues the table must touch
``Z = |{f(x) : x ∈ R ∩ F}|`` distinct blocks — the distinct addresses
of round items that ended up in the fast zone — and shows ``Z`` is
large whenever the query bound forces ``f`` good and the slow zone
small.

This module runs that experiment against *real* tables:

* drives the insertion stream,
* measures the actual I/O cost per round,
* takes layout snapshots at round boundaries and computes the
  *certified* lower bounds — both the paper's ``Z`` and the stronger
  "blocks that gained a round item" count, each of which no correct
  algorithm can beat (an item can only appear in a block via a write).

Comparing certified bounds against actual cost reproduces the paper's
tension empirically: tables with near-perfect queries pay ≈ 1 I/O per
insertion; tables that buffer pay o(1) but park round items in the
slow zone instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import LowerBoundParams
from ..em.storage import EMContext
from ..tables.base import ExternalDictionary, LayoutSnapshot
from .zones import ZoneDecomposition, decompose


@dataclass(frozen=True)
class RoundRecord:
    """Measurements for one insertion round."""

    round_index: int
    items: int
    actual_ios: int
    #: The paper's Z: distinct fast-zone addresses of this round's items.
    z_fast: int
    #: Stronger certificate: distinct blocks holding any copy of a
    #: round item at round end (each was necessarily written this round).
    blocks_gained: int
    slow_zone: int
    fast_zone: int
    memory_zone: int
    query_lb: float

    @property
    def certified_lb(self) -> int:
        """Best certified lower bound on this round's write I/Os."""
        return max(self.z_fast, self.blocks_gained)


@dataclass
class AdversaryReport:
    """Aggregate result of a full adversarial insertion run."""

    n: int
    params: LowerBoundParams
    free_items: int
    rounds: list[RoundRecord] = field(default_factory=list)
    total_ios: int = 0

    @property
    def charged_items(self) -> int:
        return sum(r.items for r in self.rounds)

    @property
    def measured_tu(self) -> float:
        """Actual amortized insertion cost over the charged items."""
        charged = self.charged_items
        return self.total_ios / charged if charged else 0.0

    @property
    def certified_tu(self) -> float:
        """Certified amortized lower bound (from the round certificates)."""
        charged = self.charged_items
        if not charged:
            return 0.0
        return sum(r.certified_lb for r in self.rounds) / charged

    @property
    def mean_query_lb(self) -> float:
        if not self.rounds:
            return 0.0
        return float(np.mean([r.query_lb for r in self.rounds]))


def certify_round(
    rnd: int,
    round_keys: list[int],
    snapshot: LayoutSnapshot,
    zones: ZoneDecomposition,
    actual_ios: int,
) -> RoundRecord:
    """Compute a round's certificates from its end-of-round snapshot."""
    round_set = set(round_keys)
    fast_round = round_set & zones.fast
    z_fast = len({snapshot.address(x) for x in fast_round})
    blocks_gained = sum(
        1
        for blk_items in snapshot.blocks.values()
        if round_set.intersection(blk_items)
    )
    return RoundRecord(
        round_index=rnd,
        items=len(round_keys),
        actual_ios=actual_ios,
        z_fast=z_fast,
        blocks_gained=blocks_gained,
        slow_zone=len(zones.slow),
        fast_zone=len(zones.fast),
        memory_zone=len(zones.memory),
        query_lb=zones.query_cost_lower_bound(),
    )


class KeyStream:
    """Uniform distinct keys from ``[0, u)`` (u >> n makes rejection rare)."""

    def __init__(self, u: int, seed: int = 0) -> None:
        self.u = u
        self._rng = np.random.default_rng(seed)
        self._seen: set[int] = set()

    def take(self, count: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            batch = self._rng.integers(
                0, self.u, size=count - len(out) + 8, dtype=np.uint64
            )
            for key in batch:
                ki = int(key)
                if ki not in self._seen:
                    self._seen.add(ki)
                    out.append(ki)
                    if len(out) == count:
                        break
        return out


def run_adversary(
    table: ExternalDictionary,
    ctx: EMContext,
    params: LowerBoundParams,
    n: int,
    *,
    seed: int = 0,
    max_rounds: int | None = None,
) -> AdversaryReport:
    """Insert ``n`` uniform items in the proof's round structure.

    The first ``φn`` insertions are free (uncounted), mirroring the
    proof; afterwards each round of ``s`` items is measured and
    certified.  ``max_rounds`` truncates long runs for benchmarking.
    """
    stream = KeyStream(ctx.u, seed)
    free_items = int(params.phi * n)
    report = AdversaryReport(n=n, params=params, free_items=free_items)

    table.insert_many(stream.take(free_items))

    remaining = n - free_items
    s = params.s
    n_rounds = remaining // s
    if max_rounds is not None:
        n_rounds = min(n_rounds, max_rounds)

    for rnd in range(n_rounds):
        round_keys = stream.take(s)
        before = ctx.stats.snapshot()
        table.insert_many(round_keys)
        cost = ctx.stats.delta_since(before).total
        report.total_ios += cost

        snap = table.layout_snapshot()
        zones = decompose(snap)
        report.rounds.append(certify_round(rnd, round_keys, snap, zones, cost))
    return report
