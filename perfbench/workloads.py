"""Workload definitions and seeded input generation.

Every input a run feeds the service is built here, from the run's seed,
before any timer starts: the prefill keys, the op stream (kind codes and
keys, in request order) and the expected result of every lookup and
delete.  The service only ever sees the generated arrays.

Generation is vectorised and works in 65536-op chunks.  Inside a chunk
the keys are disjoint across op kinds: inserts and miss lookups take
fresh keys, deletes take keys that were live when the chunk began, and
hit lookups take live keys that the chunk does not delete.  A key
inserted in a chunk becomes a target from the next chunk on.  So the
service's conflict-aware epoch builder never has to cut an epoch, and
every expectation holds whatever order a chunk's ops execute in.
Requests are slices of the chunked stream, never generated one by one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Op codes of the service's encoded request stream
#: (``repro.workloads.trace``); fixed here so the inputs do not depend on
#: the program under test.
OP_INSERT, OP_LOOKUP, OP_DELETE = 0, 1, 2

#: Keys are drawn from ``[1, U)``, the 61-bit universe the service's
#: context is built with.
U = 2**61 - 1

#: Generation chunk: the unit inside which op kinds are key-disjoint.
GEN_CHUNK = 65536


@dataclass(frozen=True)
class Workload:
    """One traffic mix and service configuration."""

    name: str
    #: Live keys bulk-loaded during set-up.
    prefill: int
    #: Ops per client request (one ``DictionaryService.run`` call); also
    #: the service's epoch cap in the timed phase.
    request_ops: int
    #: Requests per timed pass.
    requests: int
    #: Shard storage backend.
    backend: str
    #: Buffer-pool frames per shard (0 = uncached).
    cache_blocks: int
    #: Whether an fsync'd epoch journal is attached.
    journal: bool
    #: ``(insert, hit lookup, miss lookup, delete)`` op weights.
    mix: tuple[float, float, float, float]
    #: Zipf exponent of hit-lookup popularity over the prefilled keys;
    #: ``None`` for uniform hits over every live key.
    zipf_theta: float | None = None

    @property
    def ops(self) -> int:
        return self.requests * self.request_ops

    @property
    def flush_policy(self) -> str:
        if self.journal:
            return "journal fsync once per epoch commit; arenas never flushed"
        return "none (no journal, in-memory arenas)"


#: The ROADMAP's 70/25/5 lookup/insert/delete mix: 60% hit lookups, 10%
#: miss lookups, 25% inserts, 5% deletes.
MIXED = (0.25, 0.60, 0.10, 0.05)

WORKLOADS = {
    w.name: w
    for w in (
        # 600k prefilled keys put every shard in the Ĥ round that ends at
        # 131072 keys, so neither a round rebuild nor the lookup_batch
        # crossover (24 * batch >= |Ĥ|, about 137k keys a shard at this
        # batch size) is reached during a pass: every lookup batch stays
        # vectorised.
        Workload(
            name="mixed-bulk",
            prefill=600_000,
            request_ops=65536,
            requests=16,
            backend="arena",
            cache_blocks=0,
            journal=False,
            mix=MIXED,
        ),
        # 64 pool frames a shard against 256 Ĥ blocks a shard: the hot
        # head of the Zipf popularity fits, the table does not.
        Workload(
            name="cached-hot-read",
            prefill=1_000_000,
            request_ops=65536,
            requests=3,
            backend="arena",
            cache_blocks=64,
            journal=False,
            mix=(0.05, 0.90, 0.03, 0.02),
            zipf_theta=1.1,
        ),
        # 1024 requests, so the p99 has 10 samples beyond it.
        Workload(
            name="durable-small-epoch",
            prefill=1_000_000,
            request_ops=512,
            requests=1024,
            backend="durable-arena",
            cache_blocks=0,
            journal=True,
            mix=MIXED,
        ),
    )
}


@dataclass
class Inputs:
    """The generated arrays of one run; identical for identical seeds."""

    prefill: np.ndarray
    kinds: np.ndarray
    keys: np.ndarray
    #: Expected result per op: ``found`` for lookups, ``removed`` for
    #: deletes, ``False`` for inserts.
    expect: np.ndarray
    request_ops: int

    @property
    def ops(self) -> int:
        return len(self.kinds)

    @property
    def requests(self) -> int:
        return -(-self.ops // self.request_ops)

    @property
    def inserts(self) -> int:
        return int(np.count_nonzero(self.kinds == OP_INSERT))

    @property
    def deletes(self) -> int:
        return int(np.count_nonzero(self.kinds == OP_DELETE))

    def request(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo = i * self.request_ops
        hi = lo + self.request_ops
        return self.kinds[lo:hi], self.keys[lo:hi]


def distinct_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct keys from ``[1, U)`` in random order."""
    keys = rng.integers(1, U, size=count, dtype=np.uint64)
    while True:
        _, first = np.unique(keys, return_index=True)
        if len(first) == count:
            return keys
        dup = np.ones(count, dtype=bool)
        dup[first] = False
        keys[dup] = rng.integers(1, U, size=int(dup.sum()), dtype=np.uint64)


def zipf_cdf(n: int, theta: float) -> np.ndarray:
    """Cumulative Zipf(``theta``) popularity over ranks ``0 .. n-1``."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -theta
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def generate(workload: Workload, seed: int) -> Inputs:
    """Build a run's inputs from ``seed``; same seed, same arrays."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    n = workload.ops
    # Inserts and miss lookups consume at most one fresh key per op.
    fresh = distinct_keys(rng, workload.prefill + n)
    prefill = fresh[: workload.prefill]
    cursor = workload.prefill
    weights = np.asarray(workload.mix, dtype=np.float64)
    weights /= weights.sum()
    zipf = (
        zipf_cdf(workload.prefill, workload.zipf_theta)
        if workload.zipf_theta is not None
        else None
    )
    # Delete targets: every live key for the uniform mixes; only keys the
    # stream itself inserted for the Zipf mix, so its hit targets (the
    # prefilled keys) stay live for the whole run.
    live = prefill.copy() if zipf is None else np.empty(0, dtype=np.uint64)
    kinds = np.empty(n, dtype=np.uint8)
    keys = np.empty(n, dtype=np.uint64)
    expect = np.zeros(n, dtype=bool)
    for lo in range(0, n, GEN_CHUNK):
        hi = min(lo + GEN_CHUNK, n)
        draws = rng.choice(4, p=weights, size=hi - lo)
        del_pos = np.flatnonzero(draws == 3)
        if len(del_pos) > len(live):
            # Too few targets yet: the excess deletes become inserts.
            draws[del_pos[len(live):]] = 0
            del_pos = del_pos[: len(live)]
        victims = rng.choice(len(live), size=len(del_pos), replace=False)
        chunk_keys = np.empty(hi - lo, dtype=np.uint64)
        chunk_keys[del_pos] = live[victims]
        keep = np.ones(len(live), dtype=bool)
        keep[victims] = False
        live = live[keep]
        hit_pos = np.flatnonzero(draws == 1)
        if zipf is not None:
            ranks = np.searchsorted(zipf, rng.random(len(hit_pos)), side="right")
            chunk_keys[hit_pos] = prefill[np.minimum(ranks, len(prefill) - 1)]
        else:
            chunk_keys[hit_pos] = live[rng.integers(0, len(live), size=len(hit_pos))]
        ins_pos = np.flatnonzero(draws == 0)
        miss_pos = np.flatnonzero(draws == 2)
        chunk_keys[ins_pos] = fresh[cursor : cursor + len(ins_pos)]
        cursor += len(ins_pos)
        chunk_keys[miss_pos] = fresh[cursor : cursor + len(miss_pos)]
        cursor += len(miss_pos)
        live = np.concatenate([live, chunk_keys[ins_pos]])
        kinds[lo:hi] = np.where(
            draws == 0, OP_INSERT, np.where(draws == 3, OP_DELETE, OP_LOOKUP)
        )
        keys[lo:hi] = chunk_keys
        expect[lo:hi] = (draws == 1) | (draws == 3)
    return Inputs(
        prefill=prefill,
        kinds=kinds,
        keys=keys,
        expect=expect,
        request_ops=workload.request_ops,
    )
