"""A test-only shard executor that runs each epoch's shards backwards.

The service runs an epoch's per-shard thunks through ``svc.executor``,
a :class:`~repro.service.SerialExecutor` (ascending shard order).
Shards are private machines, so nothing a shard charges may depend on
the order the shards run in.  The order-invariance suites check that by
assigning a :class:`ReversedExecutor` to ``svc.executor`` after
construction and comparing every observable with a serial run.
"""

from __future__ import annotations

from typing import Callable, Sequence


class ReversedExecutor:
    """Runs an epoch's shard thunks in descending shard order and
    returns their results in thunk order.

    ``reordered`` counts the runs of two or more thunks, each of which
    ran out of ascending order; a suite asserts it is positive, so it
    cannot pass on single-shard epochs alone.
    """

    name = "reversed"

    def __init__(self) -> None:
        self.reordered = 0

    def run(self, thunks: Sequence[Callable[[], object]]) -> list[object]:
        results = [thunk() for thunk in reversed(thunks)]
        if len(thunks) > 1:
            self.reordered += 1
        return results[::-1]
