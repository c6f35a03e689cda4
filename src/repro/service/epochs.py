"""Epoch coalescing: turn a mixed request stream into vectorized batches.

The service layer accepts an interleaved stream of insert / lookup /
delete requests (array-encoded: one ``uint8`` kind code and one
``uint64`` key per op — see :mod:`repro.workloads.trace`).  Executing it
op by op would forfeit everything the batch engine buys, so the stream
is coalesced into **epochs**: contiguous windows whose ops are regrouped
into one ``insert_batch`` + one ``delete_batch`` + one ``lookup_batch``
per shard.

Regrouping reorders ops *across kinds* inside a window, which is safe
exactly when no key is touched by two different kinds in the same
window — ops on distinct keys commute (an insert of ``x`` never changes
membership of ``y``), and same-kind ops on the same key keep their
relative order inside their batch (the batch APIs process keys in
sequence order).  The epoch builder enforces that precondition: a window
is cut wherever an op's key has already appeared in the current window
under a different kind.  The result is **conflict-aware, stable-order**
coalescing — every per-key observable (lookup results, delete results,
final contents) matches the program-order execution.

Conflict detection is vectorized.  One plain argsort by key groups each
key's occurrences; a key is touched by two kinds exactly when some
adjacent pair in its group differs in kind, whatever the order inside
the group, so a stream where no key is needs no further sort.
Otherwise one integer sort puts every group's positions in ascending
order, each key's occurrence chain.  Adjacent pairs of a chain with
differing kinds are the only places a cut can be needed (any cross-kind
pair in a window implies a cross-kind *adjacent* pair in the key's
occurrence chain between them), and the greedy cut pass then runs over
just those pairs — O(conflicts) Python work for an n-op stream, plus the
``max_ops`` size cuts that bound batch staging memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..workloads.trace import OP_DELETE, OP_INSERT, OP_LOOKUP

__all__ = ["Epoch", "build_epochs", "op_codes", "window_epoch"]


@dataclass(frozen=True)
class Epoch:
    """One coalesced window ``[start, stop)`` of the request stream.

    Keys are regrouped per kind in stream order; ``lookup_pos`` /
    ``delete_pos`` are the absolute stream positions of each batched op,
    so the service can scatter results back to arrival order.
    """

    start: int
    stop: int
    insert_keys: np.ndarray
    lookup_keys: np.ndarray
    lookup_pos: np.ndarray
    delete_keys: np.ndarray
    delete_pos: np.ndarray

    @property
    def ops(self) -> int:
        return self.stop - self.start


def op_codes(kinds: np.ndarray | Sequence[int]) -> np.ndarray:
    """The caller's op codes as a contiguous ``uint8`` array, checked
    before they are narrowed.

    Raises :class:`ValueError` naming the first code that is not
    ``OP_INSERT``, ``OP_LOOKUP`` or ``OP_DELETE``: a cast first would
    run 258 as ``OP_DELETE`` (it wraps) and raise ``OverflowError`` on
    a list holding -1.
    """
    arr = np.asarray(kinds)
    bad = (arr != OP_INSERT) & (arr != OP_LOOKUP) & (arr != OP_DELETE)
    if bad.any():
        raise ValueError(f"unknown op code {arr[bad][0].item()!r} in request stream")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def conflict_bounds(
    kinds: np.ndarray, keys: np.ndarray, *, max_ops: int
) -> list[int]:
    """Epoch boundaries (ascending, including 0 and n).

    Greedy left-to-right segmentation: cut before op ``i`` whenever the
    current window already touched ``keys[i]`` under a different kind,
    or the window would exceed ``max_ops``.
    """
    n = len(kinds)
    if n == 0:
        return [0]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    sorted_kinds = kinds[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    pairs: Iterable[tuple[int, int]] = ()
    if (same & (sorted_kinds[1:] != sorted_kinds[:-1])).any():
        # Each key's occurrences in ascending position, the order a
        # stable argsort gives: sort the positions with the key's group
        # number as the major part, which leaves every group in place.
        group = np.cumsum(np.r_[0, ~same]) * n
        order = np.sort(group + order) - group
        prev_idx = order[:-1][same]
        cur_idx = order[1:][same]
        diff = kinds[prev_idx] != kinds[cur_idx]
        cur_conf = cur_idx[diff]
        prev_conf = prev_idx[diff]
        by_cur = np.argsort(cur_conf, kind="stable")
        pairs = zip(cur_conf[by_cur].tolist(), prev_conf[by_cur].tolist())

    bounds = [0]
    start = 0
    for cur, prev in pairs:
        while cur - start > max_ops:
            start += max_ops
            bounds.append(start)
        if prev >= start:
            bounds.append(cur)
            start = cur
    while n - start > max_ops:
        start += max_ops
        bounds.append(start)
    bounds.append(n)
    return bounds


def build_epochs(
    kinds: np.ndarray | list[int],
    keys: np.ndarray | list[int],
    *,
    max_ops: int = 8192,
) -> list[Epoch]:
    """Coalesce an encoded request stream into conflict-free epochs."""
    if max_ops <= 0:
        raise ValueError(f"max_ops must be positive, got {max_ops}")
    kinds = op_codes(kinds)
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if len(kinds) != len(keys):
        raise ValueError(
            f"kinds and keys must align: {len(kinds)} vs {len(keys)}"
        )
    bounds = conflict_bounds(kinds, keys, max_ops=max_ops)
    return [window_epoch(kinds, keys, lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def window_epoch(kinds: np.ndarray, keys: np.ndarray, lo: int, hi: int) -> Epoch:
    """The epoch of the window ``[lo, hi)`` of an encoded stream.

    The caller vouches that no key in the window is touched by two
    kinds: :func:`build_epochs` cuts its windows so, and a journal
    replay re-runs a window the live run cut.  ``kinds`` must already
    be :func:`op_codes`.
    """
    k = kinds[lo:hi]
    lookup_pos = np.flatnonzero(k == OP_LOOKUP) + lo
    delete_pos = np.flatnonzero(k == OP_DELETE) + lo
    return Epoch(
        start=lo,
        stop=hi,
        insert_keys=keys[lo:hi][k == OP_INSERT],
        lookup_keys=keys[lookup_pos],
        lookup_pos=lookup_pos,
        delete_keys=keys[delete_pos],
        delete_pos=delete_pos,
    )
