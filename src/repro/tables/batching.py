"""Vectorised staging primitives shared by the batch operation engine.

The batch APIs (:meth:`~repro.tables.base.ExternalDictionary.insert_batch`
/ :meth:`~repro.tables.base.ExternalDictionary.lookup_batch`) promise
**bit-identical I/O accounting** to their scalar counterparts while
paying numpy — not interpreter — prices for the data-parallel parts:
hashing a batch (one ``hash_array`` call) and partitioning it into
per-bucket groups (one argsort).

Both the scalar and the batch merge paths stage through the same
partition (:func:`partition_by_bucket`): buckets in ascending index
order, so bucket visit order, allocation order and every charged I/O
are identical by construction — the parity suite
(``tests/test_batch_parity.py``) holds both paths to it.  Within a
bucket the item order is deterministic for a given numpy build but
otherwise arbitrary (plain argsort, no stability guarantee); that is
deliberate, since block-content order is never load-bearing — lookups
scan whole blocks and I/O counts are order-independent.  The partition
is three arrays (bucket indices, group bounds, grouped ``uint64``
items), which the bulk sweeps of :mod:`repro.tables.overflow` hand to
the disk a run of buckets at a time, so no item becomes a Python object
on the way from a drain or ``H_0`` to the blocks it lands in.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def normalize_keys(keys: Sequence[int] | np.ndarray) -> tuple[list[int], np.ndarray]:
    """Return ``keys`` as (list of Python ints, uint64 array).

    The array feeds ``hash_array``; the list feeds the table's Python
    containers.  The list is always re-materialised through numpy so no
    numpy scalars leak into blocks, sets, or scalar ``hash()`` calls —
    numpy ints compare equal to Python ints but have surprising
    arithmetic (``np.uint64 + int -> float``, and the Lemire reduction
    ``(v * u) >> 64`` silently wraps at 64 bits on ``np.uint64``), so a
    caller-supplied list of numpy scalars must not pass through as-is.
    """
    arr = (
        keys.astype(np.uint64, copy=False)
        if isinstance(keys, np.ndarray)
        else np.asarray(keys, dtype=np.uint64)
    )
    return arr.tolist(), arr


def partition_by_bucket(
    keys: Sequence[int] | np.ndarray, bucket_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``keys`` by bucket index, ascending (deterministic but
    arbitrary order within each group — see the module docstring).

    Returns ``(buckets, bounds, items)`` arrays: the non-empty bucket
    indices ascending (``int64``), ``len(buckets) + 1`` group bounds, and
    the keys (``uint64``) grouped so that bucket ``buckets[j]`` receives
    ``items[bounds[j] : bounds[j + 1]]`` — the bucket visit order every
    merge/rebuild path stages through.  A caller that needs arrival
    order within each group uses :func:`partition_positions`.
    """
    arr = np.asarray(keys, dtype=np.uint64)
    idx = np.asarray(bucket_idx)
    if len(idx) == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), arr
    # Plain (unstable) argsort: within-bucket order is deterministic but
    # arbitrary, which is fine — both the scalar and batch merge paths
    # stage through this same partition, and block-content order is
    # never load-bearing (lookups scan whole blocks).
    order = np.argsort(idx)
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    buckets = sorted_idx[starts].astype(np.int64)
    return buckets, np.append(starts, len(idx)), arr[order]


def partition_positions(bucket_idx: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Stable positions-by-bucket grouping: ``[(bucket, positions), ...]``.

    Ascending bucket order, each ``positions`` array preserving arrival
    order, so callers can slice their own key/result arrays per group
    and scatter per-key outputs back to arrival order.  Used by the
    sharded router and the service layer's per-epoch shard split, where
    each shard must see its keys as the exact subsequence per-key
    routing would feed it: *stream* order decides merge/flush
    boundaries.  Ids that fit in 8 or 16 bits are sorted as a ``uint8``
    or ``uint16`` copy, which numpy's stable sort radix-sorts to the
    same order.
    """
    n = len(bucket_idx)
    if n == 0:
        return []
    idx = np.asarray(bucket_idx)
    low, high = idx.min(), idx.max()
    if low >= 0 and high < 1 << 16:
        idx = idx.astype(np.uint8 if high < 1 << 8 else np.uint16)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
    buckets = sorted_idx[starts].tolist()
    bounds = starts.tolist()
    bounds.append(n)
    return [
        (buckets[j], order[bounds[j] : bounds[j + 1]])
        for j in range(len(buckets))
    ]


def membership(queries: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorised set membership: is each query present in ``values``?

    Sort-plus-binary-search, cheaper than ``np.isin`` (which
    deduplicates both sides) for the batch-lookup workloads here.  The
    queries are searched in sorted order, so the needles walk the sorted
    values front to back, and the answers are scattered back to arrival
    order.
    """
    if values.size == 0:
        return np.zeros(len(queries), dtype=bool)
    sv = np.sort(values)
    order = np.argsort(queries)
    needles = queries[order]
    pos = np.searchsorted(sv, needles)
    found = np.empty(len(queries), dtype=bool)
    found[order] = sv[np.minimum(pos, sv.size - 1)] == needles
    return found


def concat_records(datas: Iterable[Sequence[int] | np.ndarray]) -> np.ndarray:
    """Concatenate per-block record sequences into one uint64 array.

    The materialisation step of the vectorised lookup fast paths: feed
    it the backend record views of a bucket row's primary blocks
    (:meth:`repro.em.disk.Disk.records_arr`) and probe the result with
    :func:`membership`.  Accepts lists and uint64 array views alike.
    """
    arrays = [np.asarray(d, dtype=np.uint64) for d in datas if len(d)]
    if not arrays:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(arrays)


def fresh_in_order(keys: Iterable[int], shadow: set[int]) -> list[int]:
    """Keys not yet in ``shadow``, first occurrence only, order preserved.

    Updates ``shadow`` with the returned keys — the bulk equivalent of
    the scalar per-insert ``if key in shadow: return; shadow.add(key)``
    duplicate guard.  Keys are re-materialised through numpy on every
    path so no numpy scalars reach the shadow (or, downstream, ``H_0``
    and the blocks) regardless of what the caller supplied.
    """
    arr = np.asarray(
        keys if isinstance(keys, (list, np.ndarray)) else list(keys),
        dtype=np.uint64,
    )
    if not shadow:
        # Empty-shadow fast path: vectorised first-occurrence dedup.
        _, first = np.unique(arr, return_index=True)
        if len(first) == len(arr):
            out = arr.tolist()
        else:
            first.sort()
            out = arr[first].tolist()
        shadow.update(out)
        return out
    out = []
    append = out.append
    add = shadow.add
    for k in arr.tolist():
        if k not in shadow:
            add(k)
            append(k)
    return out
