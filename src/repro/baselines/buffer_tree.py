"""Arge's buffer tree (simplified to membership workloads).

The buffer tree [2] is the canonical demonstration that buffering
turns an ``Ω(log_B n)``-per-op B-tree into an
``O((1/b)·log_{m/b}(n/b))``-amortized batched structure: every internal
node of a fanout-``Θ(m/b)`` tree carries an ``m``-word buffer; inserts
are dumped into the root's buffer and lazily pushed one level down each
time a buffer fills, so each element pays ``O(1/b)`` I/Os per level.

This implementation keeps the paper-relevant accounting honest:

* node buffers live **on disk** (appends read-modify-write the last
  partial block, then stream full blocks);
* the root buffer and the tree skeleton (separators + child pointers)
  are memory-resident and charged to the budget — the standard
  assumption that one node's routing state fits in memory, with the
  skeleton small because the fanout is ``Θ(m/b)``;
* leaves are single blocks of up to ``b`` items, splitting as in a
  B-tree (splits happen only after the parent's buffer has been
  emptied, which is what keeps them simple in Arge's design too).

Queries here are **immediate** (not batched as in [2]): a lookup must
scan every buffer on its root-to-leaf path, costing
``O((m/b)·height)`` I/Os worst-case.  That asymmetry — cheap inserts,
expensive point queries — is exactly the contrast with the paper's
hash table, whose entire point is a 1-I/O query.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from ..em.block import Block
from ..em.errors import ConfigurationError
from ..em.storage import EMContext
from ..tables.base import ExternalDictionary, LayoutSnapshot
from ..tables.batching import membership, normalize_keys


class _Leaf:
    """A single-block leaf of up to ``b`` sorted items."""

    __slots__ = ("bid", "size")

    def __init__(self, bid: int, size: int = 0) -> None:
        self.bid = bid
        self.size = size


class _Internal:
    """An internal node: routing state in memory, buffer on disk."""

    __slots__ = ("seps", "children", "buffer_blocks", "buffer_size")

    def __init__(self) -> None:
        self.seps: list[int] = []
        self.children: list["_Internal | _Leaf"] = []
        self.buffer_blocks: list[int] = []
        self.buffer_size = 0  # items currently buffered on disk


class BufferTree(ExternalDictionary):
    """A membership buffer tree with ``o(1)`` amortized inserts.

    Parameters
    ----------
    ctx:
        Shared external-memory context.  Needs ``m ≥ 4b``.
    fanout:
        Children per internal node; defaults to ``max(2, m // (2b))``
        (the ``Θ(m/b)`` of [2]).
    buffer_items:
        Buffer capacity per internal node; defaults to ``m // 2``.
    """

    def __init__(
        self,
        ctx: EMContext,
        *,
        fanout: int | None = None,
        buffer_items: int | None = None,
    ) -> None:
        super().__init__(ctx)
        if ctx.m < 4 * ctx.b:
            raise ConfigurationError(
                f"buffer tree needs m >= 4b (m={ctx.m}, b={ctx.b})"
            )
        self.fanout = fanout if fanout is not None else max(2, ctx.m // (2 * ctx.b))
        if self.fanout < 2:
            raise ConfigurationError(f"fanout must be at least 2, got {self.fanout}")
        self.buffer_capacity = (
            buffer_items if buffer_items is not None else max(ctx.b, ctx.m // 2)
        )
        #: Root buffer, memory-resident (the paper keeps it in main memory).
        self._root_buffer: list[int] = []
        self._root_buffer_capacity = max(1, ctx.m // 2)
        self._root: _Internal | _Leaf = self._new_leaf()
        self._charge_memory()

    # -- memory ------------------------------------------------------------

    def memory_words(self) -> int:
        # Memory-resident state is the root buffer plus the root's
        # routing words.  Non-root routing state (separators, child and
        # buffer-block pointers — O(m/b) words per node) rides in the
        # node's block headers on disk, the convention [2] and the rest
        # of the EM literature use for intra-block pointers; navigating
        # it is part of the block reads the lookup already charges.
        words = len(self._root_buffer) + 2
        if isinstance(self._root, _Internal):
            words += (
                len(self._root.seps)
                + len(self._root.children)
                + len(self._root.buffer_blocks)
            )
        return words

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- small helpers -----------------------------------------------------------

    def _new_leaf(self) -> _Leaf:
        return _Leaf(self.ctx.disk.allocate())

    def _leaf_items(self, leaf: _Leaf) -> list[int]:
        if leaf.size == 0:
            return []
        return self.ctx.disk.read(leaf.bid).records()

    def _write_leaf(self, leaf: _Leaf, items: list[int]) -> None:
        # Ownership transfer: the block is built here and never reused.
        self.ctx.disk.store(leaf.bid, Block(self.ctx.b, data=items))
        leaf.size = len(items)

    # -- insert path -----------------------------------------------------------

    def insert(self, key: int) -> None:
        self._size += 1  # provisional; duplicates reconciled at flush time
        self.stats.inserts += 1
        self._root_buffer.append(key)
        if len(self._root_buffer) >= self._root_buffer_capacity:
            self._flush_root()
        self._charge_memory()

    def insert_batch(self, keys: "Sequence[int] | np.ndarray") -> None:
        """Bulk insert: extend the root buffer in flush-aligned segments.

        The buffer tree has no per-key duplicate screen (duplicates
        collapse at merge time), so batching is pure bookkeeping
        amortisation; root flushes fire at exactly the scalar
        boundaries and charge identical I/Os.
        """
        keys, _ = normalize_keys(keys)
        cap = self._root_buffer_capacity
        memory = self.ctx.memory
        pos = 0
        n = len(keys)
        while pos < n:
            buf = self._root_buffer
            seg = keys[pos : pos + cap - len(buf)]
            buf.extend(seg)
            pos += len(seg)
            self._size += len(seg)
            self.stats.inserts += len(seg)
            if len(buf) >= cap:
                # Scalar memory peak: the previous insert's charge saw
                # the root buffer one item short of capacity.
                memory.set_charge(self._charge_key, self.memory_words() - 1)
                self._flush_root()
        self._charge_memory()

    def _flush_root(self) -> None:
        batch = self._root_buffer
        self._root_buffer = []
        if isinstance(self._root, _Leaf):
            self._merge_into_leaf_root(batch)
        else:
            self._push_down(self._root, batch)
        self._maybe_grow_root()

    def _merge_into_leaf_root(self, batch: list[int]) -> None:
        """While the whole tree is one leaf, merge directly (splitting
        into an internal root when it overflows)."""
        leaf = self._root
        assert isinstance(leaf, _Leaf)
        items = self._merge_dedup(self._leaf_items(leaf), sorted(set(batch)))
        if len(items) <= self.ctx.b:
            self._write_leaf(leaf, items)
            return
        # Build a one-level tree over block-sized chunks.
        root = _Internal()
        for off in range(0, len(items), self.ctx.b):
            chunk = items[off : off + self.ctx.b]
            child = _Leaf(leaf.bid) if off == 0 else self._new_leaf()
            self._write_leaf(child, chunk)
            if off > 0:
                root.seps.append(chunk[0])
            root.children.append(child)
        self._root = root

    def _push_down(self, node: _Internal, batch: list[int]) -> None:
        """Append ``batch`` to ``node``'s buffer, flushing if it fills."""
        self._buffer_append(node, batch)
        if node.buffer_size >= self.buffer_capacity:
            self._flush_node(node)

    def _buffer_append(self, node: _Internal, items: list[int]) -> None:
        """Append items to the node's on-disk buffer, packing blocks."""
        if not items:
            return
        b = self.ctx.b
        pending = list(items)
        # Top up the trailing partial block first (one read-modify-write).
        used_in_last = node.buffer_size % b
        if node.buffer_blocks and used_in_last:
            with self.ctx.disk.modify(node.buffer_blocks[-1]) as blk:
                room = b - len(blk)
                blk.extend(pending[:room])
                taken = min(room, len(pending))
            pending = pending[taken:]
            node.buffer_size += taken
        for off in range(0, len(pending), b):
            chunk = pending[off : off + b]
            bid = self.ctx.disk.allocate()
            self.ctx.disk.store(bid, Block(b, data=chunk))
            node.buffer_blocks.append(bid)
            node.buffer_size += len(chunk)

    def _drain_buffer(self, node: _Internal) -> list[int]:
        """Read and free every buffer block; return the items."""
        out: list[int] = []
        for bid in node.buffer_blocks:
            out.extend(self.ctx.disk.read(bid).records())
            self.ctx.disk.free(bid)
        node.buffer_blocks = []
        node.buffer_size = 0
        return out

    def _flush_node(self, node: _Internal) -> None:
        """Arge's buffer-emptying: partition the buffer among children."""
        self.stats.merges += 1
        items = self._drain_buffer(node)
        if not items:
            return
        items.sort()
        # Partition by separators in one linear pass.
        start = 0
        parts: list[list[int]] = []
        for sep in node.seps:
            end = bisect.bisect_left(items, sep, start)
            parts.append(items[start:end])
            start = end
        parts.append(items[start:])

        # Highest index first: a leaf split splices new children into
        # ``node.children``/``node.seps`` at ``idx``, which would shift
        # every later partition's index if we walked ascending.
        for idx in range(len(parts) - 1, -1, -1):
            part = parts[idx]
            if not part:
                continue
            child = node.children[idx]
            if isinstance(child, _Internal):
                self._push_down(child, part)
            else:
                self._merge_leaf(node, idx, part)
        self._split_if_wide(node)

    def _merge_leaf(self, parent: _Internal, idx: int, part: list[int]) -> None:
        """Merge a buffer partition into a leaf, splitting as needed."""
        leaf = parent.children[idx]
        assert isinstance(leaf, _Leaf)
        merged = self._merge_dedup(self._leaf_items(leaf), self._dedup_sorted(part))
        b = self.ctx.b
        if len(merged) <= b:
            self._write_leaf(leaf, merged)
            return
        # Split into block-sized leaves, replacing children[idx].
        new_children: list[_Leaf] = []
        new_seps: list[int] = []
        for off in range(0, len(merged), b):
            chunk = merged[off : off + b]
            tgt = leaf if off == 0 else self._new_leaf()
            self._write_leaf(tgt, chunk)
            if off > 0:
                new_seps.append(chunk[0])
            new_children.append(tgt)
        parent.children[idx : idx + 1] = new_children
        parent.seps[idx:idx] = new_seps

    def _split_if_wide(self, node: _Internal) -> None:
        """Split an over-wide node's children among fresh internals.

        Called only with an empty buffer (we just flushed), matching
        Arge's invariant that only buffer-empty nodes split.
        """
        limit = 2 * self.fanout
        if len(node.children) <= limit:
            return
        # Group children into fanout-sized internal nodes under `node`.
        groups: list[_Internal] = []
        group_seps: list[int] = []
        for off in range(0, len(node.children), self.fanout):
            sub = _Internal()
            sub.children = node.children[off : off + self.fanout]
            lo = off
            hi = min(off + self.fanout, len(node.children)) - 1
            sub.seps = node.seps[lo : hi]
            groups.append(sub)
            if off > 0:
                group_seps.append(node.seps[off - 1])
        node.children = list(groups)
        node.seps = group_seps

    def _maybe_grow_root(self) -> None:
        if isinstance(self._root, _Internal):
            self._split_if_wide(self._root)

    @staticmethod
    def _dedup_sorted(items: list[int]) -> list[int]:
        out: list[int] = []
        for x in items:
            if not out or out[-1] != x:
                out.append(x)
        return out

    @staticmethod
    def _merge_dedup(a: list[int], b: list[int]) -> list[int]:
        out: list[int] = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] < b[j]:
                out.append(a[i])
                i += 1
            elif a[i] > b[j]:
                out.append(b[j])
                j += 1
            else:
                out.append(a[i])
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return out

    # -- queries ------------------------------------------------------------

    def lookup(self, key: int) -> bool:
        """Immediate point query: scan buffers along the search path.

        Worst case ``O((m/b)·height)`` I/Os — the price of buffered
        inserts when queries are not batched.
        """
        self.stats.lookups += 1
        if key in self._root_buffer:
            self.stats.hits += 1
            return True
        node = self._root
        while isinstance(node, _Internal):
            for bid in node.buffer_blocks:
                if key in self.ctx.disk.read(bid):
                    self.stats.hits += 1
                    return True
            idx = bisect.bisect_right(node.seps, key)
            node = node.children[idx]
        if node.size and key in self.ctx.disk.read(node.bid):
            self.stats.hits += 1
            return True
        return False

    def lookup_batch(
        self,
        keys: "Sequence[int] | np.ndarray",
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Batched point queries: route key groups down the tree once.

        Keys are partitioned among children by one ``searchsorted`` per
        node (replacing the per-key separator bisect), and each buffer
        block on a group's path is probed with one bulk membership scan.
        Every key records the reads the scalar walk makes — one per
        buffer block until its hit, plus the leaf — and
        :meth:`~repro.em.disk.Disk.charge_walk` charges them in scalar
        order, so counters, per-query ``cost_out``, the pending
        read-modify-write block and any buffer pool are bit-identical to
        the per-key loop.
        """
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        self.stats.lookups += n
        root_buffer = self._root_buffer
        in_rb = (
            membership(arr, np.asarray(root_buffer, dtype=np.uint64))
            if root_buffer
            else np.zeros(n, dtype=bool)
        )
        out |= in_rb
        records_arr = self.ctx.disk.records_arr
        rounds: list[tuple[np.ndarray, int]] = []
        stack: list[tuple["_Internal | _Leaf", np.ndarray]] = [
            (self._root, np.flatnonzero(~in_rb))
        ]
        while stack:
            node, pos = stack.pop()
            if pos.size == 0:
                continue
            if isinstance(node, _Leaf):
                if node.size:
                    rounds.append((pos, node.bid))
                    hit = membership(arr[pos], records_arr(node.bid))
                    out[pos[hit]] = True
                continue
            alive = pos
            for bid in node.buffer_blocks:
                if alive.size == 0:
                    break
                rounds.append((alive, bid))
                hit = membership(arr[alive], records_arr(bid))
                out[alive[hit]] = True
                alive = alive[~hit]
            if alive.size == 0:
                continue
            if node.seps:
                child_idx = np.searchsorted(
                    np.asarray(node.seps, dtype=np.uint64), arr[alive], side="right"
                )
            else:
                child_idx = np.zeros(alive.size, dtype=np.int64)
            for j, child in enumerate(node.children):
                sub = alive[child_idx == j]
                if sub.size:
                    stack.append((child, sub))
        costs = self.ctx.disk.charge_walk(n, rounds)
        if cost_out is not None:
            cost_out.extend(costs.tolist())
        self.stats.hits += int(np.count_nonzero(out))
        return out

    def delete(self, key: int) -> bool:
        """Immediate delete: purge every copy of ``key`` on its path.

        Duplicate inserts collapse only at merge time, so a copy of
        ``key`` may live in the root buffer, in any buffer block along
        the root-to-leaf path, *and* in the leaf — a correct immediate
        delete must remove them all (one survivor would resurrect the
        key).  Each buffer block on the path is read (charged, like the
        miss walk of :meth:`lookup` but without early exit) and written
        back only when a copy was removed; the provisional ``_size`` is
        decremented per physical copy, mirroring the per-copy increment
        of :meth:`insert`.
        """
        removed = self._root_buffer.count(key)
        if removed:
            self._root_buffer = [x for x in self._root_buffer if x != key]
        disk = self.ctx.disk
        node = self._root
        while isinstance(node, _Internal):
            for bid in node.buffer_blocks:
                blk = disk.read(bid)
                dropped = 0
                while blk.remove(key):
                    dropped += 1
                if dropped:
                    disk.write(bid, blk)
                    node.buffer_size -= dropped
                    removed += dropped
            node = node.children[bisect.bisect_right(node.seps, key)]
        if node.size:
            blk = disk.read(node.bid)
            if blk.remove(key):  # leaves are merged-deduped: one copy max
                disk.write(node.bid, blk)
                node.size -= 1
                removed += 1
        if removed == 0:
            return False
        self._size -= removed
        self.stats.deletes += 1
        self._charge_memory()
        return True

    def flush_all(self) -> None:
        """Force every buffered item down to the leaves (used before
        bulk verification; costs what the lazy flushes would have)."""
        self._flush_root()
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Internal):
                if node.buffer_size:
                    self._flush_node(node)
                stack.extend(node.children)
        self._maybe_grow_root()
        self._reconcile_size()

    def _reconcile_size(self) -> None:
        """Recount after flushes: duplicate inserts collapse at merge
        time, so the provisional ``_size`` may overcount."""
        total = len(set(self._root_buffer))

        def count(node: "_Internal | _Leaf") -> int:
            if isinstance(node, _Leaf):
                return node.size
            sub = sum(count(ch) for ch in node.children)
            return sub + node.buffer_size

        self._size = count(self._root) + total

    # -- instrumentation ---------------------------------------------------------

    @property
    def height(self) -> int:
        h = 1
        node = self._root
        while isinstance(node, _Internal):
            h += 1
            node = node.children[0]
        return h

    def layout_snapshot(self) -> LayoutSnapshot:
        blocks: dict[int, tuple[int, ...]] = {}
        leaf_of: dict[int, int] = {}

        def walk(node: "_Internal | _Leaf") -> None:
            if isinstance(node, _Leaf):
                items = tuple(self.ctx.disk.peek(node.bid).records()) if node.size else ()
                blocks[node.bid] = items
                for x in items:
                    leaf_of[x] = node.bid
                return
            for bid in node.buffer_blocks:
                blocks[bid] = tuple(self.ctx.disk.peek(bid).records())
            for ch in node.children:
                walk(ch)

        walk(self._root)

        def address(key: int) -> int | None:
            # One I/O only suffices for items already settled in the
            # leaf their search path ends at.
            return leaf_of.get(key)

        return LayoutSnapshot(
            memory_items=frozenset(self._root_buffer),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        def walk(node: "_Internal | _Leaf", lo: int | None, hi: int | None) -> None:
            if isinstance(node, _Leaf):
                items = self.ctx.disk.peek(node.bid).records() if node.size else []
                assert items == sorted(items)
                assert len(items) == node.size <= self.ctx.b
                if lo is not None:
                    assert all(x >= lo for x in items)
                if hi is not None:
                    assert all(x < hi for x in items)
                return
            assert node.seps == sorted(node.seps)
            assert len(node.children) == len(node.seps) + 1
            assert len(node.children) <= 2 * self.fanout
            assert node.buffer_size <= self.buffer_capacity + self._root_buffer_capacity
            for j, ch in enumerate(node.children):
                new_lo = node.seps[j - 1] if j > 0 else lo
                new_hi = node.seps[j] if j < len(node.seps) else hi
                walk(ch, new_lo, new_hi)

        walk(self._root, None, None)
