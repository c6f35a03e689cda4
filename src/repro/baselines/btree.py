"""An external B-tree: the classic no-hashing comparison point.

The B-tree is what external dictionaries look like when keys must stay
ordered: every operation pays ``Θ(log_B n)`` I/Os (``B = Θ(b)``), and —
unlike the hash table — buffering *can* help it (that is the buffer
tree, :mod:`repro.baselines.buffer_tree`).  Here it serves two roles:

* the ordered baseline in ``bench_baselines`` (insert cost ≥ 1 I/O,
  query cost ``Θ(log_b n)`` > 1 I/O — strictly worse than hashing on
  both axes for membership workloads), and
* the substrate the buffer tree batches on top of.

Layout: one node per block.  A leaf stores up to ``b`` sorted keys.
An internal node stores up to ``MAX_CHILDREN − 1`` sorted separators in
its data words and the child block ids in its header (O(fanout) words
of structural metadata, charged nowhere — the convention the EM
literature uses for pointers inside a block).  The root is pinned in
main memory (charged to the budget), so a lookup costs ``height − 1``
I/Os.

Insertion uses preemptive splitting (split any full node on the way
down), giving a single root-to-leaf pass of read-modify-writes.
Deletion implements the full borrow/merge repertoire so the minimum
occupancy invariant ``t − 1 ≤ keys`` holds everywhere but the root.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from ..em.block import Block
from ..em.errors import ConfigurationError
from ..em.storage import EMContext
from ..tables.base import ExternalDictionary, LayoutSnapshot
from ..tables.batching import normalize_keys


class _Node:
    """Decoded view of a node block."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: list[int], children: list[int] | None) -> None:
        self.keys = keys
        self.children = children  # None for leaves

    @property
    def leaf(self) -> bool:
        return self.children is None

    def to_block(self, b: int) -> Block:
        header = {"leaf": self.leaf}
        if self.children is not None:
            header["children"] = list(self.children)
        return Block(b, data=self.keys, header=header)

    @classmethod
    def from_block(cls, blk: Block) -> "_Node":
        children = blk.header.get("children")
        return cls(blk.records(), list(children) if children is not None else None)


class BTree(ExternalDictionary):
    """A set-semantics B-tree over integer keys.

    Parameters
    ----------
    ctx:
        Shared external-memory context.
    min_keys:
        Minimum keys per non-root node (``t − 1``); defaults to
        ``b // 4`` so a node holds between ``b/4`` and ``b/2 + b/4``
        keys, comfortably within one block.
    """

    def __init__(self, ctx: EMContext, *, min_keys: int | None = None) -> None:
        super().__init__(ctx)
        b = ctx.b
        self.min_keys = min_keys if min_keys is not None else max(1, b // 4)
        if self.min_keys < 1 or 2 * self.min_keys + 1 > b:
            raise ConfigurationError(
                f"min_keys={self.min_keys} incompatible with b={b}: need "
                f"1 <= min_keys and 2*min_keys+1 <= b"
            )
        # Classic occupancy: t − 1 = min_keys, max = 2t − 1, so merging
        # two minimum nodes plus their separator exactly fills a node.
        self.max_keys = 2 * self.min_keys + 1
        #: The root is pinned in memory: its keys and child pointers are
        #: charged to the budget and reading it costs no I/O.
        self._root = _Node([], None)
        self._height = 1
        self._charge_memory()

    # -- memory ------------------------------------------------------------

    def memory_words(self) -> int:
        kids = len(self._root.children) if self._root.children else 0
        return len(self._root.keys) + kids + 2

    def _charge_memory(self) -> None:
        self.ctx.memory.set_charge(self._charge_key, self.memory_words())

    # -- node I/O ------------------------------------------------------------

    def _read(self, bid: int) -> _Node:
        return _Node.from_block(self.ctx.disk.read(bid))

    def _write(self, bid: int, node: _Node) -> None:
        self.ctx.disk.write(bid, node.to_block(self.ctx.b))

    def _alloc(self, node: _Node) -> int:
        bid = self.ctx.disk.allocate()
        self._write(bid, node)
        return bid

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int) -> bool:
        self.stats.lookups += 1
        node = self._root
        while True:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                self.stats.hits += 1
                return True
            if node.leaf:
                return False
            node = self._read(node.children[i])

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Vectorised grouped descent: route key groups down the tree.

        One ``searchsorted`` per visited node replaces the per-key
        bisect, and each node is decoded once per group (uncharged
        peek).  Every key in a group records the node read the scalar
        walk would make, and :meth:`~repro.em.disk.Disk.charge_walk`
        charges the recorded walk in scalar order, so counters, per-key
        costs, the pending read-modify-write block and any buffer pool
        end exactly where the per-key loop leaves them.
        """
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        out = np.zeros(n, dtype=bool)
        self.stats.lookups += n
        if n == 0:
            return out
        peek = self.ctx.disk.peek
        rounds: list[tuple[np.ndarray, int]] = []
        stack: list[tuple[_Node, int | None, np.ndarray]] = [
            (self._root, None, np.arange(n))
        ]
        while stack:
            node, bid, pos = stack.pop()
            if bid is not None:
                rounds.append((pos, bid))
            karr = np.asarray(node.keys, dtype=np.uint64)
            sub = arr[pos]
            if karr.size:
                idx = np.searchsorted(karr, sub)
                hit = np.zeros(pos.size, dtype=bool)
                inb = idx < karr.size
                hit[inb] = karr[idx[inb]] == sub[inb]
            else:
                idx = np.zeros(pos.size, dtype=np.int64)
                hit = np.zeros(pos.size, dtype=bool)
            out[pos[hit]] = True
            if node.leaf:
                continue
            rest = pos[~hit]
            if rest.size == 0:
                continue
            child_idx = idx[~hit]
            for j in np.unique(child_idx):
                child = node.children[int(j)]
                stack.append(
                    (_Node.from_block(peek(child)), child, rest[child_idx == j])
                )
        costs = self.ctx.disk.charge_walk(n, rounds)
        self.stats.hits += int(np.count_nonzero(out))
        if cost_out is not None:
            cost_out.extend(costs.tolist())
        return out

    # -- insert ------------------------------------------------------------

    def insert(self, key: int) -> None:
        root = self._root
        if len(root.keys) >= self.max_keys:
            # Grow upward: old root spills to disk, new in-memory root.
            old_id = self._alloc(root)
            self._root = _Node([], [old_id])
            self._height += 1
            self._split_child(self._root, None, 0)
        if self._insert_nonfull(self._root, None, key):
            self._size += 1
            self.stats.inserts += 1
        self._charge_memory()

    def _insert_nonfull(self, node: _Node, bid: int | None, key: int) -> bool:
        """Insert into the subtree at ``node`` (known non-full).

        ``bid`` is ``None`` for the memory-pinned root.  Returns whether
        the key was new.
        """
        while True:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return False
            if node.leaf:
                node.keys.insert(i, key)
                if bid is not None:
                    self._write(bid, node)
                return True
            child_id = node.children[i]
            child = self._read(child_id)
            if len(child.keys) >= self.max_keys:
                self._split_child(node, bid, i, child=child)
                # Re-route around the separator that moved up.
                if key == node.keys[i]:
                    return False
                if key > node.keys[i]:
                    i += 1
                    child_id = node.children[i]
                    child = self._read(child_id)
                else:
                    child_id = node.children[i]
                    child = self._read(child_id)
            node, bid = child, child_id

    def _split_child(
        self, parent: _Node, parent_id: int | None, i: int, *, child: _Node | None = None
    ) -> None:
        """Split ``parent.children[i]`` (full) around its median key."""
        child_id = parent.children[i]
        if child is None:
            child = self._read(child_id)
        mid = len(child.keys) // 2
        median = child.keys[mid]
        right = _Node(
            child.keys[mid + 1 :],
            child.children[mid + 1 :] if child.children else None,
        )
        child.keys = child.keys[:mid]
        if child.children:
            child.children = child.children[: mid + 1]
        right_id = self._alloc(right)
        self._write(child_id, child)
        parent.keys.insert(i, median)
        parent.children.insert(i + 1, right_id)
        if parent_id is not None:
            self._write(parent_id, parent)

    # -- delete ------------------------------------------------------------

    def delete(self, key: int) -> bool:
        removed = self._delete_from(self._root, None, key)
        if removed:
            self._size -= 1
            self.stats.deletes += 1
        # Shrink the root if it became a single-child stem.
        if not self._root.leaf and not self._root.keys:
            only = self._root.children[0]
            self._root = self._read(only)
            self.ctx.disk.free(only)
            self._height -= 1
        self._charge_memory()
        return removed

    def _delete_from(self, node: _Node, bid: int | None, key: int) -> bool:
        while True:
            i = bisect.bisect_left(node.keys, key)
            hit = i < len(node.keys) and node.keys[i] == key

            if node.leaf:
                if not hit:
                    return False
                node.keys.pop(i)
                if bid is not None:
                    self._write(bid, node)
                return True

            if hit:
                # CLRS case 2: replace the separator with its in-order
                # predecessor (or successor) from whichever neighbouring
                # child can spare a key; if neither can, merge around the
                # key and continue inside the merged child.
                left_id = node.children[i]
                left = self._read(left_id)
                if len(left.keys) > self.min_keys:
                    pred = self._extreme_key(left, last=True)
                    node.keys[i] = pred
                    if bid is not None:
                        self._write(bid, node)
                    node, bid, key = left, left_id, pred
                    continue
                right_id = node.children[i + 1]
                right = self._read(right_id)
                if len(right.keys) > self.min_keys:
                    succ = self._extreme_key(right, last=False)
                    node.keys[i] = succ
                    if bid is not None:
                        self._write(bid, node)
                    node, bid, key = right, right_id, succ
                    continue
                self._merge_children(node, bid, i)
                merged_id = node.children[i]
                node, bid = self._read(merged_id), merged_id
                continue

            # CLRS case 3: descend only into children that can lose a key.
            self._ensure_child_min(node, bid, i)
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                continue  # a borrow rotated the key into this node
            child_id = node.children[i]
            node, bid = self._read(child_id), child_id

    def _extreme_key(self, node: _Node, *, last: bool) -> int:
        """Max (``last``) or min key of the subtree rooted at ``node``."""
        while not node.leaf:
            node = self._read(node.children[-1 if last else 0])
        return node.keys[-1 if last else 0]

    def _ensure_child_min(self, parent: _Node, parent_id: int | None, i: int) -> None:
        """Guarantee ``parent.children[i]`` holds > min_keys keys,
        borrowing from a sibling or merging when it doesn't."""
        child_id = parent.children[i]
        child = self._read(child_id)
        if len(child.keys) > self.min_keys:
            return

        if i > 0:
            left_id = parent.children[i - 1]
            left = self._read(left_id)
            if len(left.keys) > self.min_keys:
                # Rotate right through the separator.
                child.keys.insert(0, parent.keys[i - 1])
                parent.keys[i - 1] = left.keys.pop()
                if left.children:
                    child.children.insert(0, left.children.pop())
                self._write(left_id, left)
                self._write(child_id, child)
                if parent_id is not None:
                    self._write(parent_id, parent)
                return
        if i < len(parent.children) - 1:
            right_id = parent.children[i + 1]
            right = self._read(right_id)
            if len(right.keys) > self.min_keys:
                child.keys.append(parent.keys[i])
                parent.keys[i] = right.keys.pop(0)
                if right.children:
                    child.children.append(right.children.pop(0))
                self._write(right_id, right)
                self._write(child_id, child)
                if parent_id is not None:
                    self._write(parent_id, parent)
                return

        # Merge with a sibling (prefer left so indices stay simple).
        if i > 0:
            self._merge_children(parent, parent_id, i - 1)
        else:
            self._merge_children(parent, parent_id, i)

    def _merge_children(self, parent: _Node, parent_id: int | None, i: int) -> None:
        """Merge ``children[i]``, separator ``keys[i]``, ``children[i+1]``."""
        left_id = parent.children[i]
        right_id = parent.children[i + 1]
        left = self._read(left_id)
        right = self._read(right_id)
        left.keys = left.keys + [parent.keys[i]] + right.keys
        if left.children is not None:
            left.children = left.children + right.children
        parent.keys.pop(i)
        parent.children.pop(i + 1)
        self._write(left_id, left)
        self.ctx.disk.free(right_id)
        if parent_id is not None:
            self._write(parent_id, parent)

    # -- instrumentation ------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    def layout_snapshot(self) -> LayoutSnapshot:
        """The Section 2 view of a B-tree.

        Only the root is memory-resident; since finding a key requires
        the full descent, a one-I/O address exists only for height-2
        trees (root in memory → the child holding the key).  For taller
        trees the address function is ``None``: every disk item needs
        ≥ 2 I/Os, which is exactly why B-trees cannot reach
        ``1 + o(1)``-I/O queries.
        """
        blocks: dict[int, tuple[int, ...]] = {}

        def collect(node: _Node) -> None:
            if node.children is None:
                return
            for cid in node.children:
                child = _Node.from_block(self.ctx.disk.peek(cid))
                blocks[cid] = tuple(child.keys)
                collect(child)

        collect(self._root)
        root = self._root
        height = self._height

        def address(key: int) -> int | None:
            if height != 2:
                return None
            i = bisect.bisect_left(root.keys, key)
            if i < len(root.keys) and root.keys[i] == key:
                return None  # lives in memory, not on disk
            return root.children[i]

        return LayoutSnapshot(
            memory_items=frozenset(root.keys),
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        """Full structural audit: ordering, occupancy, uniform depth."""
        seen: list[int] = []
        depths: set[int] = set()

        def walk(node: _Node, depth: int, lo: int | None, hi: int | None, root: bool) -> None:
            assert node.keys == sorted(node.keys), "keys out of order"
            if lo is not None:
                assert all(k > lo for k in node.keys)
            if hi is not None:
                assert all(k < hi for k in node.keys)
            if not root:
                assert len(node.keys) >= self.min_keys, "underfull node"
            assert len(node.keys) <= self.max_keys, "overfull node"
            if node.leaf:
                depths.add(depth)
                seen.extend(node.keys)
                return
            assert len(node.children) == len(node.keys) + 1
            for j, cid in enumerate(node.children):
                child = _Node.from_block(self.ctx.disk.peek(cid))
                new_lo = node.keys[j - 1] if j > 0 else lo
                new_hi = node.keys[j] if j < len(node.keys) else hi
                walk(child, depth + 1, new_lo, new_hi, False)
            seen.extend(node.keys)

        walk(self._root, 1, None, None, True)
        assert len(depths) <= 1, f"leaves at multiple depths: {depths}"
        assert len(seen) == len(set(seen)) == self._size, (
            f"size mismatch: {len(seen)} stored vs {self._size} counted"
        )
