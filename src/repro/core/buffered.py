"""The bootstrapped buffered hash table (Theorem 2) — the paper's upper bound.

The construction keeps the *majority* of items in one big on-disk hash
table ``Ĥ`` so that most successful lookups cost exactly one I/O, while
recent insertions ride the logarithmic method:

* Round ``i`` starts with ``|Ĥ| = 2^{i-1} m`` and ends at ``2^i m``.
* Within a round, the next ``|Ĥ|/β`` insertions accumulate in a
  :class:`~repro.core.logmethod.LogMethodHashTable` (whose ``H_0`` is
  the memory buffer); then the accumulated chunk is merged into ``Ĥ``
  by a scan.  ``Ĥ`` is scanned ``β`` times per round, charging
  ``O(β/b)`` I/Os amortized to each item, and the log method adds
  ``O((γ/b) log(n/m))``.
* At every instant ``Ĥ`` holds at least a ``1 − 1/β`` fraction of all
  items, and the log-method levels are geometrically separated, so the
  expected successful-lookup cost is
  ``(1 + 2^{-Ω(b)}) · ((1 − 1/β) · 1 + (1/β)(2·½ + 3·¼ + ...)) = 1 + O(1/β)``.

With ``β = b^c`` this gives Theorem 2's
``t_u = O(b^{c-1})``, ``t_q = 1 + O(1/b^c)`` for any ``c < 1``; with
``β = εb/(2c')`` it gives ``t_u = ε``, ``t_q = 1 + O(1/b)``.

``Ĥ`` is a blocked chaining table kept at load factor ≤ ``hhat_load``;
its bucket count is fixed for the duration of a round and doubles at
the round boundary (folded into the first merge scan of the new round).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..em.storage import EMContext
from ..hashing.base import HashFunction
from ..tables.base import ExternalDictionary, LayoutSnapshot
from ..tables.batching import fresh_in_order, normalize_keys, partition_by_bucket
from ..tables.overflow import ChainedBucket, bulk_fill_buckets, bulk_merge_into
from .config import BufferedParams
from .logmethod import LogMethodHashTable, _walk_is_cheaper


class BufferedHashTable(ExternalDictionary):
    """Theorem 2's dynamic hash table: ``o(1)`` inserts, ``1 + O(1/β)`` lookups.

    Parameters
    ----------
    ctx, hash_fn:
        Context and hash function.
    params:
        ``β`` and ``γ`` (see :class:`~repro.core.config.BufferedParams`).
    hhat_load:
        Target load factor of ``Ĥ`` (items per block-slot); the paper
        uses a constant < 1, we default to 1/2.
    """

    def __init__(
        self,
        ctx: EMContext,
        hash_fn: HashFunction,
        *,
        params: BufferedParams | None = None,
        hhat_load: float = 0.5,
    ) -> None:
        super().__init__(ctx)
        if not 0 < hhat_load < 1:
            raise ValueError(f"hhat_load must lie in (0,1), got {hhat_load}")
        self.h = hash_fn
        self.params = params if params is not None else BufferedParams(beta=8)
        self.hhat_load = hhat_load

        #: Bootstrap buffer: the first ~``m`` items accumulate in memory
        #: before Ĥ is first built ("dump them in a hash table Ĥ on disk").
        #: Leaves headroom for the O(1) addressing words and the inner
        #: log-method table's own O(1) residency so the total stays ≤ m.
        #: Insertion-ordered (dict keys): O(1) membership/delete for
        #: the batch paths while _finish_bootstrap sees list order.
        self._bootstrap: dict[int, None] = {}
        self._bootstrap_capacity = max(1, ctx.m - 16)
        self._bootstrapping = True

        #: The big table: chained buckets (None until first built).
        self._hhat: list[ChainedBucket] = []
        self._hhat_count = 0
        #: Round index i: Ĥ grows from 2^{i-1} m to 2^i m within round i.
        self._round = 0
        #: Items remaining before the next merge of recent items into Ĥ.
        self._until_merge = 0

        #: Recent insertions (the bootstrapped log method).
        self._recent = LogMethodHashTable(
            ctx, hash_fn, gamma=self.params.gamma, h0_capacity=max(1, ctx.m // 2)
        )

        # Simulator-side membership shadow (set semantics without
        # charging duplicate-probe I/Os the paper's insert path lacks).
        self._shadow: set[int] = set()
        self._charge_memory()

    # -- memory accounting ---------------------------------------------------

    def memory_words(self) -> int:
        # Bootstrap buffer + recent structure's H0 + O(1) Ĥ addressing.
        return len(self._bootstrap) + self._recent.memory_words() + 4

    def _charge_memory(self) -> None:
        # The inner log-method table charges the shared budget under its
        # own name; charge only the words owned directly by this wrapper
        # to avoid double counting.
        self.ctx.memory.set_charge(self._charge_key, len(self._bootstrap) + 4)

    # -- geometry ----------------------------------------------------------------

    @property
    def beta(self) -> int:
        return self.params.beta

    @property
    def hhat_size(self) -> int:
        """Items currently in ``Ĥ``."""
        return self._hhat_count

    @property
    def round_index(self) -> int:
        return self._round

    def _buckets_for(self, capacity: int) -> int:
        """Bucket count holding ``capacity`` items at the target load."""
        per_bucket = max(1, int(self.ctx.b * self.hhat_load))
        return max(1, -(-capacity // per_bucket))

    def _round_capacity(self) -> int:
        """Ĥ size at which round ``i`` ends: ``2^i · m``."""
        return (2**self._round) * self.ctx.m

    def _chunk_size(self) -> int:
        """Insertions accumulated between merges: ``2^{i-1} m / β``."""
        start = max(1, self._round_capacity() // 2)
        return max(1, start // self.beta)

    # -- operations -----------------------------------------------------------------

    def insert(self, key: int) -> None:
        if key in self._shadow:
            return
        self._shadow.add(key)
        self._size += 1
        self.stats.inserts += 1

        if self._bootstrapping:
            self._bootstrap[key] = None
            if len(self._bootstrap) >= self._bootstrap_capacity:
                self._finish_bootstrap()
            self._charge_memory()
            return

        self._recent.insert(key)
        self._until_merge -= 1
        if self._until_merge <= 0:
            self._merge_recent()
        self._charge_memory()

    def lookup(self, key: int) -> bool:
        """Successful lookups cost ``1 + O(1/β)`` expected I/Os.

        Probe order: memory (free) → ``Ĥ`` (one I/O for the
        ``1 − 1/β`` majority) → log-method levels, largest first.
        """
        self.stats.lookups += 1
        if self._bootstrapping:
            if key in self._bootstrap:
                self.stats.hits += 1
                return True
            return False
        if self._recent.in_memory(key):
            self.stats.hits += 1
            return True
        bucket = self._hhat[int(self.h.hash(key)) % len(self._hhat)]
        found = bucket.lookup(key) or self._recent.lookup_disk_only(key)
        if found:
            self.stats.hits += 1
        return found

    def delete(self, key: int) -> bool:
        """Remove ``key``, probing in lookup order: memory (free) → ``Ĥ``
        (one read-modify-write) → log-method levels."""
        if self._bootstrapping:
            if key in self._bootstrap:
                del self._bootstrap[key]
                self._shadow.discard(key)
                self._size -= 1
                self.stats.deletes += 1
                self._charge_memory()
                return True
            return False
        if self._recent.in_memory(key):
            self._recent.delete(key)  # the free H_0 branch
            self._shadow.discard(key)
            self._size -= 1
            self.stats.deletes += 1
            return True
        hv = int(self.h.hash(key))
        if self._hhat[hv % len(self._hhat)].delete(key):
            self._hhat_count -= 1
            self._shadow.discard(key)
            self._size -= 1
            self.stats.deletes += 1
            return True
        if self._recent.delete_disk_only(key, hashed=hv):
            self._shadow.discard(key)
            self._size -= 1
            self.stats.deletes += 1
            return True
        return False

    # -- batch operations ---------------------------------------------------------------

    def insert_batch(self, keys: Sequence[int] | np.ndarray) -> None:
        """Bulk insert with the scalar path's exact merge schedule.

        One shadow-dedup pass, then segments cut at the scalar loop's
        event boundaries: the bootstrap build, the inner log-method's
        ``H_0`` migrations (handled by its own ``insert_batch``), and
        every ``|Ĥ|/β``-insertion merge into ``Ĥ``.  All staging inside
        those events is vectorised; the charged I/O sequence is
        bit-identical to ``insert_many``.
        """
        fresh = fresh_in_order(keys, self._shadow)
        if not fresh:
            return
        pos = 0
        n = len(fresh)
        while pos < n:
            if self._bootstrapping:
                seg = fresh[pos : pos + self._bootstrap_capacity - len(self._bootstrap)]
                self._bootstrap.update(dict.fromkeys(seg))
                pos += len(seg)
                self._size += len(seg)
                self.stats.inserts += len(seg)
                if len(self._bootstrap) >= self._bootstrap_capacity:
                    # Replicate the scalar memory peak: the last charge
                    # before the bootstrap build saw capacity-1 items.
                    self.ctx.memory.set_charge(
                        self._charge_key, len(self._bootstrap) + 3
                    )
                    self._finish_bootstrap()
                    self._charge_memory()
                continue
            take = min(self._until_merge, n - pos)
            seg = fresh[pos : pos + take]
            # Keys fresh to the outer shadow are necessarily fresh to the
            # inner table, whose own dedup shadow is only ever consulted
            # for keys this wrapper has already screened — skip both its
            # dedup pass and its shadow upkeep.
            self._recent._insert_fresh(seg)
            pos += take
            self._size += take
            self.stats.inserts += take
            self._until_merge -= take
            if self._until_merge <= 0:
                self._merge_recent()
        self._charge_memory()

    def lookup_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Memory by set probes, then one address-then-gather walk of
        ``Ĥ`` and the log-method levels
        (:meth:`~repro.core.logmethod.LogMethodHashTable.probe_levels_batch`),
        charged in the scalar walk's block order at every batch size."""
        key_list, arr = normalize_keys(keys)
        n = len(key_list)
        if self._bootstrapping:
            out = np.fromiter(
                map(self._bootstrap.__contains__, key_list), dtype=bool, count=n
            )
            cost = np.zeros(n, dtype=np.int64)
        else:
            in_mem = self._recent.memory_membership(key_list)
            found, cost = self._recent.probe_levels_batch(
                arr, ~in_mem, head=(self._hhat, self._hhat_count)
            )
            out = in_mem | found
        self.stats.lookups += n
        self.stats.hits += int(np.count_nonzero(out))
        if cost_out is not None:
            cost_out.extend(cost.tolist())
        return out

    def delete_batch(
        self,
        keys: Sequence[int] | np.ndarray,
        *,
        cost_out: list[int] | None = None,
    ) -> np.ndarray:
        """Memory by set removals, then one removing walk of ``Ĥ`` and the
        log-method levels
        (:meth:`~repro.core.logmethod.LogMethodHashTable.delete_levels_batch`)
        where the walk is cheaper than the per-key loop, which smaller
        batches and the bootstrap take.  Either way each key is charged
        what :meth:`delete` charges it.
        """
        key_list, arr = normalize_keys(keys)
        if self._bootstrapping or not _walk_is_cheaper(len(key_list)):
            return super().delete_batch(key_list, cost_out=cost_out)
        in_mem = self._recent.delete_from_memory(key_list)
        out, head_hits = self._recent.delete_levels_batch(
            arr, ~in_mem, head=(self._hhat, self._hhat_count), cost_out=cost_out
        )
        self._hhat_count -= head_hits
        out |= in_mem
        gone = arr[out].tolist()
        self._shadow.difference_update(gone)
        self._size -= len(gone)
        self.stats.deletes += len(gone)
        return out

    # -- bootstrap / rounds -------------------------------------------------------------

    def _finish_bootstrap(self) -> None:
        """Build ``Ĥ`` from the first ``m`` items and enter round 1."""
        self._bootstrapping = False
        count = len(self._bootstrap)
        items = np.fromiter(self._bootstrap, dtype=np.uint64, count=count)
        self._bootstrap = {}
        self._round = 1
        self._rebuild_hhat(items, capacity=self._round_capacity())
        self._until_merge = self._chunk_size()

    def _rebuild_hhat(self, items: np.ndarray, *, capacity: int) -> None:
        """(Re)build ``Ĥ`` sized for ``capacity`` and write ``items`` into it."""
        self.stats.rebuilds += 1
        for bkt in self._hhat:
            bkt.free_all()
        d = self._buckets_for(capacity)
        self._hhat = ChainedBucket.bulk_row(self.ctx.disk, d)
        parts = partition_by_bucket(items, self.h.hash_array(items) % np.uint64(d))
        bulk_fill_buckets(self._hhat, parts, self.ctx.disk)
        self._hhat_count = len(items)

    def _merge_recent(self) -> None:
        """Merge the accumulated recent items into ``Ĥ``.

        The paper merges by *scanning* ``Ĥ`` once, charging ``O(β/b)``
        I/Os per item.  An in-round merge touches only the buckets that
        receive items, always: a subset of the blocks the scan streams,
        so the paper's scan bound is an upper bound on what it charges.

        At a round boundary the merge doubles ``Ĥ``'s bucket count by
        rebuilding: ``Ĥ`` is read as one charged stream, and the same
        full scan keeps the cost class unchanged.
        """
        self.stats.merges += 1
        chunk = self._recent.drain_all()
        new_size = self._hhat_count + len(chunk)

        if new_size >= self._round_capacity():
            # Round boundary: rebuild at double capacity.
            ids = [bid for bkt in self._hhat for bid in bkt.block_ids]
            stored = self.ctx.disk.read_records_arr(ids)
            self._round += 1
            self._rebuild_hhat(
                np.concatenate([chunk, stored]), capacity=self._round_capacity()
            )
        else:
            # In-round merge: read-modify-write each receiving bucket,
            # O(|Ĥ|/b) I/Os at most per |Ĥ|/β-item chunk — the
            # O(β/b)-per-item charge of Theorem 2's analysis.
            d = np.uint64(len(self._hhat))
            parts = partition_by_bucket(chunk, self.h.hash_array(chunk) % d)
            bulk_merge_into(self._hhat, parts, self.ctx.disk)
            self._hhat_count = new_size

        self._until_merge = self._chunk_size()
        self._charge_memory()

    # -- instrumentation ---------------------------------------------------------------

    def recent_fraction(self) -> float:
        """Fraction of items outside ``Ĥ`` — the paper's ``≤ 1/β`` invariant."""
        if self._size == 0:
            return 0.0
        outside = self._size - self._hhat_count
        return outside / self._size

    def layout_snapshot(self) -> LayoutSnapshot:
        recent_snap = self._recent.layout_snapshot()
        blocks: dict[int, tuple[int, ...]] = dict(recent_snap.blocks)
        for bkt in self._hhat:
            for bid, items in bkt.peek_blocks():
                blocks[bid] = items
        memory_items = frozenset(self._bootstrap) | recent_snap.memory_items
        hhat = self._hhat
        h = self.h

        def address(key: int) -> int | None:
            # The one-I/O guess is the Ĥ bucket: correct for the 1−1/β
            # majority; recent items on disk are in the slow zone.
            if not hhat:
                return None
            return hhat[int(h.hash(key)) % len(hhat)].primary

        return LayoutSnapshot(
            memory_items=memory_items,
            blocks=blocks,
            address=address,
            address_description_words=self.memory_words(),
        )

    def check_invariants(self) -> None:
        if self._bootstrapping:
            assert len(self._bootstrap) == self._size
            return
        # Ĥ integrity.
        stored = 0
        for idx, bkt in enumerate(self._hhat):
            assert bkt.primary == self._hhat[0].primary + idx  # addressing
            items = bkt.peek_all()
            stored += len(items)
            for x in items:
                assert int(self.h.hash(x)) % len(self._hhat) == idx
        assert stored == self._hhat_count
        # The ≤ 1/β staleness invariant, with slack for the current
        # partially-accumulated chunk at small sizes.
        assert self._size - self._hhat_count <= max(
            self._chunk_size(), self._size / self.beta + self._chunk_size()
        )
        self._recent.check_invariants()
        assert stored + len(self._recent) == self._size
