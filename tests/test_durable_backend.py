"""DurableArenaBackend: memmap persistence, flush/open, pickling.

The generic backend contract (bit-identical accounting, layouts, stats
across backends) is enforced for ``durable-arena`` by the registry
fixture in ``tests/test_em_backends.py``; this file covers what is new:
the on-disk lifecycle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.em import BACKENDS, Block, Disk, DurableArenaBackend, make_backend


class TestLifecycle:
    def test_registered(self):
        assert BACKENDS["durable-arena"] is DurableArenaBackend
        be = make_backend("durable-arena", 16, 1)
        assert isinstance(be, DurableArenaBackend)

    def test_flush_open_round_trip(self, tmp_path):
        be = DurableArenaBackend(16, path=tmp_path / "store")
        for bid in range(40):
            be.create(bid)
            be.append(bid, [bid * 10 + j for j in range(bid % 5)])
        be.delete(7)
        be.flush()
        re = DurableArenaBackend.open(tmp_path / "store")
        assert re.count() == be.count()
        assert 7 not in re
        for bid in range(40):
            if bid == 7:
                continue
            assert re.records(bid) == be.records(bid)
        assert re.words_stored() == be.words_stored()

    def test_open_preserves_free_list_reuse(self, tmp_path):
        be = DurableArenaBackend(8, path=tmp_path / "store")
        be.create(1)
        be.append(1, [11, 12])
        be.delete(1)
        be.flush()
        re = DurableArenaBackend.open(tmp_path / "store")
        re.create(2)
        re.append(2, [99])
        assert re.records(2) == [99]
        assert re.count() == 1

    def test_growth_persists(self, tmp_path):
        be = DurableArenaBackend(4, path=tmp_path / "store", initial_slots=2)
        for bid in range(100):  # forces several _grow remaps
            be.create(bid)
            be.append(bid, [bid])
        be.flush()
        re = DurableArenaBackend.open(tmp_path / "store")
        assert re.count() == 100
        assert all(re.records(bid) == [bid] for bid in range(100))

    def test_anonymous_backend_gets_temp_dir(self):
        be = DurableArenaBackend(8)
        be.create(0)
        be.append(0, [5])
        assert be.path.exists()
        assert be.records(0) == [5]


class TestPickling:
    def test_pickle_round_trip_rehomes(self, tmp_path):
        be = DurableArenaBackend(16, path=tmp_path / "store")
        for bid in range(10):
            be.create(bid)
            be.append(bid, list(range(bid)))
        clone = pickle.loads(pickle.dumps(be))
        assert clone.path != be.path  # re-homed, never shares live files
        for bid in range(10):
            assert clone.records(bid) == be.records(bid)
        # Divergence after the copy: the clone is fully independent.
        clone.append(3, [999])
        assert be.records(3) != clone.records(3)


class TestUnderDisk:
    def test_disk_modify_cycle(self):
        disk = Disk(8, backend="durable-arena")
        bid = disk.allocate()
        disk.write(bid, Block(8, data=[41]))
        with disk.modify(bid) as blk:
            blk.append(42)
        assert disk.read(bid).records() == [41, 42]
        assert disk.stats.reads >= 1 and disk.stats.writes >= 1

    def test_accounting_matches_arena(self):
        totals = {}
        for backend in ("arena", "durable-arena"):
            disk = Disk(8, backend=backend)
            ids = [disk.allocate() for _ in range(20)]
            for i, bid in enumerate(ids):
                disk.write(bid, Block(8, data=[i]))
            for bid in ids[::2]:
                with disk.modify(bid) as blk:
                    blk.append(100)
            totals[backend] = (
                disk.stats.reads,
                disk.stats.writes,
                disk.stats.combined,
                disk.stats.allocations,
            )
        assert totals["arena"] == totals["durable-arena"]
