"""Unit tests for I/O accounting and the footnote-2 policy."""

import random

import numpy as np
import pytest

from repro.em import IOPolicy, IOStats, PAPER_POLICY, STRICT_POLICY


class TestBasicCounting:
    def test_reads_and_writes_counted(self):
        st = IOStats(policy=STRICT_POLICY)
        st.record_read(1)
        st.record_write(1)
        st.record_write(2)
        assert st.reads == 1
        assert st.writes == 2
        assert st.total == 3

    def test_reset(self):
        st = IOStats()
        st.record_read(0)
        st.record_write(0)
        st.reset()
        assert st.total == 0
        assert st.combined == 0


class TestFootnote2Combining:
    def test_rmw_same_block_costs_one(self):
        st = IOStats(policy=PAPER_POLICY)
        st.record_read(7)
        st.record_write(7)
        assert st.total == 1
        assert st.combined == 1

    def test_rmw_different_block_not_combined(self):
        st = IOStats(policy=PAPER_POLICY)
        st.record_read(7)
        st.record_write(8)
        assert st.total == 2
        assert st.combined == 0

    def test_intervening_read_breaks_combining(self):
        st = IOStats(policy=PAPER_POLICY)
        st.record_read(7)
        st.record_read(9)
        st.record_write(7)
        assert st.writes == 1  # the write of 7 is charged

    def test_combining_is_one_shot(self):
        """Only the *immediately following* write is free."""
        st = IOStats(policy=PAPER_POLICY)
        st.record_read(7)
        st.record_write(7)  # combined
        st.record_write(7)  # charged: the pending read was consumed
        assert st.writes == 1
        assert st.combined == 1

    def test_strict_policy_never_combines(self):
        st = IOStats(policy=STRICT_POLICY)
        st.record_read(7)
        st.record_write(7)
        assert st.total == 2

    def test_invalidate_rmw(self):
        st = IOStats(policy=PAPER_POLICY)
        st.record_read(7)
        st.invalidate_rmw()
        st.record_write(7)
        assert st.writes == 1

    def test_raw_total_includes_combined(self):
        st = IOStats(policy=PAPER_POLICY)
        st.record_read(7)
        st.record_write(7)
        assert st.raw_total == 2
        assert st.total == 1


class TestAllocationCharging:
    def test_fresh_write_charged_by_default(self):
        st = IOStats()
        st.record_write(3, fresh=True)
        assert st.writes == 1
        assert st.allocations == 1

    def test_fresh_write_free_when_policy_says(self):
        st = IOStats(policy=IOPolicy(charge_allocation=False))
        st.record_write(3, fresh=True)
        assert st.writes == 0
        assert st.allocations == 1


#: Every combination of the two policy switches.
POLICIES = [
    IOPolicy(combine_rmw=c, charge_allocation=a) for c in (True, False)
    for a in (True, False)
]


@pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
@pytest.mark.parametrize("read", [True, False])
@pytest.mark.parametrize("policy", POLICIES, ids=repr)
def test_record_sweep_equals_the_per_block_loop(policy, read, arrays):
    """The O(1) sweep charge ends where record_read/record_write block by
    block do: counters and pending block, whatever was pending before.
    The masks may be lists or numpy arrays (a delete walk's hit mask)."""
    rnd = random.Random(5)
    for _ in range(300):
        n = rnd.randrange(1, 6)
        ids = [rnd.randrange(4) for _ in range(n)]
        if read:
            written = [rnd.random() < 0.6 for _ in ids]
            fresh = [w and rnd.random() < 0.3 for w in written]
        else:
            written = None
            fresh = [rnd.random() < 0.5 for _ in ids]
        pending = rnd.choice([None, *range(4)])
        loop, bulk = IOStats(policy=policy), IOStats(policy=policy)
        for stats in (loop, bulk):
            if pending is not None:
                stats.record_read(pending)
        for i, bid in enumerate(ids):
            if read:
                loop.record_read(bid)
            if written is None or written[i]:
                loop.record_write(bid, fresh=fresh[i])
        if arrays:
            ids, fresh = np.array(ids), np.array(fresh)
            written = None if written is None else np.array(written)
        bulk.record_sweep(ids, written, fresh, read=read)
        assert bulk.snapshot() == loop.snapshot(), (ids, written, fresh, pending)
        assert bulk._last_read_block == loop._last_read_block


class TestSnapshots:
    def test_delta_since(self):
        st = IOStats()
        st.record_read(0)
        snap = st.snapshot()
        st.record_read(1)
        st.record_write(2)
        delta = st.delta_since(snap)
        assert delta.reads == 1
        assert delta.writes == 1
        assert delta.total == 2

    def test_measure_context_manager(self):
        st = IOStats()
        with st.measure() as cost:
            st.record_read(0)
            st.record_read(1)
        assert cost.total == 2
        assert cost.reads == 2

    def test_snapshot_subtraction(self):
        st = IOStats()
        st.record_read(0)
        a = st.snapshot()
        st.record_write(1)
        b = st.snapshot()
        d = b - a
        assert d.reads == 0
        assert d.writes == 1

    def test_with_policy_builds_fresh_counters(self):
        st = IOStats(policy=PAPER_POLICY)
        st.record_read(0)
        st2 = st.with_policy(combine_rmw=False)
        assert st2.total == 0
        assert st2.policy.combine_rmw is False
        assert st.policy.combine_rmw is True


def test_paper_policy_constants():
    assert PAPER_POLICY.combine_rmw is True
    assert STRICT_POLICY.combine_rmw is False
