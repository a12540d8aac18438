import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casplit.core import make_rng
from casplit.stack import CountStack, ProtocolStack, StackError


def test_ingest_burst():
    stack = ProtocolStack(n_scc=1)
    stack.pdcp_ingest(100)
    s = stack.pdcp_state()
    assert stack.pdcp_depth == 100
    assert s.n_max - s.n_min == 100


def test_ingest_zero_noop():
    stack = ProtocolStack(n_scc=1)
    stack.pdcp_ingest(0)
    assert stack.pdcp_depth == 0


def test_ingest_per_slot_additive():
    stack = ProtocolStack(n_scc=1)
    for _ in range(10):
        stack.pdcp_ingest(5)
    assert stack.pdcp_state().n_max == 50


def test_dispatch_head_of_line_to_pcc():
    stack = ProtocolStack(n_scc=3)
    stack.pdcp_ingest(5)
    moved = stack.pdcp_dispatch(1, 0, slot=0)
    assert moved[0] == [0]
    assert stack.pdcp_state().n_min == 1
    assert list(stack.rlc[0]) == [0]


def test_dispatch_scc_group_index_order():
    stack = ProtocolStack(n_scc=3, d_xn=0)
    stack.pdcp_ingest(5)
    moved = stack.pdcp_dispatch(0, 1, slot=0)
    assert moved[1:] == [[0], [1], [2]]


def test_dispatch_exhaustion():
    stack = ProtocolStack(n_scc=3, d_xn=0)
    stack.pdcp_ingest(1)
    moved = stack.pdcp_dispatch(0, 1, slot=0)
    assert moved[1:] == [[0], [], []]


def test_dispatch_empty_queue_is_silent():
    stack = ProtocolStack(n_scc=2)
    moved = stack.pdcp_dispatch(1, 1, slot=0)
    assert all(not m for m in moved)


def test_xn_delay_two_slots():
    stack = ProtocolStack(n_scc=1, d_xn=2)
    stack.pdcp_ingest(1)
    stack.pdcp_dispatch(0, 1, slot=5)
    for t in (5, 6):
        stack.xn_tick(t)
        assert len(stack.rlc[1]) == 0
    stack.xn_tick(7)
    assert list(stack.rlc[1]) == [0]


def test_xn_zero_delay_same_slot():
    stack = ProtocolStack(n_scc=1, d_xn=0)
    stack.pdcp_ingest(1)
    stack.pdcp_dispatch(0, 1, slot=3)
    stack.xn_tick(3)
    assert list(stack.rlc[1]) == [0]


def test_xn_fifo_order():
    stack = ProtocolStack(n_scc=1, d_xn=2)
    stack.pdcp_ingest(2)
    stack.pdcp_dispatch(0, 1, slot=5)
    stack.pdcp_dispatch(0, 1, slot=6)
    stack.xn_tick(7)
    assert list(stack.rlc[1]) == [0]
    stack.xn_tick(8)
    assert list(stack.rlc[1]) == [0, 1]


def test_serve_min_rule():
    stack = ProtocolStack(n_scc=1, preseed_rlc=[5, 0])
    served = stack.rlc_serve([2, 0])
    assert len(served[0]) == 2 and len(stack.rlc[0]) == 3


def test_serve_starvation():
    stack = ProtocolStack(n_scc=1, preseed_rlc=[1, 0])
    served = stack.rlc_serve([2, 0])
    assert len(served[0]) == 1


def test_serve_outage():
    stack = ProtocolStack(n_scc=1, preseed_rlc=[4, 0])
    served = stack.rlc_serve([0, 0])
    assert served[0] == [] and len(stack.rlc[0]) == 4


def test_ue_receive_sums_carriers():
    stack = ProtocolStack(n_scc=3, preseed_rlc=[2, 1, 1, 1])
    served = stack.rlc_serve([2, 1, 1, 1])
    assert stack.ue_receive(served) == 5
    assert stack.ue_receive([[], [], [], []]) == 0


def test_ue_duplicate_is_hard_failure():
    stack = ProtocolStack(n_scc=1)
    with pytest.raises(StackError):
        stack.ue_receive([[7], [7]])


def test_buffer_difference_examples():
    s1 = ProtocolStack(n_scc=3, preseed_rlc=[4, 1, 1, 2])
    assert s1.buffer_difference() == 0
    s2 = ProtocolStack(n_scc=2, preseed_rlc=[7, 0, 0])
    assert s2.buffer_difference() == 7
    s3 = ProtocolStack(n_scc=3, preseed_rlc=[0, 3, 3, 3])
    assert s3.buffer_difference() == -9


def test_buffer_difference_excludes_inflight():
    stack = ProtocolStack(n_scc=1, d_xn=3)
    stack.pdcp_ingest(4)
    stack.pdcp_dispatch(0, 1, slot=0)
    assert stack.buffer_difference() == 0  # packet still in flight


def _random_walk(stack, n_slots, seed, max_cap=2):
    rng = make_rng(seed, "stack-walk")
    for t in range(n_slots):
        stack.pdcp_ingest(int(rng.integers(0, 4)))
        stack.pdcp_dispatch(int(rng.integers(0, 2)), int(rng.integers(0, 2)), t)
        stack.xn_tick(t)
        caps = rng.integers(0, max_cap + 1, size=stack.n_carriers)
        stack.ue_receive(stack.rlc_serve(caps))


def test_conservation_and_disjointness_long_random_run():
    stack = ProtocolStack(n_scc=3, d_xn=2)
    _random_walk(stack, 10_000, seed=99)
    assert stack.conservation_ok()


def test_monotone_counters():
    stack = ProtocolStack(n_scc=2, d_xn=1)
    rng = make_rng(5, "mono")
    last = (0, 0, (0, 0, 0), 0)
    for t in range(500):
        stack.pdcp_ingest(int(rng.integers(0, 3)))
        stack.pdcp_dispatch(int(rng.integers(0, 2)), int(rng.integers(0, 2)), t)
        stack.xn_tick(t)
        stack.ue_receive(stack.rlc_serve(rng.integers(0, 3, size=3)))
        s = stack.pdcp_state()
        cur = (s.n_min, s.n_max, s.out_counts, stack.ue.count)
        assert cur[0] >= last[0] and cur[1] >= last[1] and cur[3] >= last[3]
        assert all(a >= b for a, b in zip(cur[2], last[2]))
        last = cur


def test_zero_capacity_everywhere():
    stack = ProtocolStack(n_scc=2, d_xn=0)
    occupancies = [0]
    for t in range(50):
        stack.pdcp_ingest(2)
        stack.pdcp_dispatch(1, 1, t)
        stack.xn_tick(t)
        stack.ue_receive(stack.rlc_serve([0, 0, 0]))
        occ = sum(stack.rlc_occupancy())
        assert occ >= occupancies[-1]
        occupancies.append(occ)
    assert stack.ue.count == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 3))
def test_conservation_property(seed, d_xn):
    stack = ProtocolStack(n_scc=2, d_xn=d_xn)
    _random_walk(stack, 300, seed=seed)
    assert stack.conservation_ok()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.booleans())
def test_count_stack_matches_protocol_stack(data, n_scc, d_xn, preseeded):
    """The count-level stack is the sequence-level stack with the sequence
    numbers forgotten: every phase agrees on every count, slot by slot."""
    n_car = 1 + n_scc
    preseed = (data.draw(st.lists(st.integers(0, 4), min_size=n_car, max_size=n_car))
               if preseeded else None)
    ref = ProtocolStack(n_scc, d_xn, preseed)
    fast = CountStack(n_scc, d_xn, preseed)
    for t in range(data.draw(st.integers(1, 40))):
        assert fast.buffer_difference() == ref.buffer_difference()
        arrivals = data.draw(st.integers(0, 4))
        ref.pdcp_ingest(arrivals)
        fast.pdcp_ingest(arrivals)
        a_p, a_s = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
        ref.pdcp_dispatch(a_p, a_s, t)
        fast.pdcp_dispatch(a_p, a_s, t)
        ref.xn_tick(t)
        fast.xn_tick(t)
        caps = data.draw(st.lists(st.integers(0, 3), min_size=n_car, max_size=n_car))
        served_ref = ref.rlc_serve(caps)
        served = fast.rlc_serve(caps)
        assert served == [len(x) for x in served_ref]
        assert fast.ue_receive(served) == ref.ue_receive(served_ref)
        assert fast.rlc_occupancy() == ref.rlc_occupancy()
        assert fast.xn_inflight() == ref.xn_inflight()
        assert fast.out_counts == ref.out_counts
        assert fast.pdcp_depth == ref.pdcp_depth
        assert (fast.total_ingested, fast.delivered) == (ref.total_ingested, ref.ue.count)
