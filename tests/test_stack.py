from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casplit import stack as stack_module
from casplit.core import make_rng
from casplit.stack import CountStack, Fold

from reference import ProtocolStack, fold_reference


def test_ingest_burst():
    stack = ProtocolStack(n_scc=1)
    stack.pdcp_ingest(100)
    assert stack.pdcp_depth == 100
    assert stack.tail - stack.head == 100


def test_ingest_zero_noop():
    stack = ProtocolStack(n_scc=1)
    stack.pdcp_ingest(0)
    assert stack.pdcp_depth == 0


def test_ingest_per_slot_additive():
    stack = ProtocolStack(n_scc=1)
    for _ in range(10):
        stack.pdcp_ingest(5)
    assert stack.tail == 50


def test_dispatch_head_of_line_to_pcc():
    stack = ProtocolStack(n_scc=3)
    stack.pdcp_ingest(5)
    moved = stack.pdcp_dispatch(1, 0, slot=0)
    assert moved[0] == [0]
    assert stack.head == 1
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
    with pytest.raises(AssertionError, match="duplicate delivery of seq 7"):
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
        cur = (stack.head, stack.tail, tuple(stack.out_counts), stack.ue.count)
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
    numbers forgotten: every phase agrees on every count, slot by slot, and
    so does a count-level stack driven by the fused ``step``."""
    n_car = 1 + n_scc
    preseed = (data.draw(st.lists(st.integers(0, 4), min_size=n_car, max_size=n_car))
               if preseeded else None)
    ref = ProtocolStack(n_scc, d_xn, preseed)
    fast = CountStack(n_scc, d_xn, preseed)
    fused = CountStack(n_scc, d_xn, preseed)
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
        assert fast.ue_receive(served) == ref.ue_receive(served_ref) == fast.received
        assert fast.rlc_occupancy() == ref.rlc_occupancy()
        assert fast.xn_inflight() == ref.xn_inflight()
        assert fast.out_counts == ref.out_counts
        assert fast.pdcp_depth == ref.pdcp_depth
        assert (fast.total_ingested, fast.delivered) == (ref.total_ingested, ref.ue.count)
        assert fused.step(t, arrivals, a_p, a_s, caps) == served
        assert fused.received == sum(served)
        assert fused.snapshot() == fast.snapshot()
        assert fused.out_counts == fast.out_counts
        assert (fused.total_ingested, fused.delivered) == (fast.total_ingested, fast.delivered)


def test_step_refuses_negative_arrivals():
    with pytest.raises(ValueError, match="arrivals must be non-negative"):
        CountStack(n_scc=1).step(0, -1, 1, 1, [1, 1])


def _warm_stacks(data, n_scc, d_xn, t0, n_stacks=2):
    """``n_stacks`` equal stacks at slot ``t0``: a preseed, a PDCP depth
    set directly and up to ``min(t0, 4)`` stepped slots of random actions,
    arrivals and capacities before ``t0``, which leave packets on the Xn
    link when ``d_xn`` > 0."""
    n_car = 1 + n_scc
    preseed = data.draw(st.lists(st.integers(0, 6), min_size=n_car, max_size=n_car))
    stacks = [CountStack(n_scc, d_xn, preseed) for _ in range(n_stacks)]
    depth = data.draw(st.integers(0, 5))
    warm = data.draw(st.integers(0, min(t0, 4)))
    steps = [(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 1)),
              data.draw(st.integers(0, 1)),
              data.draw(st.lists(st.integers(0, 3), min_size=n_car, max_size=n_car)))
             for _ in range(warm)]
    for stack in stacks:
        stack.pdcp_depth = depth
        for t, (arrivals, a_p, a_s, caps) in enumerate(steps, t0 - warm):
            stack.step(t, arrivals, a_p, a_s, caps)
    return stacks


def _schedule(data, n_car, n, max_arrivals=4):
    """A random schedule of ``n`` slots: actions, arrivals and capacities."""
    a_p = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.int8)
    a_s = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), np.int8)
    arrivals = np.array(data.draw(st.lists(st.integers(0, max_arrivals), min_size=n,
                                           max_size=n)), np.int64)
    caps = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                       min_size=n_car, max_size=n_car)), np.int64)
    return a_p, a_s, arrivals, caps


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 13),
       st.sampled_from([0, 2048]))
def test_fold_and_commit_match_step_from_any_slot(data, n_scc, d_xn, t0, all_slots):
    """A fixed schedule folded from slot ``t0`` on, from a state with
    packets on the Xn link or none, and any prefix of it committed, equals
    ``step`` over the same slots: served counts per carrier, end-of-slot
    counts, the buffer difference at every slot edge (before each slot and
    after the last), and the whole end state, Xn ring cells included, which
    depend on the slot the fold started at.  It holds with all carriers
    folded in one pass and one at a time (``FOLD_ALL_SLOTS`` 0)."""
    n = data.draw(st.integers(1, 30))
    a_p, a_s, arrivals, caps = _schedule(data, 1 + n_scc, n)
    k = data.draw(st.integers(1, n))
    stack, ref = _warm_stacks(data, n_scc, d_xn, t0)
    with mock.patch.object(stack_module, "FOLD_ALL_SLOTS", all_slots):
        fold = stack.fold(caps, a_p, a_s, arrivals, t0=t0, keep_occupancy=True)
    for t in range(n):
        assert fold.b[t] == ref.buffer_difference()
        served = ref.step(t0 + t, int(arrivals[t]), int(a_p[t]), int(a_s[t]),
                          caps[:, t].tolist())
        assert fold.served[:, t].tolist() == served and fold.delivered[t] == sum(served)
        assert fold.occupancy[:, t].tolist() == ref.rlc
        if t == k - 1:
            want = (ref.snapshot(), list(ref.out_counts), ref.total_ingested, ref.delivered)
    assert fold.final_rlc == ref.rlc
    assert len(fold.b) == n + 1 and fold.b[n] == ref.buffer_difference()
    stack.commit(fold, k)
    assert (stack.snapshot(), stack.out_counts, stack.total_ingested, stack.delivered) == want


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 13),
       st.sampled_from([0, 7, 2048]), st.booleans())
def test_fold_matches_per_carrier_reference(data, n_scc, d_xn, t0, all_slots, keep_occupancy):
    """``_fold``, all carriers in one pass over windows of at most
    ``FOLD_ALL_SLOTS`` slots and one at a time over longer ones, fills in
    the same deliveries, buffer differences, occupancies and final counts
    as the per-carrier reference, from states with packets on the Xn link
    or none.  It derives no served counts until they are read; read, they
    are the reference's, wherever the fold keeps its slot-edge counts: over
    a short window, or with the occupancies."""
    n = data.draw(st.integers(1, 40))
    a_p, a_s, arrivals, caps = _schedule(data, 1 + n_scc, n)
    stack, = _warm_stacks(data, n_scc, d_xn, t0, n_stacks=1)
    with mock.patch.object(stack_module, "FOLD_ALL_SLOTS", all_slots):
        got = stack.fold(caps, a_p, a_s, arrivals, t0=t0, keep_occupancy=keep_occupancy)
    want = fold_reference(stack, Fold(t0, got.caps, got.arrivals, got.pcc, got.scc),
                          keep_occupancy, keep_served=True)
    for name in ("delivered", "b", "occupancy"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    assert got.final_rlc == want.final_rlc
    assert "served" not in vars(got)  # no carriers-by-slots array built unread
    if n <= all_slots or keep_occupancy:
        assert np.array_equal(got.served, want.served)
    else:
        assert got.counts is None


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 13),
       st.integers(0, 1), st.integers(0, 1), st.integers(0, 6))
def test_fold_repeat_matches_fold(data, n_scc, d_xn, t0, a_p, a_s, arrivals):
    """A window of one action repeated with the same arrivals each slot,
    folded by ``fold_repeat``, equals ``fold`` over the constant schedule:
    the dispatches, the SCC inflow, every per-slot result, the served
    counts derived from it, also against the per-carrier reference, and,
    after a committed prefix, the whole end state."""
    n = data.draw(st.integers(1, 40))
    caps = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                       min_size=1 + n_scc, max_size=1 + n_scc)), np.int64)
    stack, ref = _warm_stacks(data, n_scc, d_xn, t0)
    stack.pdcp_depth = ref.pdcp_depth = stack.pdcp_depth + data.draw(st.integers(0, 40))
    got = stack.fold_repeat(caps, a_p, a_s, arrivals, t0)
    want = ref.fold(caps, np.full(n, a_p, np.int8), np.full(n, a_s, np.int8),
                    np.full(n, arrivals, np.int64), t0=t0, keep_occupancy=True)
    assert "served" not in vars(got)
    for name in ("pcc", "scc", "scc_in", "arrivals", "delivered", "b", "occupancy", "served"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert got.final_rlc == want.final_rlc
    per_carrier = fold_reference(stack, Fold(t0, caps, got.arrivals, got.pcc, got.scc), True,
                                 keep_served=True)
    assert got.served.tolist() == per_carrier.served.tolist()
    k = data.draw(st.integers(1, n))
    stack.commit(got, k)
    ref.commit(want, k)
    assert (stack.snapshot(), stack.out_counts, stack.total_ingested, stack.delivered) == \
        (ref.snapshot(), ref.out_counts, ref.total_ingested, ref.delivered)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 4), max_size=60), st.sampled_from([0, 2048]))
def test_commit_counts_each_sccs_packets_either_way(n_scc, fed, all_slots):
    """SCC s took a packet in each slot that fed more than s SCCs, counted
    with ``bincount`` over a short window or one pass per SCC over a long
    one."""
    scc = np.minimum(np.array(fed, np.uint8), n_scc)
    with mock.patch.object(stack_module, "FOLD_ALL_SLOTS", all_slots):
        got = stack_module._fed(scc, n_scc)
    assert got == [int(np.count_nonzero(scc > s)) for s in range(n_scc)]


def test_fold_serves_a_pdcp_depth_set_directly():
    """``fold`` reads the queues, not ``total_ingested``, so a PDCP depth set
    without ``pdcp_ingest`` (``total_ingested`` stays 0) is served as
    ``step`` serves it."""
    stack, ref = CountStack(1, 0), CountStack(1, 0)
    stack.pdcp_depth = ref.pdcp_depth = 1
    fold = stack.fold(np.array([[1], [0]], np.int64), np.array([1], np.int8),
                      np.array([0], np.int8), np.zeros(1, np.int64))
    assert fold.served[:, 0].tolist() == ref.step(0, 0, 1, 0, [1, 0]) == [1, 0]
