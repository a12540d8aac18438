import numpy as np

from casplit.core import make_rng
from casplit.engine import Simulation
from casplit.fuzzy_pid import SplitAction
from casplit.stack import ProtocolStack


def test_rng_streams_reproducible_and_independent():
    a = make_rng(123, "fading/pcc").random(8)
    b = make_rng(123, "fading/pcc").random(8)
    c = make_rng(123, "fading/scc1").random(8)
    d = make_rng(124, "fading/pcc").random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _saturated_caps(n_slots):
    return np.array([[2] * n_slots, [1] * n_slots])


def test_same_seed_same_trace():
    caps = _saturated_caps(50)
    runs = []
    for _ in range(2):
        sim = Simulation(l=30, arrival_mode="burst", arrival_rate=0, n_scc=1,
                         d_xn=1, caps=caps, forced_action=SplitAction(0, 1),
                         max_slots=50)
        runs.append(sim.run())
    assert np.array_equal(runs[0].delivered, runs[1].delivered)
    assert np.array_equal(runs[0].b, runs[1].b)


def test_permuting_dispatch_and_serve_changes_buffer_trace():
    """Serving before this slot's arrivals yields a different B trace on a
    saturated instance, so the phase order is load-bearing."""

    def run(serve_first: bool):
        stack = ProtocolStack(n_scc=1, d_xn=0)
        trace = []
        for t in range(10):
            trace.append(stack.buffer_difference())
            stack.pdcp_ingest(2)
            if serve_first:
                stack.ue_receive(stack.rlc_serve([1, 0]))
                stack.pdcp_dispatch(1, 0, t)
                stack.xn_tick(t)
            else:
                stack.pdcp_dispatch(1, 0, t)
                stack.xn_tick(t)
                stack.ue_receive(stack.rlc_serve([1, 0]))
        return trace

    assert run(False) != run(True)


def test_delivered_seqs_subset_and_unique():
    """Replaying the run's actions through the sequence-level stack delivers
    the same count every slot, each of the burst's packets at most once."""
    caps = _saturated_caps(100)
    result = Simulation(l=40, arrival_mode="burst", arrival_rate=0, n_scc=1,
                        d_xn=2, caps=caps, forced_action=SplitAction(1, 1),
                        max_slots=100, stop_on_complete=True).run()
    stack = ProtocolStack(n_scc=1, d_xn=2)
    stack.pdcp_ingest(40)
    for t in range(result.t_slots):
        stack.pdcp_dispatch(int(result.a_p[t]), int(result.a_s[t]), t)
        stack.xn_tick(t)
        assert stack.ue_receive(stack.rlc_serve(caps[:, t])) == result.delivered[t]
    received = stack.ue.received
    assert received <= set(range(40))
    assert len(received) == stack.ue.count == result.total_delivered
