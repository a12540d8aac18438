import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from casplit.baselines import ForcedController
from casplit.core import make_rng
from casplit.engine import Simulation
from casplit.fuzzy_pid import PCC_ONLY_ACTION, SCC_ONLY_ACTION, SplitAction
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


def _refuse_slot_phase(*args):
    raise AssertionError("a saturated forced run stepped the slot loop")


def _saturated_forced(action, **kwargs):
    """Forced run whose stack refuses the per-slot phases, so it must take
    the closed form."""
    sim = Simulation(forced_action=action, **kwargs)
    sim.stack.rlc_serve = _refuse_slot_phase
    return sim


def test_forced_scc_closed_form_by_hand():
    """One SCC, d_xn = 2, preseed [2, 1], two packets per slot.

    PCC (idle): q = 1, 0, 0, 0, 0 and serves 1, 1, 0, 0, 0.  SCC: arrivals
    0, 0, 1, 1, 1 against caps 0, 0, 0, 1, 2 give q = 1, 1, 2, 2, 1 and serve
    0, 0, 0, 1, 2.  The dispatches of slots 3 and 4 are still on Xn.
    """
    caps = np.array([[1, 1, 1, 1, 1], [0, 0, 0, 1, 2]])
    sim = _saturated_forced(SCC_ONLY_ACTION, l=1, arrival_mode="per_slot",
                            arrival_rate=2, n_scc=1, d_xn=2, caps=caps, max_slots=5,
                            preseed_rlc=[2, 1], collect_trace=True)
    result = sim.run()
    assert result.delivered.tolist() == [1, 1, 0, 1, 2]
    assert result.b.tolist() == [1, 0, -1, -2, -2]
    assert result.a_p.tolist() == [0] * 5 and result.a_s.tolist() == [1] * 5
    assert [occ for occ, *_ in result.trace_extra] == [(1, 1), (0, 1), (0, 2), (0, 2), (0, 1)]
    assert result.trace_extra[0][1:] == ((1, 0), (0.0, 0.0, 0.0), 0.0, 0, "forced")
    assert (result.final_rlc, result.final_inflight, result.served) == ([0, 1], [2], [2, 3])
    assert result.total_delivered == 5 and not result.completed
    # Xn ring rows: slot 3 lands in row (3 + 2) % 3, slot 4 in row (4 + 2) % 3.
    assert sim.stack.snapshot() == (5, (0, 1), ((1,), (0,), (1,)))
    assert sim.stack.out_counts == [2, 6]
    assert (sim.stack.total_ingested, sim.stack.delivered) == (13, 5)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.booleans(),
       st.integers(0, 3), st.integers(1, 200), st.booleans())
def test_saturated_forced_closed_form_matches_slot_loop(data, n_scc, d_xn, to_pcc,
                                                        extra_rate, n_slots, preseeded):
    """A forced single-carrier run under saturating per-slot arrivals (closed
    form) equals a controller repeating the same action (the slot loop)."""
    action = PCC_ONLY_ACTION if to_pcc else SCC_ONLY_ACTION
    n_car = 1 + n_scc
    caps = data.draw(arrays(np.int64, (n_car, n_slots), elements=st.integers(0, 4)))
    preseed = (data.draw(st.lists(st.integers(0, 6), min_size=n_car, max_size=n_car))
               if preseeded else None)
    kwargs = dict(l=1, arrival_mode="per_slot",
                  arrival_rate=(1 if to_pcc else n_scc) + extra_rate, n_scc=n_scc,
                  d_xn=d_xn, caps=caps, max_slots=n_slots, preseed_rlc=preseed,
                  collect_trace=True)
    fast = _saturated_forced(action, **kwargs)
    loop = Simulation(controller=ForcedController(action), **kwargs)
    got, want = fast.run(), loop.run()

    for name in ("delivered", "b", "a_p", "a_s"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("t_slots", "completed", "completion_slot", "total_delivered",
                 "final_rlc", "final_inflight", "served"):
        assert getattr(got, name) == getattr(want, name), name
    assert all(type(x) is int for x in got.final_rlc + got.final_inflight + got.served)
    assert [e[:2] for e in got.trace_extra] == [e[:2] for e in want.trace_extra]
    assert {e[2:] for e in got.trace_extra} == {((0.0, 0.0, 0.0), 0.0, 0, "forced")}
    assert fast.stack.snapshot() == loop.stack.snapshot()
    assert fast.stack.out_counts == loop.stack.out_counts
    assert fast.stack.total_ingested == loop.stack.total_ingested
    assert fast.stack.delivered == loop.stack.delivered


@pytest.mark.parametrize("action, arrival_mode, rate", [
    (SCC_ONLY_ACTION, "per_slot", 2),  # below the three-SCC draw
    (PCC_ONLY_ACTION, "burst", 5),  # the rate is unused in burst mode
    (SplitAction(1, 1), "per_slot", 5),
])
def test_unsaturated_forced_runs_step_the_loop(action, arrival_mode, rate):
    caps = np.array([[2] * 40] + [[1, 0] * 20] * 3)
    kwargs = dict(l=30, arrival_mode=arrival_mode, arrival_rate=rate, n_scc=3, d_xn=1,
                  caps=caps, max_slots=40, stop_on_complete=False)
    forced = Simulation(forced_action=action, **kwargs).run()
    looped = Simulation(controller=ForcedController(action), **kwargs).run()
    assert np.array_equal(forced.delivered, looped.delivered)
    assert np.array_equal(forced.b, looped.b)
    assert forced.served == looped.served
