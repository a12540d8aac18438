import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from casplit.baselines import BwaController, ForcedController, StationaryKController
from casplit.core import make_rng
from casplit.engine import RunResult, Simulation
from casplit.fuzzy_pid import SCC_ONLY_ACTION, SplitAction
from casplit.scenario import RunMode, build_caps, build_run, default_static_scenario
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


PHASES = ("pdcp_ingest", "pdcp_dispatch", "xn_tick", "rlc_serve", "ue_receive")


def _refuse_slot_phase(*args):
    raise AssertionError("an open-loop run stepped the slot loop")


def _closed_form(**kwargs):
    """A run whose stack refuses the per-slot phases, so it must take the
    closed form."""
    sim = Simulation(**kwargs)
    for name in PHASES:
        setattr(sim.stack, name, _refuse_slot_phase)
    return sim


class _SlotLoopOnly:
    """An open-loop policy seen only through ``decide``/``observe`` (plus the
    name and spacing the trace reports): with no ``schedule`` it steps the
    slot loop, the reference the closed form is checked against."""

    def __init__(self, policy, mode=None):
        self.decide = policy.decide
        self.observe = policy.observe
        self.name = policy.name
        self.k = policy.k
        if mode is not None:  # the trace mode the engine gives forced actions
            self.mode = mode


def test_forced_scc_closed_form_by_hand():
    """One SCC, d_xn = 2, preseed [2, 1], two packets per slot.

    PCC (idle): q = 1, 0, 0, 0, 0 and serves 1, 1, 0, 0, 0.  SCC: arrivals
    0, 0, 1, 1, 1 against caps 0, 0, 0, 1, 2 give q = 1, 1, 2, 2, 1 and serve
    0, 0, 0, 1, 2.  The dispatches of slots 3 and 4 are still on Xn.
    """
    caps = np.array([[1, 1, 1, 1, 1], [0, 0, 0, 1, 2]])
    sim = _closed_form(forced_action=SCC_ONLY_ACTION, l=1, arrival_mode="per_slot",
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


def test_burst_closed_form_stops_at_completion_by_hand():
    """Burst of 5 over two SCCs, d_xn = 1, both carriers active every slot.

    Slot 0 sends 1 to the PCC and 2 onto Xn; slot 1 sends 1 to the PCC and
    the last one onto Xn for SCC 0.  All caps are 1, so slot 0 serves the
    PCC's packet, slot 1 the PCC's second and both SCCs' first, and slot 2
    SCC 0's second, completing the burst there.
    """
    caps = np.ones((3, 10), dtype=np.int64)
    sim = _closed_form(forced_action=SplitAction(1, 1), l=5, arrival_mode="burst",
                       arrival_rate=0, n_scc=2, d_xn=1, caps=caps, max_slots=10)
    result = sim.run()
    assert result.delivered.tolist() == [1, 3, 1]
    assert (result.completed, result.completion_slot, result.t_slots) == (True, 2, 3)
    assert sim.stack.snapshot() == (0, (0, 0, 0), ((0, 0), (0, 0)))
    assert sim.stack.out_counts == [2, 2, 1]


PCC_BW = {"zero": 0.0, "equal": 100.0, "70:130": 70.0}


@st.composite
def open_loop_policies(draw, n_scc):
    """(fast-side kwargs, loop-side controller) for one open-loop policy."""
    kind = draw(st.sampled_from(["bwa", "stationary_k", "forced", "forced_action"]))
    if kind == "bwa":
        pcc_bw = PCC_BW[draw(st.sampled_from(sorted(PCC_BW)))]
        scc_bw = 130.0 if pcc_bw == 70.0 else 100.0
        policy = BwaController(pcc_bw, [scc_bw / n_scc] * n_scc)
        return {"controller": policy}, _SlotLoopOnly(policy)
    if kind == "stationary_k":
        policy = StationaryKController(draw(st.integers(0, 4)))
        return {"controller": policy}, _SlotLoopOnly(policy)
    action = SplitAction(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "forced":
        policy = ForcedController(action)
        return {"controller": policy}, _SlotLoopOnly(policy)
    return {"forced_action": action}, _SlotLoopOnly(ForcedController(action), "forced")


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 120),
       st.booleans(), st.booleans(), st.booleans())
def test_open_loop_closed_form_matches_slot_loop(data, n_scc, d_xn, n_slots, burst,
                                                 stop_on_complete, collect_trace):
    """Every open-loop run (bwa, stationary_k, a forced action or controller)
    computed in closed form equals the same policy stepped through the slot
    loop, field by field, trace row by trace row, end state included."""
    fast_policy, loop_policy = data.draw(open_loop_policies(n_scc))
    n_car = 1 + n_scc
    caps = data.draw(arrays(np.int64, (n_car, n_slots), elements=st.integers(0, 4)))
    preseed = data.draw(st.none() | st.lists(st.integers(0, 6), min_size=n_car,
                                             max_size=n_car))
    kwargs = dict(l=data.draw(st.integers(1, 60)),
                  arrival_mode="burst" if burst else "per_slot",
                  arrival_rate=data.draw(st.integers(0, n_scc + 2)),  # below and above the draw
                  n_scc=n_scc, d_xn=d_xn, caps=caps, max_slots=n_slots,
                  preseed_rlc=preseed, stop_on_complete=stop_on_complete,
                  collect_trace=collect_trace)
    fast = _closed_form(**fast_policy, **kwargs)
    loop = Simulation(controller=loop_policy, **kwargs)
    got, want = fast.run(), loop.run()

    for f in dataclasses.fields(RunResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert all(type(x) is int for x in got.final_rlc + got.final_inflight + got.served)
    assert fast.stack.snapshot() == loop.stack.snapshot()
    assert fast.stack.out_counts == loop.stack.out_counts
    assert fast.stack.total_ingested == loop.stack.total_ingested
    assert fast.stack.delivered == loop.stack.delivered


@pytest.mark.parametrize("policy, closed_form", [
    ("bwa", True), ("stationary_k", True), ("forced", True), ("forced_action", True),
    ("fuzzy_pid", False), ("nofuzzy_pid", False), ("ltr", False), ("qlearning", False),
])
def test_only_open_loop_runs_skip_the_slot_loop(policy, closed_form):
    """bwa, stationary_k and forced runs call no per-slot phase, in burst and
    per-slot mode alike; the closed-loop policies step the loop."""
    for mode in ("burst", "per_slot"):
        cfg = default_static_scenario(2).copy(l=200, max_slots=300, arrival_mode=mode)
        caps = build_caps(cfg)
        kwargs = dict(l=cfg.l, arrival_mode=mode, arrival_rate=2, n_scc=2, d_xn=cfg.d_xn,
                      caps=caps, max_slots=cfg.max_slots)
        if policy == "forced_action":
            sim = Simulation(forced_action=SplitAction(1, 1), **kwargs)
        elif policy == "forced":
            sim = Simulation(controller=ForcedController(SplitAction(0, 1)), **kwargs)
        else:
            sim = build_run(cfg, RunMode.CA, caps=caps, policy=policy)
        calls = []
        for name in PHASES:
            phase = getattr(sim.stack, name)
            setattr(sim.stack, name, lambda *a, _phase=phase: calls.append(1) or _phase(*a))
        result = sim.run()
        assert result.t_slots > 0
        assert (not calls) == closed_form, (policy, mode)
