import dataclasses
import functools
import pickle
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import casplit
from casplit import baselines, engine, trace
from casplit.baselines import (BwaController, ForcedController, LtrController, QLearningController,
                               QTable, StationaryKController)
from casplit.core import make_rng
from casplit.engine import RunResult, Simulation
from casplit.experiments import ETA_POLICIES, ExperimentSpec, run_experiment
from casplit.fuzzy_pid import (PCC_ONLY_ACTION, SCC_ONLY_ACTION, Controller, FuzzyPidController,
                               NoFuzzyController, SplitAction)
from casplit.oracle import ScriptedController
from casplit.scenario import (RunMode, build_caps, build_run, default_mobile_scenario,
                              default_static_scenario, make_controller)
from casplit.stack import CountStack, Fold

from reference import ProtocolStack, fold_reference, write_trace_reference


def test_rng_streams_reproducible_and_independent():
    a = make_rng(123, "fading/pcc").random(8)
    b = make_rng(123, "fading/pcc").random(8)
    c = make_rng(123, "fading/scc1").random(8)
    d = make_rng(124, "fading/pcc").random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_public_names_resolve():
    """Every name in ``casplit.__all__`` is an attribute of the package, so
    ``from casplit import *`` cannot fail on a stale entry."""
    assert [n for n in casplit.__all__ if not hasattr(casplit, n)] == []


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
    """A run whose stack refuses ``step`` and the per-slot phases, so it must
    take the closed form."""
    sim = Simulation(**kwargs)
    for name in PHASES + ("step",):
        setattr(sim.stack, name, _refuse_slot_phase)
    return sim


class _SlotLoopOnly(Controller):
    """An open-loop policy seen only through the ``Controller`` interface:
    with no ``schedule`` it steps the slot loop, the reference the closed
    form is checked against."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name

    def decide(self, t, b):
        return self.policy.decide(t, b)

    def observe(self, *feedback):
        self.policy.observe(*feedback)

    def trace_state(self):
        return self.policy.trace_state()


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
    rows = _trace_rows(result)
    assert [occ for occ, *_ in rows] == [(1, 1), (0, 1), (0, 2), (0, 2), (0, 1)]
    assert rows[0][1:] == ((1, 0), (0.0, 0.0, 0.0), 0.0, 0, "forced")
    assert result.capacity.base is caps  # a slice, not a copy
    assert [col.strides for col in result.state] == [(0,)] * 6  # one state, no storage
    assert (result.final_rlc, result.final_inflight, result.served) == ([0, 1], [2], [2, 3])
    assert result.total_delivered == 5 and not result.completed
    # Xn ring cells: slot 3 feeds cell (3 + 2) % 3, slot 4 cell (4 + 2) % 3.
    assert sim.stack.snapshot() == (5, (0, 1), (1, 0, 1))
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
    assert sim.stack.snapshot() == (0, (0, 0, 0), (0, 0))
    assert sim.stack.out_counts == [2, 2, 1]


@pytest.mark.parametrize("collect_trace", [False, True])
@pytest.mark.parametrize("stop_on_complete", [False, True])
@pytest.mark.parametrize("l, completion", [(2, 0), (10, 4), (11, None)],
                         ids=["first-slot", "last-slot", "never"])
def test_closed_form_cuts_a_burst_where_the_loop_completes(l, completion, stop_on_complete,
                                                           collect_trace):
    """Two packets a slot over five slots: a burst that completes on slot 0,
    on the horizon's last slot or never.  The closed form equals the slot
    loop, and it folds the run a second time only to end it at a completion
    before the last slot."""
    caps = np.ones((2, 5), dtype=np.int64)
    policy = ForcedController(SplitAction(1, 1))
    kwargs = dict(l=l, arrival_mode="burst", arrival_rate=0, n_scc=1, d_xn=0, caps=caps,
                  max_slots=5, stop_on_complete=stop_on_complete, collect_trace=collect_trace)
    fast = _closed_form(controller=policy, **kwargs)
    folds = []
    fold = fast.stack.fold

    def counted(*args, **kw):
        folds.append(None)
        return fold(*args, **kw)
    fast.stack.fold = counted
    loop = Simulation(controller=_SlotLoopOnly(policy), **kwargs)
    got = fast.run()
    _assert_same_run(fast, got, loop, loop.run())
    assert got.completion_slot == completion
    assert len(folds) == (2 if stop_on_complete and completion == 0 else 1)


@pytest.mark.parametrize("policy", ["forced", "bwa", "fuzzy_pid"])
@pytest.mark.parametrize("mode", ["burst", "per_slot"])
def test_a_run_checks_capacities_then_arrivals_over_its_horizon(policy, mode):
    """Negative capacities with a negative burst or rate raise the capacity
    message on the closed form and the loop alike; with ``max_slots`` 0
    neither is read, and the run is empty."""
    kwargs = dict(**_policy(policy, 1, 0, 4, [SplitAction(1, 1)]), arrival_mode=mode,
                  l=-3, arrival_rate=-1, n_scc=1, d_xn=0, caps=np.full((2, 5), -1))
    with pytest.raises(ValueError, match="capacity must be non-negative"):
        Simulation(max_slots=5, **kwargs).run()
    assert Simulation(max_slots=0, **kwargs).run().t_slots == 0


PCC_BW = {"zero": 0.0, "equal": 100.0, "70:130": 70.0}


@st.composite
def open_loop_policies(draw, n_scc):
    """(fast-side kwargs, loop-side controller, reference kwargs) for one
    open-loop policy.  The reference for a ``ForcedController`` is the
    forced action it plays, which the engine runs the same way."""
    kind = draw(st.sampled_from(["bwa", "stationary_k", "forced", "forced_action"]))
    if kind == "bwa":
        pcc_bw = PCC_BW[draw(st.sampled_from(sorted(PCC_BW)))]
        scc_bw = 130.0 if pcc_bw == 70.0 else 100.0
        policy = BwaController(pcc_bw, [scc_bw / n_scc] * n_scc)
        return {"controller": policy}, _SlotLoopOnly(policy), {"controller": policy}
    if kind == "stationary_k":
        policy = StationaryKController(draw(st.integers(0, 4)))
        return {"controller": policy}, _SlotLoopOnly(policy), {"controller": policy}
    action = SplitAction(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    fast = {"controller": ForcedController(action)} if kind == "forced" else \
        {"forced_action": action}
    return fast, _SlotLoopOnly(ForcedController(action)), {"forced_action": action}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 120),
       st.booleans(), st.booleans(), st.booleans())
def test_open_loop_closed_form_matches_slot_loop(data, n_scc, d_xn, n_slots, burst,
                                                 stop_on_complete, collect_trace):
    """Every open-loop run (bwa, stationary_k, a forced action or controller)
    computed in closed form equals the same policy stepped through the slot
    loop, field by field, trace column by trace column, end state included,
    and its trace columns give the per-phase reference loop's rows."""
    fast_policy, loop_policy, ref_policy = data.draw(open_loop_policies(n_scc))
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
    ref = _PhaseLoop(**ref_policy, **kwargs)
    got = fast.run()
    _assert_same_run(fast, got, loop, loop.run())
    _assert_same_run(fast, got, ref, ref.run())
    assert all(type(x) is int for x in got.final_rlc + got.final_inflight + got.served)


def _trace_rows(result: RunResult) -> list[tuple]:
    """The trace columns as the per-slot tuples ``_PhaseLoop`` records."""
    states = zip(*(col.tolist() for col in result.state))
    return [(tuple(occ), tuple(cap), (kp, ki, kd), g, k, mode)
            for occ, cap, (kp, ki, kd, g, k, mode)
            in zip(result.occupancy.T.tolist(), result.capacity.T.tolist(), states)]


def _assert_same_arrays(a, b, name):
    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


def _assert_same_run(sim, got, ref, want):
    """Equal ``RunResult``s, field by field, and equal end states.  Trace
    columns are compared by dtype and value; against a ``_PhaseLoop``, which
    keeps its trace as per-slot rows, slot by slot."""
    for f in dataclasses.fields(RunResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("occupancy", "capacity", "state_runs") and isinstance(ref, _PhaseLoop):
            assert b is None and (a is None) == (ref.rows is None), f.name
        elif f.name == "state_runs" and b is not None:  # compared expanded, as columns
            assert len(got.state) == len(want.state) == 6
            for i, (x, y) in enumerate(zip(got.state, want.state)):
                _assert_same_arrays(x, y, f"state[{i}]")
        elif isinstance(b, np.ndarray):
            _assert_same_arrays(a, b, f.name)
        else:
            assert a == b, f.name
    if isinstance(ref, _PhaseLoop) and ref.rows is not None:
        assert _trace_rows(got) == ref.rows
    ends = ("final_rlc", "final_inflight", "served")
    assert [type(x) for f in ends for x in getattr(got, f)] == \
        [type(x) for f in ends for x in getattr(want, f)]
    assert sim.stack.snapshot() == ref.stack.snapshot()
    assert sim.stack.out_counts == ref.stack.out_counts
    assert sim.stack.total_ingested == ref.stack.total_ingested
    assert sim.stack.delivered == ref.stack.delivered


class _PhaseLoop(Simulation):
    """The slot loop as it stood before ``CountStack.step`` and the
    ``Controller`` interface: eight stack calls per slot (the buffer
    difference, the five phases, occupancy and in-flight counts), one
    whole-matrix capacity conversion, ``observe`` called for every
    controller (the engine calls it only where the class overrides
    ``Controller.observe``), a branch for a forced action, and
    the trace kept in ``rows`` as one tuple per slot, read off the
    controller by ``getattr``.  ``run`` always steps this loop, open-loop
    policies included.  The test-side ltr and qlearning references
    (``_reference``) get the old ``observe(t, served, occ, inflight)``;
    every other controller gets ``observe(served, b, stack)``, with the
    stack's buffer difference after the slot."""

    def run(self):
        return self._run_loop()

    def _run_loop(self):
        stack, controller = self.stack, self.controller
        forced = self.plan.action if controller is None else None
        caps_by_slot = self.caps.T.tolist()
        burst = self.arrival_mode == "burst"
        delivered, a_p, a_s, bs = [], [], [], []
        self.rows = [] if self.collect_trace else None
        completed, completion_slot = False, None
        for t in range(self.max_slots):
            caps_t = caps_by_slot[t]
            b = stack.buffer_difference()
            action = forced if forced is not None else controller.decide(t, b)
            arrivals = (self.l if t == 0 else 0) if burst else self.arrival_rate
            if arrivals:
                stack.pdcp_ingest(arrivals)
            stack.pdcp_dispatch(action.a_p, action.a_s, t)
            stack.xn_tick(t)
            served = stack.rlc_serve(caps_t)
            n_rx = stack.ue_receive(served)
            occ = stack.rlc_occupancy()
            inflight = stack.xn_inflight()
            if isinstance(controller, LEGACY_OBSERVERS):
                controller.observe(t, served, occ, inflight)
            elif controller is not None:
                controller.observe(served, stack.buffer_difference(), stack)
            delivered.append(n_rx)
            a_p.append(action.a_p)
            a_s.append(action.a_s)
            bs.append(b)
            if self.collect_trace:
                gains = getattr(controller, "gains", None)
                self.rows.append((
                    tuple(occ), tuple(caps_t),
                    (gains.kp, gains.ki, gains.kd) if gains else (0.0, 0.0, 0.0),
                    float(getattr(controller, "g", 0.0)),
                    int(getattr(controller, "k", 0) or 0),
                    getattr(controller, "mode", "forced" if forced else "fixed"),
                ))
            if burst and not completed and stack.delivered >= self.l:
                completed, completion_slot = True, t
                if self.stop_on_complete:
                    break
        return self._result(
            delivered=np.array(delivered, dtype=np.int64), a_p=np.array(a_p, dtype=np.int8),
            a_s=np.array(a_s, dtype=np.int8), b=np.array(bs, dtype=np.int64),
            occupancy=None, states=None, completed=completed, completion_slot=completion_slot)


def _bucket_formula(table, b):
    """``QTable.bucket`` as it stood before the lookup list: the formula."""
    x = min(max(b, -table.b_max), table.b_max)
    frac = (x + table.b_max) / (2 * table.b_max)
    return min(int(frac * table.n_bins), table.n_bins - 1)


class _LegacyLtr(Controller):
    """``LtrController`` as it stood before ``observe`` read the stack: the
    engine handed it copies of the RLC and Xn in-flight counts, and
    ``decide`` built the delay estimates and a new action every slot."""

    name = "ltr"

    def __init__(self, n_scc, d_xn, eps_rate=0.05, smoothing=0.05):
        self.n_scc = n_scc
        self.d_xn = d_xn
        self.eps_rate = eps_rate
        self.smoothing = smoothing
        self.rates = [1.0] * (1 + n_scc)
        self._occ = [0] * (1 + n_scc)
        self._inflight = [0] * n_scc

    def delay_estimates(self):
        est = [self._occ[0] / max(self.rates[0], self.eps_rate)]
        for s in range(self.n_scc):
            backlog = self._occ[1 + s] + self._inflight[s] + self.d_xn
            est.append(backlog / max(self.rates[1 + s], self.eps_rate))
        return est

    def decide(self, t, b):
        est = self.delay_estimates()
        a_p = 1 if est[0] <= min(est[1:]) else 0
        return SplitAction(a_p, 1 - a_p)

    def observe(self, t, delivered, rlc_occ, inflight):
        a = self.smoothing
        for c, served in enumerate(delivered):
            self.rates[c] = (1 - a) * self.rates[c] + a * served
        self._occ = list(rlc_occ)
        self._inflight = list(inflight)


class _LegacyQLearning(QLearningController):
    """``QLearningController`` as it stood before the bucket lookup list and
    ``observe`` reading the stack: the formula twice a slot, the next state
    from a copy of the RLC counts, per-slot ``rng.random()`` and
    ``rng.integers(2)`` draws, and Q read by ``ndarray.item`` in an
    ``update`` that ``observe`` calls.  It steps every slot, as the
    controller did before it held windows: its ``hold`` refuses every
    window."""

    def hold(self, t, action, n, window):
        return 0

    def decide(self, t, b):
        s = _bucket_formula(self.table, b)
        if self.table.epsilon > 0 and self.rng.random() < self.table.epsilon:
            a = int(self.rng.integers(2))
        else:
            q = self.table.values
            a = 1 if q.item(s, 1) > q.item(s, 0) else 0
        self._pending = (s, a)
        return PCC_ONLY_ACTION if a == 0 else SCC_ONLY_ACTION

    def observe(self, t, delivered, rlc_occ, inflight):
        if self._pending is None:
            return
        s, a = self._pending
        reward = sum(delivered)
        b_next = rlc_occ[0] - sum(rlc_occ[1:])
        self.update(s, a, reward, _bucket_formula(self.table, b_next))
        self._pending = None

    def update(self, s, a, reward, s_next):
        q = self.table.values
        target = reward + self.table.discount * max(q.item(s_next, 0), q.item(s_next, 1))
        old = q.item(s, a)
        q[s, a] = old + self.table.learn_rate * (target - old)


LEGACY_OBSERVERS = (_LegacyLtr, _LegacyQLearning)


def _reference(controller):
    """The test-side reference of an observing controller, in the same state
    and with the same parameters, table and random stream; any other
    controller as it is."""
    if isinstance(controller, LtrController):
        return _LegacyLtr(controller.n_scc, controller.d_xn, controller.eps_rate,
                          controller.smoothing)
    if isinstance(controller, QLearningController):
        return _LegacyQLearning(controller.table, controller.rng)
    return controller


def _words_ahead(gen, ref, limit):
    """How many raw words the PCG64 generator ``gen`` stands ahead of
    ``ref``, counted one word at a time; None if not fewer than ``limit``."""
    want = gen.bit_generator.state["state"]
    ahead = np.random.PCG64()
    ahead.state = ref.bit_generator.state
    for n in range(limit):
        if ahead.state["state"] == want:
            return n
        ahead.advance(1)
    return None


def _assert_same_learning(new, old):
    """Bit-equal learned state: ltr's rates, qlearning's Q table, and every
    attribute of a fuzzy controller (gains, history, mode, the last buffer
    differences)."""
    if isinstance(new, FuzzyPidController):  # ``_held_windows`` may wrap ``hold``
        assert {k: v for k, v in vars(new).items() if k != "hold"} == vars(old)
    if isinstance(new, LtrController):
        assert [x.hex() for x in new.rates] == [x.hex() for x in old.rates]
    if isinstance(new, QLearningController):
        assert new.table.values.tobytes() == old.table.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 200))
def test_bucket_lookup_matches_formula(n_bins, b_max):
    """The lookup list gives the formula's bucket for every integer in
    ``[-3 b_max, 3 b_max]``."""
    table = QTable(n_bins=n_bins, b_max=b_max)
    for b in range(-3 * b_max, 3 * b_max + 1):
        assert table.bucket(b) == _bucket_formula(table, b), b


@pytest.mark.parametrize("n_bins, b_max", [
    (16, 96), (16, 192), (16, 1_200_000), (1, 1), (3, 1), (5, 35), (7, 1000), (40, 200),
    (13, 999_983)])
def test_bucket_lists_match_formula_at_the_ends_and_bin_edges(n_bins, b_max):
    """The lookups built by one numpy expression give the scalar formula's
    bucket at ``-b_max`` and ``b_max``, one past each end (clamped), and at
    the integers around every bin edge, up to the ``b_max`` of 1,200,000
    that qlearning gets with ``n = 200000``; ``buckets`` gives ``bucket``
    of each value of an array.  At (5, 35), multiplying by the reciprocal of
    ``2 b_max`` instead of dividing by it moves three of the edges."""
    table = QTable(n_bins=n_bins, b_max=b_max)
    xs = {-b_max - 1, -b_max, b_max, b_max + 1}
    for j in range(1, n_bins):
        edge = -b_max + j * 2 * b_max // n_bins
        xs.update(range(edge - 2, edge + 3))
    xs = sorted(xs)
    want = [_bucket_formula(table, x) for x in xs]
    assert [table.bucket(x) for x in xs] == want
    assert table.buckets(np.array(xs, np.int64)).tolist() == want


def _held_windows(sim, offered=None):
    """Wrap ``sim``'s controller's ``hold``: returns the list of slots each
    committed window held, filled as the run goes.  With ``offered``, also
    record each offer as ``(t, window length, slots held)``."""
    held = []
    hold = sim.plan.hold

    def counted(t, action, n, window):
        k = hold(t, action, n, window)
        if offered is not None:
            offered.append((t, len(window().delivered), k))
        if k:
            held.append(k)
        return k
    sim.plan.hold = counted
    return held


HOLDERS = ("fuzzy_pid", "nofuzzy_pid", "ltr", "qlearning")
LOOP_POLICIES = ("fuzzy_pid", "nofuzzy_pid", "ltr", "qlearning", "scripted")
ALL_POLICIES = LOOP_POLICIES + ("forced", "bwa", "stationary_k")


def _policy(policy, n_scc, d_xn, horizon, actions, reference=False):
    """Fresh ``Simulation`` policy arguments for one run: a closed-loop
    controller, a scripted replay, an open-loop policy or a forced action
    (the script's first); with ``reference``, ltr and qlearning as their
    test-side references."""
    if policy == "forced":
        return {"forced_action": actions[0]}
    if policy == "fuzzy_pid":
        controller = FuzzyPidController(horizon, n_scc)
    elif policy == "nofuzzy_pid":
        controller = NoFuzzyController(horizon, n_scc)
    elif policy == "ltr":
        controller = LtrController(n_scc, d_xn)
    elif policy == "qlearning":
        controller = QLearningController(QTable(b_max=8, epsilon=0.2), make_rng(7, "q"))
    elif policy == "bwa":
        controller = BwaController(70.0, [130.0 / n_scc] * n_scc)
    elif policy == "stationary_k":
        controller = StationaryKController(horizon % 5)
    else:
        controller = ScriptedController(actions)
    return {"controller": _reference(controller) if reference else controller}


@st.composite
def loop_runs(draw, n_scc, collect_trace):
    """``Simulation`` arguments, the policy's aside: capacities, arrivals,
    Xn delay, preseed and stop; plus a horizon and an action script."""
    n_car = 1 + n_scc
    n_slots = draw(st.integers(0, 160))
    caps = draw(arrays(np.int64, (n_car, n_slots), elements=st.integers(0, 4)))
    kwargs = dict(l=draw(st.integers(1, 80)),
                  arrival_mode=draw(st.sampled_from(["burst", "per_slot"])),
                  arrival_rate=draw(st.integers(0, n_scc + 2)), n_scc=n_scc,
                  d_xn=draw(st.integers(0, 3)), caps=caps, max_slots=n_slots,
                  preseed_rlc=draw(st.none() | st.lists(
                      st.integers(0, 6), min_size=n_car, max_size=n_car)),
                  stop_on_complete=draw(st.booleans()), collect_trace=collect_trace)
    horizon = draw(st.integers(2, 12))
    actions = draw(st.lists(st.sampled_from([SplitAction(1, 0), SplitAction(0, 1),
                                             SplitAction(1, 1), SplitAction(0, 0)]),
                            min_size=1, max_size=30))
    return kwargs, horizon, actions


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(LOOP_POLICIES + ("forced",)), st.integers(1, 3),
       st.booleans(), st.integers(1, 40))
def test_slot_loop_matches_phase_reference(data, policy, n_scc, collect_trace, chunk):
    """``Simulation.run`` stepping ``CountStack.step`` over capacity rows
    converted ``chunk`` slots at a time, observing only where the controller
    reads it, equals the per-phase reference loop: every ``RunResult`` field,
    trace rows included, and the end state.  ltr and qlearning read the stack
    in ``observe`` and are checked against their test-side references, fed
    copied counts, learned state included.  A forced action takes the closed
    form."""
    kwargs, horizon, actions = data.draw(loop_runs(n_scc, collect_trace))
    d_xn = kwargs["d_xn"]
    sim = Simulation(**_policy(policy, n_scc, d_xn, horizon, actions), **kwargs)
    ref = _PhaseLoop(**_policy(policy, n_scc, d_xn, horizon, actions, reference=True),
                     **kwargs)
    with mock.patch.object(engine, "CAPS_CHUNK", chunk):
        got = sim.run()
    _assert_same_run(sim, got, ref, ref.run())
    _assert_same_learning(sim.controller, ref.controller)


def _write_trace_rows(path, result, rows, n_scc):
    """``trace.write_trace`` as it stood when a run kept its trace as one
    tuple per slot: the reference the column writer is checked against."""
    lines = [",".join(trace.trace_columns(n_scc))]
    for t in range(result.t_slots):
        occ, caps, gains, g, k, mode = rows[t]
        row = [str(t), str(int(result.b[t])), str(int(result.a_p[t])),
               str(int(result.a_s[t]))]
        row += [str(int(x)) for x in occ]
        row += [str(int(x)) for x in caps]
        row += [str(int(result.delivered[t]))]
        row += [trace._f(gains[0]), trace._f(gains[1]), trace._f(gains[2]), trace._f(g),
                str(k), mode]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(ALL_POLICIES), st.integers(1, 3))
def test_column_writer_matches_row_writer(data, policy, n_scc):
    """For a run of every policy, forced actions and open-loop closed forms
    included, ``trace.write_trace`` formatting whole columns writes the same
    bytes as the row-by-row writer over the per-phase reference loop's trace
    rows."""
    kwargs, horizon, actions = data.draw(loop_runs(n_scc, True))
    d_xn = kwargs["d_xn"]
    got = Simulation(**_policy(policy, n_scc, d_xn, horizon, actions), **kwargs).run()
    ref = _PhaseLoop(**_policy(policy, n_scc, d_xn, horizon, actions, reference=True),
                     **kwargs)
    want = ref.run()
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        trace.write_trace(new, got)
        _write_trace_rows(old, want, ref.rows, n_scc)
        assert new.read_bytes() == old.read_bytes()


def test_a_traced_run_writes_capacities_as_given():
    """uint64 capacities reach the trace as the caller gave them, in the
    closed form and the slot loop: 2**64 - 1, not -1."""
    caps = np.full((2, 3), 2**64 - 1, np.uint64)
    for policy in ({"forced_action": SplitAction(1, 1)},
                   {"controller": FuzzyPidController(4, 1)}):
        result = Simulation(l=5, arrival_mode="per_slot", arrival_rate=2, n_scc=1, d_xn=0,
                            caps=caps, max_slots=3, collect_trace=True, **policy).run()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "trace.csv")
            trace.write_trace(path, result)
            lines = path.read_text().splitlines()
        at = [trace.trace_columns(1).index(c) for c in ("cap_pcc", "cap_scc1")]
        assert [[row.split(",")[i] for i in at] for row in lines[1:]] == \
            [["18446744073709551615"] * 2] * 3


def _texts(block: np.ndarray) -> list[str]:
    """The text of each row of a ``trace._column_bytes`` block: its bytes
    with the 0-byte padding dropped."""
    return [bytes(row[row != 0]).decode() for row in block]


def test_float_column_tells_values_apart_by_bits():
    """Each float is formatted as itself: 0.0 and -0.0, and NaN, included."""
    values = [0.1, 0.0, -0.0, float("nan"), 0.1 + 0.2, 1e-7, -0.0, 123456789.0, 0.1]
    assert _texts(trace._column_bytes(np.array(values))) == [trace._f(x) for x in values]


_INT_BOUNDS = {np.int8: (-128, 127), np.int64: (-2**63, 2**63 - 1), np.uint64: (0, 2**64 - 1)}
_MODES = ("init", "dynamic", "static", "escape", "fixed", "forced")


@st.composite
def trace_column(draw, bound):
    """A trace column: int8, int64 or uint64 over its whole range, near 0
    or next to ``±bound``, float64 with signed zeros, NaN and infinities,
    or mode strings; empty or not, and perhaps one value broadcast with
    stride 0."""
    dtype = draw(st.sampled_from([np.int8, np.int64, np.uint64, np.float64, object]))
    if dtype is np.float64:
        values = st.floats(width=64) | st.sampled_from([0.0, -0.0, float("nan"),
                                                        float("inf"), float("-inf")])
    elif dtype is object:
        values = st.sampled_from(_MODES)
    else:
        lo, hi = _INT_BOUNDS[dtype]
        edges = (st.just(v) for v in (-bound, 1 - bound, bound - 1, bound) if lo <= v <= hi)
        values = st.one_of(st.integers(lo, hi), st.integers(max(lo, -300), min(hi, 300)), *edges)
    if draw(st.booleans()):
        return np.broadcast_to(np.array(draw(values), dtype=dtype), draw(st.integers(0, 50)))
    return np.array(draw(st.lists(values, max_size=50)), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([1, 7, 100, 1000, trace.DECIMALS_MAX]))
def test_column_bytes_format_each_value(data, bound):
    """``trace._column_bytes`` gives ``str`` of each integer or string and
    ``_f`` of each float, for integers within the decimal table's bound and
    past it.  The table grows from empty over the drawn columns and never
    past its bound."""
    columns = data.draw(st.lists(trace_column(bound), min_size=1, max_size=4))
    with mock.patch.multiple(trace, DECIMALS_MAX=bound, _decimals=np.zeros((0, 1), np.uint8)):
        for column in columns:
            block = trace._column_bytes(column)
            fmt = trace._f if column.dtype == np.float64 else str
            assert block.dtype == np.uint8 and len(block) == len(column)
            assert _texts(block) == [fmt(x) for x in column.tolist()]
            assert len(trace._decimals) <= bound


def test_a_run_of_no_slots_writes_the_header_alone(tmp_path):
    result = Simulation(l=5, arrival_mode="burst", arrival_rate=0, n_scc=2, d_xn=0,
                        caps=np.ones((3, 0), np.int64), max_slots=0, collect_trace=True,
                        controller=FuzzyPidController(4, 2)).run()
    trace.write_trace(tmp_path / "trace.csv", result)
    assert (tmp_path / "trace.csv").read_text() == ",".join(trace.trace_columns(2)) + "\n"


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])


@st.composite
def state_runs(draw):
    """A run-length list of ``trace_state`` entries: none, one or many, of 0
    slots or more.  An entry may repeat the values of the one before in
    other objects, or change one float to 0.0, -0.0, NaN or an infinity;
    ``k`` spans int64 and ``mode`` may be empty."""
    runs = []
    for _ in range(draw(st.integers(0, 8))):
        if runs and draw(st.booleans()):
            state = list(pickle.loads(pickle.dumps(runs[-1][1])))  # equal values, new objects
            state[draw(st.integers(0, 3))] = draw(_EDGE_FLOATS)
        else:
            state = [draw(st.floats(width=64) | _EDGE_FLOATS) for _ in range(4)]
            state.append(draw(st.integers(-300, 300) | st.integers(-2**63, 2**63 - 1)))
            state.append(draw(st.sampled_from(_MODES) | st.text(string.ascii_letters, max_size=8)))
        runs.append((draw(st.integers(0, 12)), tuple(state)))
    return runs


@settings(max_examples=300, deadline=None)
@given(st.data(), state_runs(), st.integers(1, 3))
def test_trace_writer_matches_reference_on_random_state_runs(data, runs, n_scc):
    """``trace.write_trace`` formatting the run-length states entry by entry
    writes the same bytes as the reference writer over the expanded
    ``state`` columns, for a 0-slot run and a single entry included; those
    columns hold each entry's values for its slots, signed zeros kept."""
    n = sum(count for count, _ in runs)
    ints = arrays(np.int64, (2 * (1 + n_scc) + 2, n), elements=st.integers(-10**6, 10**6))
    b, delivered, *cols = data.draw(ints)
    a_p, a_s = data.draw(arrays(np.int8, (2, n), elements=st.integers(0, 1)))
    result = RunResult(mode="ca", policy="drawn", seed=0, scenario="drawn", l=0,
                       arrival_mode="burst", t_slots=n, completed=False, completion_slot=None,
                       total_delivered=0, delivered=delivered, a_p=a_p, a_s=a_s, b=b,
                       occupancy=np.array(cols[:1 + n_scc]), capacity=np.array(cols[1 + n_scc:]),
                       state_runs=runs)
    slots = [state for count, state in runs for _ in range(count)]
    assert [list(map(repr, row)) for row in zip(*(c.tolist() for c in result.state))] == \
        [list(map(repr, state)) for state in slots]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        trace.write_trace(new, result)
        write_trace_reference(old, result)
        assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("preset", [default_static_scenario, default_mobile_scenario])
def test_trace_writer_matches_reference_on_default_presets(preset, tmp_path):
    """Every trace of one seed of a default preset, all five η policies and
    both references, is written with the same bytes as the reference
    writer's: up to 60,000 rows, negative buffer differences and hundreds
    of distinct gains."""
    cfg = preset(3)
    outcome = run_experiment(ExperimentSpec(cfg, seeds=[1], out_dir=tmp_path,
                                            policies=list(ETA_POLICIES)))
    assert len(outcome.results) == len(ETA_POLICIES) + 2
    for (seed, label), result in outcome.results.items():
        reference = tmp_path / "reference.csv"
        write_trace_reference(reference, result)
        written = tmp_path / f"trace_{cfg.name}_{label}_{seed}.csv"
        assert written.read_bytes() == reference.read_bytes(), label


def _chunk_starts(n_slots):
    """The first slot of each capacity chunk at the default sizes: 16 slots,
    then chunks that double the slots converted so far, then 1024 at a
    time."""
    assert (engine.CAPS_FIRST_CHUNK, engine.CAPS_CHUNK) == (16, 1024)
    starts = [0, 16, 32, 64, 128, 256, 512] + list(range(1024, n_slots, 1024))
    return [t for t in starts if t < n_slots]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 2048), st.integers(1, 64), st.integers(1, 3),
       st.integers(0, 5000))
def test_cap_rows_concatenate_to_the_whole_conversion(n_slots, chunk, first, n_scc, start):
    """The chunks ``_cap_rows`` yields from slot ``start`` (0, or where a held
    window ended) concatenate to ``caps[:, start:n].T.tolist()`` for any
    horizon and chunk sizes.  The first chunk is
    ``min(CAPS_FIRST_CHUNK, CAPS_CHUNK)`` slots, and each later one is as long
    as all before it, but at most ``CAPS_CHUNK``; only the last may be cut
    short by the horizon."""
    start = min(start, n_slots)
    caps = np.arange((1 + n_scc) * (n_slots + 7), dtype=np.int64).reshape(1 + n_scc, -1)
    with mock.patch.multiple(engine, CAPS_CHUNK=chunk, CAPS_FIRST_CHUNK=first):
        chunks = list(engine._cap_rows(caps, n_slots, start))
    assert [row for c in chunks for row in c] == caps[:, start:n_slots].T.tolist()
    done = 0
    for i, c in enumerate(chunks):
        want = min(max(done, first), chunk)
        assert len(c) == want or (i == len(chunks) - 1 and 0 < len(c) < want)
        done += len(c)
    assert done == n_slots - start


@functools.lru_cache(maxsize=None)
def _static_caps(n_slots):
    caps = build_caps(default_static_scenario(2).copy(max_slots=n_slots))
    caps.flags.writeable = False
    return caps


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.sampled_from(LOOP_POLICIES[:4]))
def test_a_run_that_stops_early_converts_twice_its_slots_at_most(l, policy):
    """A burst run that completes at slot s has converted at most
    ``max(CAPS_FIRST_CHUNK, 2 (s + 1))`` capacity columns, counted off the
    chunks ``_cap_rows`` hands the loop, also when held windows made it
    start converting afresh; and at least one column for every slot it
    stepped."""
    cfg = default_static_scenario(2).copy(l=l, max_slots=4 * engine.CAPS_CHUNK)
    sim = build_run(cfg, RunMode.CA, caps=_static_caps(cfg.max_slots), policy=policy)
    held = _held_windows(sim)
    converted = []
    cap_rows = engine._cap_rows

    def counted(caps, n_slots, start=0):
        for chunk in cap_rows(caps, n_slots, start):
            converted.append(len(chunk))
            yield chunk
    with mock.patch.object(engine, "_cap_rows", counted):
        result = sim.run()
    assert result.completed or policy == "qlearning"
    s = result.t_slots - 1
    assert sum(converted) <= max(engine.CAPS_FIRST_CHUNK, 2 * (s + 1))
    assert sum(converted) >= result.t_slots - sum(held)


@pytest.mark.parametrize("policy", LOOP_POLICIES[:4])
def test_slot_loop_matches_phase_reference_across_chunks(policy):
    """A static burst run of each closed-loop policy completes several
    ``CAPS_CHUNK`` slots in and matches the per-phase reference loop, ltr
    and qlearning against their test-side references."""
    cfg = default_static_scenario(2).copy(l=2500, max_slots=8 * engine.CAPS_CHUNK)
    caps = build_caps(cfg)
    kwargs = dict(l=cfg.l, arrival_mode="burst", arrival_rate=0, n_scc=2, d_xn=cfg.d_xn,
                  caps=caps, max_slots=cfg.max_slots, collect_trace=True)
    sim = Simulation(controller=make_controller(cfg, policy=policy), **kwargs)
    ref = _PhaseLoop(controller=_reference(make_controller(cfg, policy=policy)), **kwargs)
    got = sim.run()
    assert got.completed and got.completion_slot > 2 * engine.CAPS_CHUNK
    assert got.completion_slot not in _chunk_starts(cfg.max_slots)  # mid-chunk, not on an edge
    _assert_same_run(sim, got, ref, ref.run())
    _assert_same_learning(sim.controller, ref.controller)


def _scaled(caps, dtype, top):
    """``caps`` drawn from 0 to 4 as ``dtype``; with ``top``, each positive
    capacity c becomes ``top - 4 + c``, and 0 stays an outage."""
    if top is None:
        return caps.astype(dtype)
    return np.where(caps > 0, caps.astype(object) + (top - 4), 0).astype(dtype)


@pytest.mark.parametrize("policy", HOLDERS)
def test_held_windows_match_phase_reference(policy):
    """With ``HOLD_MIN`` 2 and windows of 4 to 16 slots, runs of every
    holding controller, whose held windows the engine computes in closed form,
    equal the per-phase reference loop, which steps every slot: every
    ``RunResult`` field, trace rows included, the end state, ltr's learned
    rates and qlearning's Q table.  Burst and per-slot arrivals, d_xn 0 to
    3, traced and untraced runs, capacity chunks of 1 to 40 slots,
    capacities as drawn, as int8, or scaled up to 127 (int8), 2**62 and
    2**63 - 1 (int64) or 2**64 - 1 (uint64), which the folds take clipped,
    and qlearning's words fetched 1, 2, 7 or 1024 at a time, so its windows
    run across chunk ends; its generator then stands less than one chunk
    ahead of the reference's per-slot draws.  Across the runs, windows were
    committed."""
    held = []

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), st.booleans(), st.integers(1, 40),
           st.sampled_from([(np.int64, None), (np.int8, None), (np.int8, 127),
                            (np.int64, 2**62), (np.int64, 2**63 - 1), (np.uint64, 2**64 - 1)]),
           st.sampled_from([1, 2, 7, 1024]))
    def check(data, n_scc, collect_trace, chunk, scale, draw_chunk):
        kwargs, horizon, actions = data.draw(loop_runs(n_scc, collect_trace))
        kwargs["caps"] = _scaled(kwargs["caps"], *scale)
        d_xn = kwargs["d_xn"]
        sim = Simulation(**_policy(policy, n_scc, d_xn, horizon, actions), **kwargs)
        ref = _PhaseLoop(**_policy(policy, n_scc, d_xn, horizon, actions, reference=True),
                         **kwargs)
        windows = _held_windows(sim)
        with mock.patch.multiple(engine, HOLD_MIN=2, HOLD_WINDOW=4, HOLD_MAX_WINDOW=16,
                                 CAPS_CHUNK=chunk), \
                mock.patch.object(baselines, "DRAW_CHUNK", draw_chunk):
            got = sim.run()
        _assert_same_run(sim, got, ref, ref.run())
        _assert_same_learning(sim.controller, ref.controller)
        if policy == "qlearning":
            ahead = _words_ahead(sim.controller.rng, ref.controller.rng, draw_chunk)
            assert ahead is not None, f"the generator is not within {draw_chunk} words"
        held.extend(windows)
    check()
    assert len(held) >= 50 and sum(held) >= 500, (len(held), sum(held))


def test_free_windows_match_a_run_that_refuses_every_offer():
    """A qlearning burst run whose PDCP buffer empties while packets still
    wait in the RLC buffers or on the Xn link (small ``l``, outages, d_xn 0
    to 2) holds free windows whole, replaying the greedy choice as it
    changes, and equals the same run with every offer refused, which steps
    every slot: every ``RunResult`` field, the end state, the Q table bit
    for bit, the generator's state, the buffered words and the buffered
    half.  With ``HOLD_MIN`` 2 and windows of 1 to 4 or 4 to 16 slots,
    epsilon 0 and the default, a drawn starting Q table, words fetched 1,
    7 or 1024 at a time, burst runs cut at completion or run on.  Across
    the runs, free windows were held before the burst completed, cut at its
    completion and with packets on the Xn link, and some handed back
    actions other than those they were folded with: the greedy choice
    changed inside them, or differed from the action offered."""
    seen = {"before": 0, "cut": 0, "xn": 0, "changed": 0}

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(0, 2), st.sampled_from([0.0, 0.1]),
           st.sampled_from([1, 7, 1024]), st.booleans(), st.booleans())
    def check(data, n_scc, d_xn, epsilon, draw_chunk, stop_on_complete, collect_trace):
        # Windows of 1 to 4 slots often start just after the PDCP buffer empties,
        # with packets still on the Xn link.
        size = data.draw(st.sampled_from([1, 4]))
        n_slots = data.draw(st.integers(8, 400))
        caps = data.draw(arrays(np.int64, (1 + n_scc, n_slots),
                                elements=st.sampled_from([0, 0, 1, 3]), fill=st.nothing()))
        kwargs = dict(l=data.draw(st.integers(1, 30)), arrival_mode="burst", arrival_rate=0,
                      n_scc=n_scc, d_xn=d_xn, caps=caps, max_slots=n_slots,
                      stop_on_complete=stop_on_complete, collect_trace=collect_trace)
        values = data.draw(arrays(np.float64, (16, 2), elements=st.sampled_from([0.0, 1.0, 2.0]),
                                  fill=st.nothing()))  # a learned table, greedy on either side
        runs = [Simulation(controller=QLearningController(
            QTable(b_max=8, epsilon=epsilon), make_rng(7, "q")), **kwargs) for _ in range(2)]
        sim, ref = runs
        for run in runs:
            run.controller.table.values[:] = values
        ref.plan.hold = lambda t, action, n, window: 0
        hold, free = sim.plan.hold, []

        def counted(t, action, n, window):
            folded = []  # the schedule the window is folded with, if given

            def seen_window(*schedule):
                folded.append(schedule)
                return window(*schedule)
            inflight = any(sim.stack.xn)  # the stack is committed after ``hold``
            k = hold(t, action, n, seen_window)
            if k and window().free:
                held = window()
                a_s = folded[0][1] if folded[0] else np.full(n, action.a_s, np.int8)
                free.append((t, n, held, inflight, not np.array_equal(held.a_s[:k], a_s[:k])))
            return k
        sim.plan.hold = counted
        with mock.patch.multiple(engine, HOLD_MIN=2, HOLD_WINDOW=size, HOLD_MAX_WINDOW=4 * size), \
                mock.patch.object(baselines, "DRAW_CHUNK", draw_chunk):
            got, want = sim.run(), ref.run()
        _assert_same_run(sim, got, ref, want)
        q, q_ref = sim.controller, ref.controller
        assert q.table.values.tobytes() == q_ref.table.values.tobytes()
        assert q.rng.bit_generator.state == q_ref.rng.bit_generator.state
        assert (q._words, q._half) == (q_ref._words, q_ref._half)
        end = got.completion_slot if got.completed else n_slots
        for t, n, window, inflight, changed in free:
            seen["before"] += t < end
            seen["cut"] += len(window.delivered) < n
            seen["xn"] += inflight
            seen["changed"] += changed
    check()
    assert min(seen.values()) >= 3, seen


def test_fuzzy_pid_leaves_its_state_alone_on_a_window_cut_to_no_slot():
    """Offered a window on the slot that completes the burst, which the
    engine cuts to no slot, fuzzy_pid holds none and changes nothing: the
    run equals the per-phase reference, gains and trace rows included."""
    caps = np.zeros((2, 72), np.int64)
    caps[:, 23] = caps[1, 30] = 124
    kwargs = dict(l=30, arrival_mode="burst", arrival_rate=0, n_scc=1, d_xn=3, caps=caps,
                  max_slots=72, stop_on_complete=False, collect_trace=True)
    sim = Simulation(controller=FuzzyPidController(2, 1), **kwargs)
    ref = _PhaseLoop(controller=FuzzyPidController(2, 1), **kwargs)
    offered = []
    _held_windows(sim, offered)
    with mock.patch.multiple(engine, HOLD_MIN=2, HOLD_WINDOW=4, HOLD_MAX_WINDOW=16):
        got = sim.run()
    assert (30, 0, 0) in offered
    _assert_same_run(sim, got, ref, ref.run())
    _assert_same_learning(sim.controller, ref.controller)


def test_ltr_holds_no_window_it_would_start_on_an_scc():
    """ltr played the PCC on slots 0 and 1, but the SCC's queue drained in
    slot 1, so it plays slot 2 on the SCC: the window offered from slot 2
    is not held, although the PCC's queue would be empty after it."""
    caps = np.array([[1, 1, 1], [1, 2, 1]])
    kwargs = dict(l=1, arrival_mode="per_slot", arrival_rate=0, n_scc=1, d_xn=0, caps=caps,
                  max_slots=3, preseed_rlc=[3, 3], stop_on_complete=False)
    sim = Simulation(controller=LtrController(1, 0), **kwargs)
    ref = _PhaseLoop(controller=_reference(LtrController(1, 0)), **kwargs)
    offered = []
    held = _held_windows(sim, offered)
    with mock.patch.multiple(engine, HOLD_MIN=2, HOLD_WINDOW=4):
        got = sim.run()
    assert got.a_p.tolist() == [1, 1, 0]
    assert offered == [(2, 1, 0)] and held == []
    _assert_same_run(sim, got, ref, ref.run())
    _assert_same_learning(sim.controller, ref.controller)


@pytest.mark.parametrize("policy", HOLDERS[::2] + ("qlearning",))
@pytest.mark.parametrize("preset", [default_static_scenario, default_mobile_scenario])
def test_default_runs_hold_most_of_their_slots(preset, policy):
    """On both presets, fuzzy_pid and ltr hold at least 80% of a run's
    slots: the loop steps only where the controller decides (at seed 1,
    fuzzy_pid 90.0% on static and 83.4% on mobile, ltr 99.8% and 99.9%).
    qlearning holds at least 90%: on mobile its greedy choice hardly
    changes (99.7%), and on static it flickers only once the PDCP buffer
    has emptied, where it holds free windows whole (98.3%)."""
    cfg = preset(3)
    sim = build_run(cfg, RunMode.CA, policy=policy)
    held = _held_windows(sim)
    result = sim.run()
    floor = 0.8 if policy != "qlearning" else 0.9
    assert sum(held) >= floor * result.t_slots, (sum(held), result.t_slots)


# Offers made and slots held by each holding policy's default run at seed
# 1001, as counted before the offers were made cheaper: a cheaper offer must
# not change which windows are offered or how many slots they hold.  Static
# qlearning's are counted since it holds free windows whole: its greedy
# choice flickers once the PDCP buffer has emptied, after slot 9,091.
OFFERS_AT_1001 = {
    ("static", "fuzzy_pid"): (58, 8939), ("static", "nofuzzy_pid"): (42, 9062),
    ("static", "ltr"): (11, 9983), ("static", "qlearning"): (25, 21833),
    ("mobile", "fuzzy_pid"): (97, 16587), ("mobile", "nofuzzy_pid"): (97, 16512),
    ("mobile", "ltr"): (21, 19984), ("mobile", "qlearning"): (24, 19884)}


@pytest.mark.parametrize("preset, policy", OFFERS_AT_1001)
def test_default_runs_make_the_pinned_offers(preset, policy):
    """Each holding policy's default run at seed 1001, static and mobile,
    is offered as many windows and holds as many slots as pinned."""
    cfg = (default_static_scenario if preset == "static" else default_mobile_scenario)(3)
    sim = build_run(cfg, RunMode.CA, 1001, policy=policy)
    held = _held_windows(sim)
    offers = []
    hold = sim.plan.hold

    def counted(t, action, n, window):
        offers.append(t)
        return hold(t, action, n, window)
    sim.plan.hold = counted
    sim.run()
    assert (len(offers), sum(held)) == OFFERS_AT_1001[preset, policy]


@pytest.mark.parametrize("policy", HOLDERS)
def test_only_ltr_derives_served_counts(policy):
    """A window's packets served per carrier are derived from its fold when
    first read, and only ltr's ``hold`` reads them, once for each window it
    looks at; the other holding policies' windows derive none."""
    sim = build_run(default_mobile_scenario(3).copy(max_slots=3000), RunMode.CA,
                    policy=policy)
    derived, looked = [], []
    served, hold = Fold.served.func, sim.plan.hold

    def counted(fold):
        derived.append(None)
        return served(fold)

    def counted_hold(t, action, n, window):
        def seen(*schedule):
            looked.append(t)
            return window(*schedule)
        return hold(t, action, n, seen)
    sim.plan.hold = counted_hold
    with mock.patch.object(Fold, "served", property(counted)):
        sim.run()
    assert looked and len(derived) == (len(looked) if policy == "ltr" else 0)


def test_qlearning_windows_run_across_a_chunk_of_draws():
    """With words fetched 64 at a time, a default mobile qlearning run of
    3,000 slots holds a window longer than 64 slots: ``hold`` fetches the
    next chunk where its buffered words run out, instead of ending the
    window there."""
    sim = build_run(default_mobile_scenario(3).copy(max_slots=3000), RunMode.CA,
                    policy="qlearning")
    held = _held_windows(sim)
    with mock.patch.object(baselines, "DRAW_CHUNK", 64):
        sim.run()
    assert max(held) > 64, held


@pytest.mark.parametrize("policy", HOLDERS)
@pytest.mark.parametrize("changes", [
    dict(l=300), dict(l=2000), dict(l=2000, max_slots=1000), dict(l=400, max_slots=531),
    dict(arrival_mode="per_slot", max_slots=777)], ids=str)
def test_no_hold_crosses_completion_or_horizon(policy, changes):
    """Every window offered to a controller, qlearning's schedule of its
    own included, ends at the horizon or before it, and, in a burst run, at
    the completion slot or before it: the loop steps the slot that completes
    the burst.  Without ``stop_on_complete``, ltr, which keeps the PCC on
    the drained queues, holds windows after the completion too."""
    cfg = default_static_scenario(2).copy(**changes)
    for stop in (True, False):
        sim = build_run(cfg, RunMode.CA, policy=policy)
        sim.stop_on_complete = stop
        offered = []
        held = _held_windows(sim, offered)
        result = sim.run()
        assert held
        for t, n, k in offered:
            assert k <= n and t + n <= cfg.max_slots, (t, n, k)
            if result.completed and t <= result.completion_slot:
                assert t + n <= result.completion_slot, (t, n, result.completion_slot)
        if policy == "ltr" and cfg.arrival_mode == "burst" and result.completed and not stop:
            assert any(t > result.completion_slot for t, _, k in offered if k)


@pytest.mark.parametrize("l, slot, dtype, message", [
    *(pytest.param(l, slot, np.int64, "capacity must be non-negative", id=f"{l}-{slot}")
      for l in (200, 200_000) for slot in (5, 20, 600, engine.CAPS_CHUNK + 5)),
    pytest.param(200, 5, np.float64, "capacity must be integer packet counts, got float64",
                 id="float64"),
])
def test_negative_capacity_is_refused(l, slot, dtype, message):
    """A negative capacity anywhere in the horizon stops a loop run with
    ``ValueError``, as it stops a closed-form run: also when it sits in a
    later chunk (the second 16-slot chunk, the last doubling one, the first
    of 1024 slots), and also after a burst of ``l = 200`` has completed.  A
    float capacity matrix is refused whole, whatever its values."""
    cfg = default_static_scenario(2).copy(l=l, max_slots=2 * engine.CAPS_CHUNK)
    caps = build_caps(cfg).astype(dtype)
    caps[1, slot] = -1
    for policy in ("fuzzy_pid", "bwa"):
        with pytest.raises(ValueError, match=message):
            build_run(cfg, RunMode.CA, caps=caps, policy=policy).run()


@pytest.mark.parametrize("dtype", [
    np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
    np.uint64, np.float16, np.float32, np.float64, np.complex128, object, "U1", "S1",
    "datetime64[s]", "timedelta64[s]"])
def test_only_integer_capacities_are_accepted(dtype):
    """``Simulation`` takes signed and unsigned integer capacities and
    refuses every other dtype: each one ``np.issubdtype(dtype, np.integer)``
    refuses, and also ``timedelta64``, which that test lets through."""
    caps = np.zeros((3, 4), dtype=dtype)
    kwargs = dict(l=5, arrival_mode="burst", arrival_rate=0, n_scc=2, d_xn=0, caps=caps,
                  max_slots=4, forced_action=SplitAction(1, 1))
    kind = np.dtype(dtype).kind
    assert kind in "iu" or not np.issubdtype(dtype, np.integer) or kind == "m"
    if kind in "iu":
        assert Simulation(**kwargs).caps is caps
    else:
        with pytest.raises(ValueError, match="capacity must be integer packet counts"):
            Simulation(**kwargs)


@pytest.mark.parametrize("dtype", [
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64])
def test_closed_form_matches_slot_loop_for_every_integer_dtype(dtype):
    """The closed form runs on every dtype ``Simulation`` accepts and equals
    the slot loop, uint64 included, which numpy would subtract from the int64
    queues in float64."""
    rng = make_rng(11, "dtype")
    caps = rng.integers(0, 4, size=(3, 120)).astype(dtype)
    for policy in (BwaController(100.0, [50.0, 50.0]), ForcedController(SplitAction(1, 1))):
        for mode in ("burst", "per_slot"):
            kwargs = dict(l=90, arrival_mode=mode, arrival_rate=2, n_scc=2, d_xn=1, caps=caps,
                          max_slots=120, preseed_rlc=[1, 2, 0], collect_trace=True)
            fast = _closed_form(controller=policy, **kwargs)
            loop = Simulation(controller=_SlotLoopOnly(policy), **kwargs)
            _assert_same_run(fast, fast.run(), loop, loop.run())


@pytest.mark.parametrize("cap", [(np.int64, 2**62), (np.int64, 2**63 - 1),
                                 (np.uint64, 2**64 - 1)],
                         ids=["int64-2**62", "int64-max", "uint64-max"])
def test_closed_form_matches_slot_loop_at_the_largest_capacities(cap):
    """Capacities whose sum over a run passes 2**63 serve what the slot loop
    serves: the closed form clips them at the packets the run ingests, so
    its int64 sums cannot overflow."""
    dtype, value = cap
    caps = np.full((3, 6), value, dtype=dtype)
    for policy in (BwaController(100.0, [50.0, 50.0]), ForcedController(SplitAction(1, 1))):
        for mode in ("burst", "per_slot"):
            kwargs = dict(l=5, arrival_mode=mode, arrival_rate=3, n_scc=2, d_xn=2, caps=caps,
                          max_slots=6, preseed_rlc=[1, 0, 2], collect_trace=True)
            fast = _closed_form(controller=policy, **kwargs)
            loop = Simulation(controller=_SlotLoopOnly(policy), **kwargs)
            got = fast.run()
            _assert_same_run(fast, got, loop, loop.run())
            assert got.delivered.min() >= 0 and got.total_delivered == sum(got.served)


@pytest.mark.parametrize("collect_trace", [False, True])
@pytest.mark.parametrize("mode", [RunMode.PCC_ONLY, RunMode.SCC_ONLY, RunMode.CA])
def test_static_closed_forms_match_the_per_carrier_fold(mode, collect_trace):
    """The static preset's 60,000-slot closed forms (bwa, which never
    completes the burst, and both single-carrier references), traced and
    untraced, give every ``RunResult`` field and the end state that the
    per-carrier reference fold gives."""
    cfg = default_static_scenario(3)
    caps = build_caps(cfg, 1001)

    def run(fold=None):
        sim = build_run(cfg, mode, 1001, caps=caps, collect_trace=collect_trace, policy="bwa")
        if fold is None:
            return sim, sim.run()
        with mock.patch.object(CountStack, "_fold", fold):
            return sim, sim.run()
    sim, got = run()
    ref, want = run(lambda stack, fold, keep_occupancy, keep_served=False:
                    fold_reference(stack, fold, keep_occupancy, keep_served))
    assert got.t_slots == cfg.max_slots == 60_000
    _assert_same_run(sim, got, ref, want)


@pytest.mark.parametrize("policy", ["forced", "bwa", "fuzzy_pid"])
@pytest.mark.parametrize("arrivals", [dict(arrival_mode="burst", l=-3, arrival_rate=0),
                                      dict(arrival_mode="per_slot", l=1, arrival_rate=-1)])
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_negative_arrivals_are_refused(policy, arrivals, dtype):
    """A negative burst or per-slot rate raises on every path, for capacities
    of any integer dtype: forced and bwa runs take the closed form, fuzzy_pid
    steps the loop."""
    run = _policy(policy, 1, 0, 4, [SplitAction(1, 1)])
    sim = Simulation(n_scc=1, d_xn=0, caps=np.ones((2, 5), dtype=dtype), max_slots=5,
                     **run, **arrivals)
    with pytest.raises(ValueError, match="arrivals must be non-negative"):
        sim.run()


@pytest.mark.parametrize("policy, closed_form", [
    ("bwa", True), ("stationary_k", True), ("forced", True), ("forced_action", True),
    ("fuzzy_pid", False), ("nofuzzy_pid", False), ("ltr", False), ("qlearning", False),
])
def test_only_open_loop_runs_skip_the_slot_loop(policy, closed_form):
    """bwa, stationary_k and forced runs call neither ``step`` nor a per-slot
    phase, in burst and per-slot mode alike; the closed-loop policies step
    the loop through ``step`` alone, once for every slot they do not hold."""
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
        calls = {name: 0 for name in PHASES + ("step",)}
        for name in calls:
            method = getattr(sim.stack, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)
            setattr(sim.stack, name, counted)
        held = _held_windows(sim)
        result = sim.run()
        assert result.t_slots > 0
        steps = 0 if closed_form else result.t_slots - sum(held)
        assert calls == {**dict.fromkeys(PHASES, 0), "step": steps}, (policy, mode)
        assert bool(held) == (not closed_form), (policy, mode)


def test_scripted_replay_is_offered_a_window_and_folds_none():
    """The loop counts repeated actions for every closed-loop controller.  A
    scripted replay is offered a window after ``HOLD_MIN`` repeats, and the
    base ``hold`` refuses it without calling ``window``: no fold, and every
    slot is stepped."""
    n = 2 * engine.HOLD_MIN
    sim = Simulation(controller=ScriptedController([PCC_ONLY_ACTION] * n), l=0,
                     arrival_mode="per_slot", arrival_rate=1, n_scc=1, d_xn=1,
                     caps=np.ones((2, n), dtype=np.int64), max_slots=n)
    offers, steps = [], []
    hold, step = sim.plan.hold, sim.stack.step

    def offered(t, action, size, window):
        offers.append(t)
        return hold(t, action, size, window)

    def stepped(t, *args):
        steps.append(t)
        return step(t, *args)

    def folded(*args, **kwargs):
        raise AssertionError("a refused window was folded")
    sim.plan.hold, sim.stack.step = offered, stepped
    sim.stack.fold = sim.stack.fold_repeat = folded
    result = sim.run()
    assert offers == [engine.HOLD_MIN]
    assert steps == list(range(n)) and result.t_slots == n
    assert result.a_p.tolist() == [1] * n


class _SignedZeroState(Controller):
    """Plays the PCC and reports ``g`` as 0.0 for three slots, then -0.0
    for three, and so on: states equal under ``==`` that print apart."""

    name = "signed_zero"

    def decide(self, t, b):
        self.t = t
        return PCC_ONLY_ACTION

    def trace_state(self):
        return (0.0, 0.0, 0.0, -0.0 if self.t // 3 % 2 else 0.0, 0, "fixed")


def test_run_length_trace_states_keep_the_sign_of_zero():
    """The loop joins a stepped slot's state to the entry before only when
    it is made of the same objects, so a -0.0 is not folded into a 0.0."""
    n = 40
    sim = Simulation(controller=_SignedZeroState(), l=0, arrival_mode="per_slot",
                     arrival_rate=1, n_scc=1, d_xn=1, caps=np.ones((2, n), dtype=np.int64),
                     max_slots=n, collect_trace=True)
    g = sim.run().state[3]
    assert np.signbit(g).tolist() == [t // 3 % 2 == 1 for t in range(n)]


class _Observer(Controller):
    """Plays the PCC and records the stack's delivered count each time it is
    observed; it overrides ``observe`` and declares nothing else."""

    name = "observer"

    def __init__(self):
        self.seen = []

    def decide(self, t, b):
        return PCC_ONLY_ACTION

    def observe(self, served, b, stack):
        self.seen.append(stack.delivered)


class _PccOnly(Controller):
    name = "pcc_only"

    def decide(self, t, b):
        return PCC_ONLY_ACTION


def test_observe_is_called_only_where_the_class_overrides_it():
    """A controller whose class overrides ``observe`` gets one call per
    stepped slot (the base ``hold`` refuses every window, so all are
    stepped); one whose class does not gets none."""
    n = 2 * engine.HOLD_MIN + 3

    def run(controller):
        return Simulation(controller=controller, l=0, arrival_mode="per_slot",
                          arrival_rate=1, n_scc=1, d_xn=1,
                          caps=np.ones((2, n), dtype=np.int64), max_slots=n).run()
    observer = _Observer()
    result = run(observer)
    assert result.t_slots == n
    assert observer.seen == np.cumsum(result.delivered).tolist()
    calls = []
    with mock.patch.object(Controller, "observe", lambda self, *feedback: calls.append(1)):
        assert run(_PccOnly()).t_slots == n
    assert calls == []


@pytest.mark.parametrize("policy", LOOP_POLICIES[:4])
def test_only_ltr_sums_the_xn_ring_per_slot(policy):
    """``stack.xn_inflight`` counts, per SCC, the Xn ring cells that fed
    it.  ltr reads it once a slot it steps, in ``observe``, and never in
    ``hold``; the other closed-loop policies never do, so only the
    end-of-run call in ``_result`` is left."""
    cfg = default_static_scenario(2).copy(l=300, max_slots=400)
    sim = build_run(cfg, RunMode.CA, caps=build_caps(cfg), policy=policy)
    held = _held_windows(sim)
    calls = []
    method = sim.stack.xn_inflight

    def counted():
        calls.append(None)
        return method()
    sim.stack.xn_inflight = counted
    result = sim.run()
    assert result.t_slots > 100
    assert len(calls) == (result.t_slots - sum(held) if policy == "ltr" else 0) + 1


def test_qlearning_buckets_its_state_once_per_slot():
    """qlearning buckets each slot's state once where the slot is played,
    stepped or held.  A stepped slot's ``observe`` buckets the stack's buffer difference, and the
    next ``decide`` takes that state instead of bucketing the same value
    again: one lookup a stepped slot, and one more for the first slot's
    ``decide``.  A window qlearning folds buckets the states of all its
    slots in one array lookup, once, and the slot after the held ones takes
    the last held slot's state; the slots of a window cut short are
    bucketed there and again when they are stepped."""
    cfg = default_static_scenario(2).copy(l=300, max_slots=400)
    sim = build_run(cfg, RunMode.CA, caps=build_caps(cfg), policy="qlearning")
    table = sim.controller.table
    calls, arrays, looked, held = [], [], [], []
    bucket, buckets, hold = table.bucket, table.buckets, sim.plan.hold

    def counted(b):
        calls.append(b)
        return bucket(b)

    def counted_array(b):
        arrays.append(len(b))
        return buckets(b)

    def counted_hold(t, action, n, window):
        def seen(*schedule):
            offered = window(*schedule)
            looked.append(len(offered.delivered))
            return offered
        k = hold(t, action, n, seen)
        held.append(k)
        return k
    table.bucket, table.buckets, sim.plan.hold = counted, counted_array, counted_hold
    result = sim.run()
    assert result.t_slots > 100 and sum(held) > 0
    assert len(calls) == result.t_slots - sum(held) + 1
    assert arrays == looked


@pytest.mark.parametrize("policy", LOOP_POLICIES[:4])
def test_the_loop_reads_the_buffer_difference_once_per_slot(policy):
    """The loop reads ``stack.buffer_difference`` once before slot 0, once
    after every slot it steps, the one it stops on included, and once after
    every held window, and hands that value to ``observe`` and the next
    ``decide``: no controller reads it again, and a window's fold does not
    read it."""
    cfg = default_static_scenario(2).copy(l=300, max_slots=400)
    sim = build_run(cfg, RunMode.CA, caps=build_caps(cfg), policy=policy)
    held = _held_windows(sim)
    calls = []
    method = sim.stack.buffer_difference

    def counted():
        calls.append(None)
        return method()
    sim.stack.buffer_difference = counted
    result = sim.run()
    assert result.t_slots > 100
    assert len(calls) == result.t_slots - sum(held) + len(held) + 1
