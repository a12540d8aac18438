import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casplit.core import make_rng
from casplit.fuzzy_pid import SplitAction
from casplit.oracle import (
    ALL_ACTIONS,
    COMPLEMENTARY_ACTIONS,
    MAX_L,
    MAX_SCC,
    MAX_SLOTS,
    OracleResult,
    TinyInstance,
    brute_force_min_T,
    drift_objective,
    gen_identity_instances,
    gen_min_t_instance,
    ranking_consistent,
    replay_witness,
    verify_nstep_identity,
)
from casplit.stack import CountStack

P = SplitAction(1, 0)
S = SplitAction(0, 1)


def flat_instance(l, n_scc, cap_p=1, d_xn=0, horizon=24, **kw):
    caps = [[cap_p] * horizon] + [[1] * horizon for _ in range(n_scc)]
    return TinyInstance(l=l, n_scc=n_scc, caps=caps, d_xn=d_xn,
                        max_slots=horizon, **kw)


def test_single_packet_optimum_is_one_slot():
    res = brute_force_min_T(flat_instance(1, 1))
    assert res.feasible and res.t_star == 1
    assert res.actions[0] == P  # PCC route avoids the Xn pipeline


def test_two_packets_one_scc_frozen_optimum():
    # frozen from the first oracle run: one packet per carrier-grant per
    # slot means two packets need two slots whatever the routing
    res = brute_force_min_T(flat_instance(2, 1))
    assert res.t_star == 2


def test_zero_capacity_infeasible():
    inst = TinyInstance(l=2, n_scc=1, caps=[[0] * 24, [0] * 24], max_slots=24)
    res = brute_force_min_T(inst)
    assert not res.feasible and res.t_star is None


def test_witness_replay_reproduces_t_star():
    rng = make_rng(31, "oracle-replay")
    for i in range(10):
        inst = gen_min_t_instance(rng, label=f"r{i}")
        res = brute_force_min_T(inst)
        assert res.feasible
        replay_t, per_slot = replay_witness(inst, res.actions)
        assert replay_t == res.t_star
        assert sum(per_slot) == inst.l
        assert per_slot == res.per_slot_throughput


def test_adding_capacity_never_slows_completion():
    rng = make_rng(32, "oracle-mono")
    for i in range(8):
        inst = gen_min_t_instance(rng, label=f"m{i}")
        base = brute_force_min_T(inst).t_star
        boosted_caps = [list(row) for row in inst.caps]
        for t in range(len(boosted_caps[0])):
            boosted_caps[0][t] += 1
        boosted = TinyInstance(l=inst.l, n_scc=inst.n_scc, caps=boosted_caps,
                               d_xn=inst.d_xn, max_slots=inst.max_slots)
        assert brute_force_min_T(boosted).t_star <= base


def test_unrestricted_actions_never_worse():
    rng = make_rng(33, "oracle-unres")
    for i in range(6):
        inst = gen_min_t_instance(rng, label=f"u{i}")
        restricted = brute_force_min_T(inst).t_star
        unrestricted = brute_force_min_T(inst, allow_noncomplementary=True).t_star
        assert unrestricted <= restricted


def test_bounds_rejected():
    with pytest.raises(ValueError):
        TinyInstance(l=99, n_scc=1, caps=[[1] * 24, [1] * 24])
    with pytest.raises(ValueError):
        TinyInstance(l=2, n_scc=1, caps=[[1] * 30, [1] * 30], max_slots=30)


def test_identity_case1_exact():
    n = 10
    inst = flat_instance(1, 1, cap_p=2, preseed_rlc=[(n + 1) * 2, 0])
    pattern = [P, S, S]
    report = verify_nstep_identity(inst, pattern, n)
    assert report.valid_case == "case1"
    assert report.holds
    assert report.delivered == report.workload - abs(report.delta_h)


def test_identity_case2_exact():
    n = 10
    inst = flat_instance(1, 2, cap_p=2, preseed_rlc=[0, n + 2, n + 2])
    pattern = [P, S]
    report = verify_nstep_identity(inst, pattern, n)
    assert report.valid_case == "case2"
    assert report.holds


def test_identity_balanced_strategy_delivers_everything():
    # all-PCC at matching capacity: zero drift, window throughput == workload
    n = 8
    inst = flat_instance(1, 1, cap_p=1)
    report = verify_nstep_identity(inst, [P], n)
    assert report.valid_case == "case1"
    assert report.delta_h == 0
    assert report.delivered == report.workload


def test_identity_violations_reported_not_raised():
    n = 10
    inst = flat_instance(1, 1, cap_p=2)  # no backlog: PCC below capacity
    report = verify_nstep_identity(inst, [S, S, P], n)
    assert report.valid_case is None
    assert report.holds is None
    assert report.violations


def test_generated_identity_family():
    triples = gen_identity_instances(24)
    assert len(triples) == 24
    for inst, pattern, n in triples:
        report = verify_nstep_identity(inst, pattern, n)
        assert report.valid_case is not None, report.violations
        assert report.holds


def patterns_for(ks):
    out = []
    for k in ks:
        out.append([P if t % (k + 1) == 0 else S for t in range(k + 1)])
    return out


def test_ranking_matches_throughput_case1():
    n = 12
    inst = flat_instance(1, 2, cap_p=2, preseed_rlc=[(n + 1) * 2, 0, 0])
    ok, rows = ranking_consistent(inst, patterns_for([1, 2, 3, 4]), n)
    assert ok
    objs = [r[0] for r in rows]
    # k grows along the sweep, the PCC share falls, and with a saturated
    # PCC backlog a smaller PCC share scores better (smaller objective)
    assert objs == sorted(objs, reverse=True)


def test_ranking_matches_throughput_case2():
    n = 12
    inst = flat_instance(1, 1, cap_p=2, preseed_rlc=[0, n + 3])
    ok, _ = ranking_consistent(inst, patterns_for([1, 2, 3]), n)
    assert ok


def test_drift_objective_requires_constant_caps():
    caps = [[1] * 24, [1] * 24]
    caps[0][3] = 0
    inst = TinyInstance(l=1, n_scc=1, caps=caps, max_slots=24)
    with pytest.raises(ValueError):
        drift_objective(inst, [P, S], 10)


def _restore(stack: CountStack, state: tuple) -> None:
    """Reset the queue state of ``stack`` to a ``snapshot()``."""
    stack.pdcp_depth = state[0]
    stack.rlc = list(state[1])
    stack.xn = list(state[2])


def _reference_min_T(inst: TinyInstance, allow_noncomplementary: bool = False) -> OracleResult:
    """``brute_force_min_T`` as it stood when it stepped one ``CountStack``
    through its phase methods, from a restored snapshot per expansion: the
    reference the search over flat state tuples is checked against."""
    if inst.preseed_rlc and any(inst.preseed_rlc):
        raise ValueError("min-T search expects an initially empty stack")
    n_car = 1 + inst.n_scc
    actions = ALL_ACTIONS if allow_noncomplementary else COMPLEMENTARY_ACTIONS
    stack = CountStack(inst.n_scc, inst.d_xn)
    stack.pdcp_ingest(inst.l)
    done = lambda st: st[0] == 0 and not any(st[1]) and not any(st[2])

    frontier = [stack.snapshot()]
    parents: list[dict] = []
    explored = 0
    for t in range(inst.max_slots):
        caps_t = [inst.caps[c][t] for c in range(n_car)]
        nxt: dict = {}
        winner = None
        for state in frontier:
            for action in actions:
                _restore(stack, state)
                stack.pdcp_dispatch(action.a_p, action.a_s, t)
                stack.xn_tick(t)
                served = stack.ue_receive(stack.rlc_serve(caps_t))
                ns = stack.snapshot()
                explored += 1
                if ns not in nxt:
                    nxt[ns] = (state, action, served)
                    if winner is None and done(ns):
                        winner = ns
        parents.append(nxt)
        if winner is not None:
            seq: list[SplitAction] = []
            per_slot: list[int] = []
            node = winner
            for layer in reversed(parents):
                node, act, served = layer[node]
                seq.append(act)
                per_slot.append(served)
            seq.reverse()
            per_slot.reverse()
            return OracleResult(True, t + 1, seq, per_slot, explored)
        frontier = list(nxt)
    return OracleResult(False, None, [], [], explored)


@st.composite
def search_instances(draw):
    """Instances of every shape the search takes: random capacities in
    {0, 1, 2} with zero-capacity outages, often too short a horizon to
    finish, and now and then a carrier that never serves."""
    n_scc = draw(st.integers(1, MAX_SCC))
    horizon = draw(st.integers(1, MAX_SLOTS))
    caps = [draw(st.lists(st.integers(0, 2), min_size=horizon, max_size=horizon + 3))
            for _ in range(1 + n_scc)]
    if draw(st.booleans()):
        caps[draw(st.integers(0, n_scc))] = [0] * horizon
    return TinyInstance(l=draw(st.integers(1, MAX_L)), n_scc=n_scc, caps=caps,
                        d_xn=draw(st.integers(0, 3)), max_slots=horizon)


@settings(max_examples=100, deadline=None)
@given(search_instances(), st.booleans())
def test_search_matches_phase_reference(inst, allow_noncomplementary):
    """The search over flat state tuples returns the phase-stepping
    reference's result: feasibility, T*, the witness, its per-slot
    deliveries and the number of states explored."""
    got = brute_force_min_T(inst, allow_noncomplementary)
    want = _reference_min_T(inst, allow_noncomplementary)
    assert (got.feasible, got.t_star, got.actions, got.per_slot_throughput,
            got.states_explored) == (want.feasible, want.t_star, want.actions,
                                     want.per_slot_throughput, want.states_explored)


def test_search_matches_phase_reference_on_generated_instances():
    """The same on the criterion-3 generator's instances, over its full
    horizon, for both action sets."""
    rng = make_rng(34, "oracle-diff")
    for i in range(20):
        inst = gen_min_t_instance(rng, label=f"d{i}")
        for allow in (False, True):
            assert brute_force_min_T(inst, allow) == _reference_min_T(inst, allow)


def test_caps_array_is_one_read_only_conversion():
    """``caps_array`` slices the array built at construction: equal to the
    rows converted per call on ragged rows, never writable, and refusing a
    width past the shortest row as before."""
    caps = [[1, 0, 2, 1, 1, 0, 3], [0, 1, 1, 1, 2], [1, 1, 0, 1, 1, 1]]
    inst = TinyInstance(l=3, n_scc=2, caps=caps, max_slots=4)
    for n in (None, 0, 1, 4, 5):
        want = np.array([row[:4 if n is None else n] for row in caps], dtype=np.int64)
        got = inst.caps_array(n)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[:, :1] = 7
    with pytest.raises(ValueError, match="span fewer than 6 slots"):
        inst.caps_array(6)


def test_caps_beyond_int64_rejected_at_construction():
    with pytest.raises(ValueError, match="64-bit"):
        TinyInstance(l=1, n_scc=1, caps=[[2 ** 63] * 24, [1] * 24])
