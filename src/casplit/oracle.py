"""Brute-force reference solvers on tiny deterministic instances.

``brute_force_min_T`` searches the full binary action-sequence space for
the fastest burst completion by stepping one ``CountStack`` through
``restore``/phases/``snapshot``; equivalent search prefixes are merged by
deduplicating identical queue states per slot, which leaves the result
identical to plain enumeration.  ``verify_nstep_identity`` checks the
window-throughput bookkeeping identity (delivered equals available work
minus the surviving one-sided backlog) on instances where exactly one side
of the split stays saturated, and the strategy-ranking equivalence between
window throughput and the drift objective.  Both the witness replay and
the identity check are ordinary ``Simulation`` runs, so the search, the
replay and the engine share one slot transition; the differential tests
against ``ProtocolStack`` check that transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from casplit.engine import Simulation
from casplit.fuzzy_pid import SplitAction, PCC_ONLY_ACTION, SCC_ONLY_ACTION
from casplit.stack import CountStack

MAX_L = 14
MAX_SCC = 2
MAX_SLOTS = 24

COMPLEMENTARY_ACTIONS = (PCC_ONLY_ACTION, SCC_ONLY_ACTION)
ALL_ACTIONS = (PCC_ONLY_ACTION, SCC_ONLY_ACTION, SplitAction(1, 1), SplitAction(0, 0))


@dataclass
class TinyInstance:
    """Desk-sized deterministic instance; capacities are explicit per slot."""

    l: int
    n_scc: int
    caps: list[list[int]]  # one row per carrier (PCC first), one column per slot
    d_xn: int = 0
    max_slots: int = MAX_SLOTS
    preseed_rlc: list[int] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.l <= MAX_L:
            raise ValueError(f"l must be in [1, {MAX_L}]")
        if not 1 <= self.n_scc <= MAX_SCC:
            raise ValueError(f"n_scc must be in [1, {MAX_SCC}]")
        if self.max_slots > MAX_SLOTS:
            raise ValueError(f"max_slots bounded by {MAX_SLOTS} (search space cap)")
        if len(self.caps) != 1 + self.n_scc:
            raise ValueError("caps must cover every carrier")
        if any(len(row) < self.max_slots for row in self.caps):
            raise ValueError("caps rows must span max_slots")
        if any(c < 0 for row in self.caps for c in row):
            raise ValueError("caps must be non-negative")
        if self.preseed_rlc and (len(self.preseed_rlc) != 1 + self.n_scc
                                 or any(c < 0 for c in self.preseed_rlc)):
            raise ValueError("preseed_rlc must list one non-negative occupancy per carrier")
        if self.d_xn < 0:
            raise ValueError("d_xn must be non-negative")

    def caps_array(self, n_slots: int | None = None) -> np.ndarray:
        n = self.max_slots if n_slots is None else n_slots
        if any(len(row) < n for row in self.caps):
            raise ValueError(f"instance capacities span fewer than {n} slots")
        return np.array([row[:n] for row in self.caps], dtype=np.int64)


@dataclass
class OracleResult:
    feasible: bool
    t_star: int | None
    actions: list[SplitAction]
    per_slot_throughput: list[int]
    states_explored: int = 0


class ScriptedController:
    """Plays back a fixed action list (witness replay)."""

    name = "scripted"

    def __init__(self, actions: list[SplitAction]):
        self.actions = actions

    def decide(self, t: int, b: int) -> SplitAction:
        return self.actions[t] if t < len(self.actions) else self.actions[-1]

    def observe(self, t, delivered, rlc_occ, inflight) -> None:
        pass


def brute_force_min_T(inst: TinyInstance, allow_noncomplementary: bool = False) -> OracleResult:
    """Exhaustive minimum-completion-time search over action sequences.

    By default the search space is restricted to complementary actions;
    the flag widens it to the full two-bit action set to quantify the cost
    of that restriction.
    """
    if inst.preseed_rlc and any(inst.preseed_rlc):
        raise ValueError("min-T search expects an initially empty stack")
    n_car = 1 + inst.n_scc
    actions = ALL_ACTIONS if allow_noncomplementary else COMPLEMENTARY_ACTIONS
    stack = CountStack(inst.n_scc, inst.d_xn)
    stack.pdcp_ingest(inst.l)
    done = lambda st: st[0] == 0 and not any(st[1]) and not any(map(any, st[2]))

    # Every state of layer t shares the Xn ring phase t % (d_xn + 1), so
    # equal snapshots within a layer are equal queue states.
    frontier = [stack.snapshot()]
    parents: list[dict] = []  # one layer per slot: state -> (parent, action, served)
    explored = 0
    for t in range(inst.max_slots):
        caps_t = [inst.caps[c][t] for c in range(n_car)]
        nxt: dict = {}
        winner = None
        for state in frontier:
            for action in actions:
                stack.restore(state)
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


def replay_witness(inst: TinyInstance, actions: list[SplitAction]):
    """Replay a witness as a ``Simulation`` run of a scripted controller.

    Returns (completion_slot_count or None, per-slot deliveries).
    """
    sim = Simulation(
        l=inst.l, arrival_mode="burst", arrival_rate=0, n_scc=inst.n_scc,
        d_xn=inst.d_xn, caps=inst.caps_array(len(actions)),
        controller=ScriptedController(actions), max_slots=len(actions),
        stop_on_complete=True,
    )
    result = sim.run()
    t = result.completion_slot + 1 if result.completed else None
    return t, result.delivered.tolist()


@dataclass
class IdentityReport:
    valid_case: str | None  # "case1", "case2" or None
    holds: bool | None
    delta_h: int
    workload: int
    delivered: int
    b0: int
    dispatched: list[int]
    violations: list[str] = field(default_factory=list)


def verify_nstep_identity(inst: TinyInstance, pattern: list[SplitAction],
                          n: int) -> IdentityReport:
    """Check ``delivered == workload - |backlog drift|`` over an n-slot window.

    The instance runs as one ``Simulation`` with a saturated per-slot
    source and the repeating action pattern.  The identity applies when
    exactly one side stays saturated for the whole window (serving at
    capacity every slot) while the other side ends the window empty;
    assumption violations are reported, not raised.  Service never exceeds
    capacity in a slot, so a side served at capacity every slot is exactly
    a side whose window total equals its capacity total.
    """
    if n > inst.max_slots:
        raise ValueError("window exceeds instance horizon")
    n_car = 1 + inst.n_scc
    preseed = list(inst.preseed_rlc) if inst.preseed_rlc else [0] * n_car
    sim = Simulation(
        l=inst.l, arrival_mode="per_slot",
        arrival_rate=1 + inst.n_scc,  # covers the widest dispatch a pattern can ask for
        n_scc=inst.n_scc, d_xn=inst.d_xn, caps=inst.caps_array(n),
        controller=ScriptedController([pattern[t % len(pattern)] for t in range(n)]),
        max_slots=n, preseed_rlc=preseed, stop_on_complete=False,
    )
    result = sim.run()
    b0 = preseed[0] - sum(preseed[1:])
    out = sim.stack.out_counts  # preseed plus dispatched, per carrier
    dispatched = [o - p for o, p in zip(out, preseed)]
    delivered = result.total_delivered
    cap_sums = [sum(row[:n]) for row in inst.caps]
    pcc_at_cap = result.served[0] == cap_sums[0]
    scc_at_cap = result.served[1:] == cap_sums[1:]
    sccs_end_empty = not any(result.final_rlc[1:]) and not any(result.final_inflight)
    pcc_end_empty = result.final_rlc[0] == 0

    violations = []
    if pcc_at_cap and sccs_end_empty:
        case = "case1"
        delta_h = out[0] - cap_sums[0]
    elif scc_at_cap and pcc_end_empty:
        case = "case2"
        delta_h = sum(cap_sums[1:]) - sum(out[1:])
    else:
        if not pcc_at_cap:
            violations.append("pcc served below capacity in the window")
        if not sccs_end_empty:
            violations.append("scc backlog or in-flight packets survive the window")
        if not scc_at_cap:
            violations.append("an scc served below capacity in the window")
        if not pcc_end_empty:
            violations.append("pcc backlog survives the window")
        return IdentityReport(None, None, 0, 0, delivered, b0, dispatched, violations)

    workload = sum(out)
    holds = delivered == workload - abs(delta_h)
    return IdentityReport(case, holds, delta_h, workload, delivered, b0, dispatched)


def drift_objective(inst: TinyInstance, pattern: list[SplitAction], n: int) -> float:
    """Window-mean form of the one-step drift objective for a pattern.

    Uses the instance's (constant) capacities as the service drift and the
    window-mean action shares; smaller is predicted-better.
    """
    for row in inst.caps:
        if len(set(row[:n])) != 1:
            raise ValueError("drift objective needs constant capacities")
    drift = inst.caps[0][0] - sum(inst.caps[1 + s][0] for s in range(inst.n_scc))
    slots = [pattern[t % len(pattern)] for t in range(n)]
    mean_p = sum(a.a_p for a in slots) / n
    mean_s = sum(a.a_s for a in slots) / n
    b0 = (inst.preseed_rlc[0] - sum(inst.preseed_rlc[1:])) if inst.preseed_rlc else 0
    return abs(b0 + (n + 1) * (mean_p - inst.n_scc * mean_s - drift))


def ranking_consistent(inst: TinyInstance, patterns: list[list[SplitAction]],
                       n: int) -> tuple[bool, list[tuple[float, int]]]:
    """True when ascending drift objective never inverts descending window
    throughput across the given stationary patterns (ties allowed)."""
    rows = []
    for pattern in patterns:
        report = verify_nstep_identity(inst, pattern, n)
        if report.valid_case is None:
            raise ValueError(f"pattern breaks the identity assumptions: {report.violations}")
        rows.append((drift_objective(inst, pattern, n), report.delivered))
    ok = all(
        not (ri[0] < rj[0] and ri[1] < rj[1])
        for ri in rows for rj in rows
    )
    return ok, rows


# -- instance generators ------------------------------------------------------


def gen_min_t_instance(rng: np.random.Generator, label: str = "") -> TinyInstance:
    """Random burst instance for near-optimality comparisons.

    Capacities are constant per carrier with at most one brief early outage
    window, so every carrier remains usable and completion is guaranteed
    well inside the horizon.
    """
    horizon = 10 * MAX_SLOTS  # room for slower splitters to finish too
    l = int(rng.integers(4, 13))
    n_scc = int(rng.integers(1, 3))
    d_xn = int(rng.integers(0, 3))
    ratio = int(rng.integers(1, 3))
    caps = [[ratio] * horizon]
    for _ in range(n_scc):
        caps.append([1] * horizon)
    if rng.random() < 0.5:
        victim = int(rng.integers(0, 1 + n_scc))
        start = int(rng.integers(0, 6))
        length = int(rng.integers(1, 4))
        for t in range(start, start + length):
            caps[victim][t] = 0
    return TinyInstance(l=l, n_scc=n_scc, caps=caps, d_xn=d_xn, label=label)


def gen_identity_instances(count: int) -> list[tuple[TinyInstance, list[SplitAction], int]]:
    """Deterministic family of (instance, pattern, window) triples that meet
    the one-sided saturation assumptions of the window identity."""
    out = []
    variants = []
    for n_scc in (1, 2):
        for cap_p in (1, 2):
            for k in (1, 2, 3):
                variants.append((n_scc, cap_p, k))
    i = 0
    while len(out) < count:
        n_scc, cap_p, k = variants[i % len(variants)]
        n = 8 + 2 * (i % 3)
        pattern = [PCC_ONLY_ACTION if t % (k + 1) == 0 else SCC_ONLY_ACTION
                   for t in range(k + 1)]
        if i % 2 == 0:
            # saturated PCC side: big head start, SCCs drain every slot
            preseed = [(n + 1) * cap_p] + [0] * n_scc
        else:
            # saturated SCC side: big SCC backlogs, PCC keeps up
            preseed = [0] + [n + 2] * n_scc
        caps = [[cap_p] * MAX_SLOTS] + [[1] * MAX_SLOTS for _ in range(n_scc)]
        inst = TinyInstance(l=1, n_scc=n_scc, caps=caps, d_xn=0,
                            preseed_rlc=preseed, label=f"identity-{i}")
        out.append((inst, pattern, n))
        i += 1
    return out
