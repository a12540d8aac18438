"""Brute-force reference solvers on tiny deterministic instances.

``brute_force_min_T`` searches the full binary action-sequence space for
the fastest burst completion.  A search state is one flat tuple of the
queue counts (PDCP depth, RLC counts, Xn ring rows), and each expansion
applies the count-level slot transition to a list copy of it; equivalent
search prefixes are merged by deduplicating identical states per slot,
which leaves the result identical to plain enumeration.
``verify_nstep_identity`` checks the window-throughput bookkeeping identity
(delivered equals available work minus the surviving one-sided backlog) on
instances where exactly one side of the split stays saturated, and the
strategy-ranking equivalence between window throughput and the drift
objective.  Both the witness replay and the identity check are ordinary
``Simulation`` runs, so they step the engine's ``CountStack.step``; the
tests check the search against a reference that steps the ``CountStack``
phase methods, which they also check ``step`` against.  A replay converts
the capacities of the witness's slots alone, so beyond the few slots it
steps it pays a run's fixed set-up and result: on the generated instances,
whose witnesses are 6.6 slots long on average, a replay takes about 70%
as long as the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from casplit.engine import Simulation
from casplit.fuzzy_pid import Controller, SplitAction, PCC_ONLY_ACTION, SCC_ONLY_ACTION

MAX_L = 14
MAX_SCC = 2
MAX_SLOTS = 24

COMPLEMENTARY_ACTIONS = (PCC_ONLY_ACTION, SCC_ONLY_ACTION)
ALL_ACTIONS = (PCC_ONLY_ACTION, SCC_ONLY_ACTION, SplitAction(1, 1), SplitAction(0, 0))


@dataclass
class TinyInstance:
    """Desk-sized deterministic instance; capacities are explicit per slot.

    Construction checks every field and converts the capacities once, so
    they are fixed from then on: ``caps`` is not to be changed afterwards,
    and ``caps_array`` hands out read-only views of that one conversion.
    """

    l: int
    n_scc: int
    caps: list[list[int]]  # one row per carrier (PCC first), one column per slot
    d_xn: int = 0
    max_slots: int = MAX_SLOTS
    preseed_rlc: list[int] = field(default_factory=list)
    label: str = ""
    _caps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # ``type(x) is int`` also rejects bools, which subclass int.
        for name in ("l", "n_scc", "d_xn", "max_slots"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.l <= MAX_L:
            raise ValueError(f"l must be in [1, {MAX_L}]")
        if not 1 <= self.n_scc <= MAX_SCC:
            raise ValueError(f"n_scc must be in [1, {MAX_SCC}]")
        if not 1 <= self.max_slots <= MAX_SLOTS:
            raise ValueError(f"max_slots must be in [1, {MAX_SLOTS}] (search space cap)")
        if len(self.caps) != 1 + self.n_scc:
            raise ValueError("caps must cover every carrier")
        if any(len(row) < self.max_slots for row in self.caps):
            raise ValueError("caps rows must span max_slots")
        cells = list(chain.from_iterable(self.caps))
        if not (set(map(type, cells)) <= {int} and min(cells, default=0) >= 0):
            raise ValueError("caps must be non-negative integers")
        if self.preseed_rlc and (len(self.preseed_rlc) != 1 + self.n_scc or not all(
                type(c) is int and c >= 0 for c in self.preseed_rlc)):
            raise ValueError("preseed_rlc must list one non-negative integer per carrier")
        if not 0 <= self.d_xn <= MAX_SLOTS:  # a packet delayed past the horizon never lands
            raise ValueError(f"d_xn must be in [0, {MAX_SLOTS}]")
        width = min(map(len, self.caps))
        try:
            caps = np.array([row[:width] for row in self.caps], dtype=np.int64)
        except OverflowError:
            raise ValueError("caps must fit in 64-bit integers") from None
        caps.flags.writeable = False
        self._caps = caps

    def caps_array(self, n_slots: int | None = None) -> np.ndarray:
        """The first ``n_slots`` (default ``max_slots``) capacity columns,
        carriers by slots, as a read-only int64 view."""
        n = self.max_slots if n_slots is None else n_slots
        if n > self._caps.shape[1]:
            raise ValueError(f"instance capacities span fewer than {n} slots")
        return self._caps[:, :n]


@dataclass
class OracleResult:
    feasible: bool
    t_star: int | None
    actions: list[SplitAction]
    per_slot_throughput: list[int]
    states_explored: int = 0


class ScriptedController(Controller):
    """Plays back a fixed action list (witness replay)."""

    name = "scripted"

    def __init__(self, actions: list[SplitAction]):
        self.actions = actions

    def decide(self, t: int, b: int) -> SplitAction:
        return self.actions[t] if t < len(self.actions) else self.actions[-1]


def brute_force_min_T(inst: TinyInstance, allow_noncomplementary: bool = False) -> OracleResult:
    """Exhaustive minimum-completion-time search over action sequences.

    By default the search space is restricted to complementary actions;
    the flag widens it to the full two-bit action set to quantify the cost
    of that restriction.  A state is the tuple ``(pdcp_depth, rlc_0 ..
    rlc_n_scc, xn ring rows flattened)``; each expansion makes the slot
    transition of ``CountStack.step`` on a list copy of it.
    """
    if inst.preseed_rlc and any(inst.preseed_rlc):
        raise ValueError("min-T search expects an initially empty stack")
    n_scc = inst.n_scc
    n_car = 1 + n_scc
    d = inst.d_xn
    ring = 1 + n_car  # index of the Xn ring's first row
    actions = ALL_ACTIONS if allow_noncomplementary else COMPLEMENTARY_ACTIONS
    moves = [(a.a_p, a.a_s, a) for a in actions]
    sccs = range(n_scc)

    # Every state of layer t shares the Xn ring phase t % (d_xn + 1), so
    # equal tuples within a layer are equal queue states.  The one finished
    # state is the all-zero tuple.
    empty = (0,) * (1 + n_car + (d + 1) * n_scc)
    frontier = [(inst.l,) + empty[1:]]
    parents: list[dict] = []  # one layer per slot: state -> (parent, action, served)
    explored = 0
    for t in range(inst.max_slots):
        cap_p, *cap_s = [row[t] for row in inst.caps]
        send = ring + (t + d) % (d + 1) * n_scc  # the row this slot's SCC packets enter
        due = ring + t % (d + 1) * n_scc  # the row that surfaces this slot
        nxt: dict = {}
        for state in frontier:
            for a_p, a_s, action in moves:
                st = list(state)
                depth = st[0]
                if a_p and depth:
                    depth -= 1
                    st[1] += 1
                if a_s and depth:
                    k = min(n_scc, depth)
                    depth -= k
                    for i in range(send, send + k):
                        st[i] += 1
                st[0] = depth
                # With d_xn = 0, ``due`` is ``send``: the packets surface here.
                q = st[1]
                served = cap_p if cap_p < q else q
                st[1] = q - served
                for s in sccs:
                    q = st[2 + s] + st[due + s]
                    st[due + s] = 0
                    n = cap_s[s] if cap_s[s] < q else q
                    st[2 + s] = q - n
                    served += n
                ns = tuple(st)
                explored += 1
                if ns not in nxt:
                    nxt[ns] = (state, action, served)
        parents.append(nxt)
        if empty in nxt:
            seq: list[SplitAction] = []
            per_slot: list[int] = []
            node = empty
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
    sim = Simulation(
        l=inst.l, arrival_mode="per_slot",
        arrival_rate=1 + inst.n_scc,  # covers the widest dispatch a pattern can ask for
        n_scc=inst.n_scc, d_xn=inst.d_xn, caps=inst.caps_array(n),
        controller=ScriptedController([pattern[t % len(pattern)] for t in range(n)]),
        max_slots=n, preseed_rlc=inst.preseed_rlc,
    )
    result = sim.run()
    out = sim.stack.out_counts  # preseed plus dispatched, per carrier
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
        return IdentityReport(None, None, 0, 0, delivered, violations)

    workload = sum(out)
    holds = delivered == workload - abs(delta_h)
    return IdentityReport(case, holds, delta_h, workload, delivered)


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
