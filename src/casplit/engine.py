"""Single-run simulation loop.

A run wires a workload, a count-level ``CountStack``, precomputed per-slot
carrier capacities (integer packet counts; ``Simulation`` refuses any other
dtype) and one ``fuzzy_pid.Controller`` (a forced action runs as a
``ForcedController``), then executes the fixed per-slot phase order.
Channel sampling is precomputed outside the loop (phase 1 logically,
vectorized physically) so each slot of the loop is one ``decide``, one
``CountStack.step`` (the whole queue transition), one read of the
buffer difference, which the next ``decide`` takes, and, for a controller
whose ``observes`` is true, one ``observe`` given the slot's served counts,
that buffer difference and the stack itself, so a controller pays only for
the state it reads.
Capacity rows become Python ints in chunks that start at
``CAPS_FIRST_CHUNK`` slots and double the slots converted so far, up to
``CAPS_CHUNK`` at a time, so a run that stops at slot s converts at most
``max(CAPS_FIRST_CHUNK, 2 (s + 1))`` slots: a run's cost follows the slots
it steps, not its horizon.  The same loop serves the η runs, oracle
witness replay and the window-identity check.

An open-loop run, whose action in slot t depends on t alone (an
``OpenLoopController``: bwa, stationary_k or forced), feeds a fixed
schedule through the queues.  The PDCP depth and every RLC count are then
Lindley recursions, so ``Simulation.run`` computes such a run in closed
form (``CountStack.run_schedule``) and skips the loop.  Every other run
steps the loop, which stays the reference the tests check the closed form
against.  Both fill the same trace columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import sub

import numpy as np

from casplit.baselines import ForcedController, OpenLoopController
from casplit.fuzzy_pid import Controller, SplitAction
from casplit.stack import CountStack

BURST = "burst"
PER_SLOT = "per_slot"
CAPS_FIRST_CHUNK = 16  # capacity columns a run converts to Python rows first
CAPS_CHUNK = 1024  # the most capacity columns converted at a time
STATE_DTYPES = (np.float64,) * 4 + (np.int64, object)  # of the trace_state columns


@dataclass
class RunResult:
    """Per-slot observables and completion facts of one finished run."""

    mode: str
    policy: str
    seed: int
    scenario: str  # the run label η pairs runs by, with the seed
    l: int
    arrival_mode: str
    t_slots: int
    completed: bool
    completion_slot: int | None
    total_delivered: int
    delivered: np.ndarray  # per-slot UE receptions
    a_p: np.ndarray
    a_s: np.ndarray
    b: np.ndarray  # buffer difference observed at decision time
    # The trace columns, kept with ``collect_trace``: end-of-slot RLC counts
    # and a slice of the capacities (carriers by slots, PCC first), and the
    # controller's ``trace_state`` columns.
    occupancy: np.ndarray | None = field(default=None, repr=False)
    capacity: np.ndarray | None = field(default=None, repr=False)
    state: list[np.ndarray] | None = field(default=None, repr=False)
    final_rlc: list[int] = field(default_factory=list)
    final_inflight: list[int] = field(default_factory=list)
    served: list[int] = field(default_factory=list)  # per-carrier totals, preseed included

    @property
    def mean_throughput(self) -> float:
        return self.total_delivered / self.t_slots if self.t_slots else 0.0

    @property
    def mean_abs_b(self) -> float:
        return float(np.mean(np.abs(self.b))) if self.t_slots else 0.0

    def windowed_action_ratio(self, window: int) -> list[float]:
        """Per-window ``sum(a_s)/sum(a_p)`` (inf where the PCC never fired)."""
        out = []
        for start in range(0, self.t_slots - window + 1, window):
            s = int(self.a_s[start:start + window].sum())
            p = int(self.a_p[start:start + window].sum())
            out.append(s / p if p else float("inf"))
        return out


def _cap_rows(caps: np.ndarray, n_slots: int):
    """Each slot's carrier capacities as Python ints, one chunk at a time:
    ``CAPS_FIRST_CHUNK`` slots, then each chunk as long as all before it, up
    to ``CAPS_CHUNK``.  A run that stops at slot s has then converted at most
    the first chunk or ``2 (s + 1)`` slots, whichever is more."""
    start = 0
    while start < n_slots:
        stop = min(n_slots, start + min(max(start, CAPS_FIRST_CHUNK), CAPS_CHUNK))
        yield caps[:, start:stop].T.tolist()
        start = stop


class Simulation:
    """One deterministic run over at most ``max_slots`` slots; ``controller``
    stays None for a forced action.  ``mode``, ``policy``, ``seed`` and
    ``scenario`` label the result."""

    def __init__(self, *, l: int, arrival_mode: str, arrival_rate: int,
                 n_scc: int, d_xn: int, caps: np.ndarray, controller: Controller | None = None,
                 forced_action: SplitAction | None = None, max_slots: int,
                 preseed_rlc: list[int] | None = None, collect_trace: bool = False,
                 stop_on_complete: bool = True, mode: str = "ca",
                 policy: str = "", seed: int = 0, scenario: str = ""):
        if (controller is None) == (forced_action is None):
            raise ValueError("need exactly one of a controller and a forced action")
        if arrival_mode not in (BURST, PER_SLOT):
            raise ValueError(f"unknown arrival mode {arrival_mode!r}")
        if caps.shape[0] != 1 + n_scc:
            raise ValueError("capacity array must cover every carrier")
        if caps.dtype.kind not in "iu":  # signed or unsigned integers, nothing else
            raise ValueError(f"capacity must be integer packet counts, got {caps.dtype}")
        self.l = l
        self.arrival_mode = arrival_mode
        self.arrival_rate = arrival_rate
        self.n_scc = n_scc
        self.stack = CountStack(n_scc, d_xn, preseed_rlc)
        self.caps = caps
        self.controller = controller
        self.plan = controller if forced_action is None else ForcedController(forced_action)
        self.max_slots = min(max_slots, caps.shape[1])
        self.collect_trace = collect_trace
        self.stop_on_complete = stop_on_complete
        self.mode = mode
        self.policy = policy if policy else self.plan.name
        self.seed = seed
        self.scenario = scenario

    def run(self) -> RunResult:
        if isinstance(self.plan, OpenLoopController):
            return self._run_schedule(self.plan)
        return self._run_loop()

    def _run_schedule(self, plan: OpenLoopController) -> RunResult:
        """An open-loop run in closed form; the same result as the loop."""
        n = self.max_slots
        burst = self.arrival_mode == BURST
        a_p, a_s = plan.schedule(n)
        if burst:
            arrivals = np.zeros(n, dtype=np.int64)
            arrivals[:1] = self.l
        else:  # a read-only view: one value for every slot, no per-slot storage
            arrivals = np.broadcast_to(np.int64(self.arrival_rate), n)
        delivered, b, occupancy, completion = self.stack.run_schedule(
            self.caps, a_p, a_s, arrivals, target=self.l if burst else None,
            stop_on_complete=self.stop_on_complete, keep_occupancy=self.collect_trace)
        n = len(delivered)
        state = None
        if self.collect_trace:  # one state for every slot: read-only views, no storage
            state = [np.broadcast_to(np.array(v, dtype=d), n)
                     for v, d in zip(plan.trace_state(), STATE_DTYPES)]
        return self._result(
            delivered=delivered, a_p=a_p[:n], a_s=a_s[:n], b=b, occupancy=occupancy,
            state=state, completed=completion is not None, completion_slot=completion)

    def _run_loop(self) -> RunResult:
        # The whole horizon is checked up front, as ``run_schedule`` checks it
        # for the closed form, so where a run stops does not decide whether
        # it raises.
        if self.max_slots and self.caps[:, :self.max_slots].min() < 0:
            raise ValueError("capacity must be non-negative")
        stack = self.stack
        step = stack.step
        buffer_difference = stack.buffer_difference
        rlc = stack.rlc  # ``step`` updates it in place
        plan = self.plan
        decide = plan.decide
        observe = plan.observe if plan.observes else None
        trace_state = plan.trace_state
        collect_trace = self.collect_trace
        stop_on_complete = self.stop_on_complete
        burst = self.arrival_mode == BURST
        rate = self.arrival_rate
        target = self.l

        delivered_hist: list[int] = []
        ap_hist: list[int] = []
        as_hist: list[int] = []
        b_hist: list[int] = []
        occ_rows: list[tuple] = []
        states: list[tuple] = []

        completed = False
        completion_slot: int | None = None

        b = buffer_difference()
        for t, caps_t in enumerate(chain.from_iterable(_cap_rows(self.caps, self.max_slots))):
            action = decide(t, b)
            arrivals = (target if t == 0 else 0) if burst else rate
            served = step(t, arrivals, action.a_p, action.a_s, caps_t)
            b_hist.append(b)
            b = buffer_difference()
            if observe is not None:
                observe(t, served, b, stack)

            delivered_hist.append(sum(served))
            ap_hist.append(action.a_p)
            as_hist.append(action.a_s)
            if collect_trace:
                occ_rows.append(tuple(rlc))
                states.append(trace_state())
            if burst and not completed and stack.delivered >= target:
                completed = True
                completion_slot = t
                if stop_on_complete:
                    break

        occupancy = state = None
        if collect_trace:
            occupancy = np.array(occ_rows, dtype=np.int64)
            occupancy = occupancy.reshape(-1, len(rlc)).T
            state = [np.array(col, dtype=d)
                     for col, d in zip(zip(*states) if states else [()] * 6, STATE_DTYPES)]
        n = len(delivered_hist)
        return self._result(
            delivered=np.fromiter(delivered_hist, np.int64, n),
            a_p=np.fromiter(ap_hist, np.int8, n),
            a_s=np.fromiter(as_hist, np.int8, n),
            b=np.fromiter(b_hist, np.int64, n),
            occupancy=occupancy, state=state, completed=completed,
            completion_slot=completion_slot)

    def _result(self, *, delivered: np.ndarray, a_p: np.ndarray, a_s: np.ndarray,
                b: np.ndarray, occupancy: np.ndarray | None, state: list | None,
                completed: bool, completion_slot: int | None) -> RunResult:
        stack = self.stack
        final_rlc = stack.rlc_occupancy()
        final_inflight = stack.xn_inflight()
        # Served per carrier: what was dispatched to it (``out_counts``) less
        # what still waits in its RLC buffer or on the Xn link.
        served = list(map(sub, stack.out_counts, final_rlc))
        served[1:] = map(sub, served[1:], final_inflight)
        return RunResult(
            mode=self.mode,
            policy=self.policy,
            seed=self.seed,
            scenario=self.scenario,
            l=self.l,
            arrival_mode=self.arrival_mode,
            t_slots=len(delivered),
            completed=completed,
            completion_slot=completion_slot,
            total_delivered=stack.delivered,
            delivered=delivered,
            a_p=a_p,
            a_s=a_s,
            b=b,
            occupancy=occupancy,
            capacity=None if state is None else self.caps[:, :len(delivered)],
            state=state,
            final_rlc=final_rlc,
            final_inflight=final_inflight,
            served=served,
        )
