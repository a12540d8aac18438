"""Single-run simulation loop.

A run wires a workload, a count-level ``CountStack``, precomputed per-slot
carrier capacities (integer packet counts; ``Simulation`` refuses any other
dtype) and one ``fuzzy_pid.Controller`` (a forced action runs as a
``ForcedController``), then executes the fixed per-slot phase order.
Channel sampling is precomputed outside the loop (phase 1 logically,
vectorized physically) so each slot the loop steps is one ``decide``, one
``CountStack.step`` (the whole queue transition), one read of the
buffer difference, which the next ``decide`` takes, and, for a controller
whose class overrides ``Controller.observe``, one ``observe`` given the
slot's served counts, that buffer difference and the stack itself, so a
controller pays only for the state it reads.
Capacity rows become Python ints in chunks that start at
``CAPS_FIRST_CHUNK`` slots and double the slots converted so far, up to
``CAPS_CHUNK`` at a time, so a run that stops at slot s converts at most
``max(CAPS_FIRST_CHUNK, 2 (s + 1))`` slots: a run's cost follows the slots
it steps, not its horizon.  The same loop serves the η runs, oracle
witness replay and the window-identity check.

Most slots of a closed-loop run only repeat the last action: fuzzy_pid in
its ``static`` mode, ltr on the PCC while the PCC's queue drains,
qlearning on its greedy action between exploring slots.  The loop skips
them: once any controller has played one action object ``HOLD_MIN`` slots
in a row, the loop folds a window of that action from the current state
in closed form (``CountStack.fold_repeat``; packets still on the Xn link
surface in its first ``d_xn`` slots), when the controller asks for it:
``HOLD_WINDOW`` slots, doubling while the controller holds them whole, up
to ``HOLD_MAX_WINDOW``, and never past the horizon or the slot that
completes a burst.  A controller that knows its
own schedule hands the fold its per-slot actions instead
(``CountStack.fold``): qlearning, whose exploring slots and coins come
from generator words it buffers a chunk at a time.  The controller's
``hold`` says how many leading slots it would itself have played, and the
stack commits just those (``CountStack.commit``); the loop then
reads the buffer difference once and steps on, converting capacity rows
afresh from ``CAPS_FIRST_CHUNK`` slots.  A fold costs almost the same
whatever the window's length: ``fold_repeat`` over 4 carriers took 32, 35,
44 and 108 µs at 16, 64, 256 and 1,024 slots, and a stepped slot takes
about 4 to 6 µs (shared 2-core host).  Hence the first window of 256
slots: a ``static`` stretch of 100 to 400 slots (38 of fuzzy_pid's 57 on
static seed 1001) takes one or two offers instead of three.  And the loop
offers only after ``HOLD_MIN`` repeats: offering after 8 or 4 made
fuzzy_pid's runs slower, because more windows were cut short.  Each
stepped slot appends one flat row to one list, which becomes columns a
stretch at a time, and a traced run's controller states are one
run-length list for stepped slots, held windows and the closed form
alike (``_add_state``), which ``_result`` turns into columns once.

An open-loop run, whose action in slot t depends on t alone (an
``OpenLoopController``: bwa, stationary_k or forced), feeds a fixed
schedule through the queues.  The PDCP depth and every RLC count are then
Lindley recursions, so ``Simulation.run`` computes such a run in closed
form and skips the loop: it folds the horizon (``CountStack.fold``), cuts
a burst at its completing slot as a held window is cut, and commits.
Every other run steps the loop, which stays the reference the tests check
the closed form and held windows against.  All fill the same trace columns.
Every fold of a run slices one int64 array of the horizon's capacities,
made at most once a run (``Simulation._fold_caps``); the loop and the trace
read the caller's array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import is_, sub

import numpy as np

from casplit.baselines import ForcedController, OpenLoopController
from casplit.fuzzy_pid import Controller, HoldWindow, SplitAction
from casplit.stack import CountStack, Fold

BURST = "burst"
PER_SLOT = "per_slot"
CAPS_FIRST_CHUNK = 16  # capacity columns a run converts to Python rows first
CAPS_CHUNK = 1024  # the most capacity columns converted at a time
HOLD_MIN = 16  # slots one action is played in a row before a hold is tried
# The first window offered, doubling while held whole: a fold of 256 slots
# costs little more than one of 64 (module docstring).
HOLD_WINDOW = 256
HOLD_MAX_WINDOW = 1024  # and stops doubling here
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


def _state_columns(runs: list[tuple[int, tuple]]) -> list[np.ndarray]:
    """The ``trace_state`` columns of a run's ``(n_slots, state)`` entries;
    read-only views that take no storage when there is one entry."""
    if len(runs) == 1:
        (n, state), = runs
        return [np.broadcast_to(np.array(v, dtype=d), n) for v, d in zip(state, STATE_DTYPES)]
    counts = [n for n, _ in runs]
    return [np.repeat(np.array([state[i] for _, state in runs], dtype=d), counts)
            for i, d in enumerate(STATE_DTYPES)]


def _add_state(states: list[tuple[int, tuple]], n: int, state: tuple) -> None:
    """Add ``n`` slots of ``state`` to a run-length list of trace states,
    joined to the last entry if it is made of the same objects (so 0.0 and
    -0.0 stay apart)."""
    if states and all(map(is_, state, states[-1][1])):
        n += states.pop()[0]
    states.append((n, state))


def _stepped(rows: list[int], width: int) -> tuple:
    """The columns of the flat rows of ``width`` ints the loop appended for
    the slots it stepped: delivered, ``a_p``, ``a_s``, ``b`` and, in a
    traced run, the occupancy (carriers by slots).  Each is a copy, so no
    column keeps the whole row array alive.  Empties the list for the next
    stretch."""
    cols = np.fromiter(rows, np.int64, len(rows)).reshape(-1, width).T
    rows.clear()
    part = (cols[0].copy(), cols[1].astype(np.int8), cols[2].astype(np.int8), cols[3].copy())
    return part + (cols[4:].copy(),) if width > 4 else part


def _cap_rows(caps: np.ndarray, n_slots: int, start: int = 0):
    """Each slot's carrier capacities from slot ``start`` on, as Python ints,
    one chunk at a time: ``CAPS_FIRST_CHUNK`` slots, then each chunk as long
    as all before it, up to ``CAPS_CHUNK``.  From slot 0, a run that stops
    at slot s has then converted at most the first chunk or ``2 (s + 1)``
    slots, whichever is more."""
    pos = start
    while pos < n_slots:
        stop = min(n_slots, pos + min(max(pos - start, CAPS_FIRST_CHUNK), CAPS_CHUNK))
        yield caps[:, pos:stop].T.tolist()
        pos = stop


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
        # The whole horizon is checked up front, so where a run stops does
        # not decide whether it raises.
        n = self.max_slots
        if n and self.caps[:, :n].min() < 0:
            raise ValueError("capacity must be non-negative")
        if n and (self.l if self.arrival_mode == BURST else self.arrival_rate) < 0:
            raise ValueError("arrivals must be non-negative")
        if isinstance(self.plan, OpenLoopController):
            return self._run_schedule(self.plan)
        return self._run_loop()

    @cached_property
    def _fold_caps(self) -> np.ndarray:
        """The horizon's capacities as int64, clipped at the most packets
        the run can hold: those in the stack now plus the horizon's arrivals.
        No queue holds more, so the clip serves the same packets and keeps
        the folds' int64 sums from overflowing.  It runs in the capacities'
        own dtype, which holds the bound (it lies below their maximum)."""
        caps = self.caps[:, :self.max_slots]
        arrivals = self.l if self.arrival_mode == BURST else self.arrival_rate * self.max_slots
        most = self.stack.total_ingested + arrivals
        if caps.size and int(caps.max()) > most:
            return np.minimum(caps, caps.dtype.type(most), out=np.empty(caps.shape, np.int64),
                              casting="unsafe")
        return caps.astype(np.int64, copy=False)

    def _completion(self, fold: Fold) -> int:
        """The first slot of ``fold`` on which the burst completes, or its
        length if none does."""
        return int(np.cumsum(fold.delivered).searchsorted(self.l - self.stack.delivered))

    def _run_schedule(self, plan: OpenLoopController) -> RunResult:
        """An open-loop run in closed form; the same result as the loop."""
        n = self.max_slots
        burst = self.arrival_mode == BURST
        a_p, a_s = plan.schedule(n)
        caps = self._fold_caps
        if burst:
            arrivals = np.zeros(n, dtype=np.int64)
            arrivals[:1] = self.l
        else:  # a read-only view: one value for every slot, no per-slot storage
            arrivals = np.broadcast_to(np.int64(self.arrival_rate), n)
        fold = self.stack.fold(caps, a_p, a_s, arrivals, keep_occupancy=self.collect_trace)
        completion = self._completion(fold) if burst else n
        if self.stop_on_complete and completion < n - 1:  # fold the slots up to it again
            n = completion + 1
            a_p, a_s = a_p[:n], a_s[:n]
            fold = self.stack.fold(caps[:, :n], a_p, a_s, arrivals[:n],
                                   keep_occupancy=self.collect_trace)
        self.stack.commit(fold, n)
        completed = completion < self.max_slots
        return self._result(
            delivered=fold.delivered, a_p=a_p, a_s=a_s, b=fold.b, occupancy=fold.occupancy,
            states=[(n, plan.trace_state())] if self.collect_trace else None,
            completed=completed, completion_slot=completion if completed else None)

    def _run_loop(self) -> RunResult:
        n_slots = self.max_slots
        stack = self.stack
        step = stack.step
        buffer_difference = stack.buffer_difference
        rlc = stack.rlc  # ``step`` and ``commit`` update it in place
        plan = self.plan
        decide = plan.decide
        observe = plan.observe if type(plan).observe is not Controller.observe else None
        trace_state = plan.trace_state
        collect_trace = self.collect_trace
        stop_on_complete = self.stop_on_complete
        burst = self.arrival_mode == BURST
        rate = self.arrival_rate
        target = self.l

        # Each stepped slot's row, flat: delivered, a_p, a_s, b and, in a
        # traced run, the RLC counts.
        rows: list[int] = []
        record = rows.extend
        width = 4 + len(rlc) if collect_trace else 4
        # The run's trace states, run-length: (n_slots, trace_state()).
        states: list[tuple[int, tuple]] | None = [] if collect_trace else None
        # The run's columns as arrays: one part for each stretch of stepped
        # slots and each held window.
        parts: list[tuple] = []

        completed = False
        completion_slot: int | None = None
        held, repeats, size = None, 0, HOLD_WINDOW
        caps_rows = chain.from_iterable(_cap_rows(self.caps, n_slots))
        t = 0
        b = buffer_difference()
        while True:
            for t, caps_t in enumerate(caps_rows, t):
                action = decide(t, b)
                arrivals = (target if t == 0 else 0) if burst else rate
                served = step(t, arrivals, action.a_p, action.a_s, caps_t)
                record((stack.received, action.a_p, action.a_s, b))
                b = buffer_difference()
                if observe is not None:
                    observe(t, served, b, stack)
                if collect_trace:
                    record(rlc)
                    _add_state(states, 1, trace_state())
                if burst and not completed and stack.delivered >= target:
                    completed = True
                    completion_slot = t
                    if stop_on_complete:
                        break
                if action is not held:
                    held, repeats = action, 1
                else:
                    repeats += 1
                    if repeats >= HOLD_MIN:
                        break
            else:
                break  # the horizon
            if completed and stop_on_complete:
                break
            # ``held`` has been played ``HOLD_MIN`` slots in a row: offer the
            # controller windows of it from the next slot, doubling while it
            # holds them whole.
            t += 1
            t0, repeats = t, 0
            while t < n_slots:
                n = min(size, n_slots - t)
                k, part = self._hold(t, held, n, burst and not completed, states)
                if k:
                    if rows:
                        parts.append(_stepped(rows, width))
                    parts.append(part)
                    t += k
                    b = buffer_difference()
                if k < n:
                    size = HOLD_WINDOW
                    break
                size = min(2 * size, HOLD_MAX_WINDOW)
            if t > t0:
                # Slots were held: convert afresh from here, CAPS_FIRST_CHUNK
                # slots first.  The next window comes after HOLD_MIN >=
                # CAPS_FIRST_CHUNK stepped slots, so no stretch converts more
                # than twice the slots it steps, and the bound above holds.
                caps_rows = chain.from_iterable(_cap_rows(self.caps, n_slots, t))

        del caps_rows  # free the last capacity chunk before the columns are built
        columns = _stepped(rows, width)
        if parts:  # the parts in slot order, then the last stepped stretch
            columns = [np.concatenate(col, axis=-1) for col in zip(*parts, columns)]
        delivered, a_p, a_s, b, *occupancy = columns
        return self._result(
            delivered=delivered, a_p=a_p, a_s=a_s, b=b,
            occupancy=occupancy[0] if occupancy else None, states=states,
            completed=completed, completion_slot=completion_slot)

    def _hold(self, t: int, action: SplitAction, n: int, cut: bool,
              states: list | None):
        """Offer the controller ``n`` slots of ``action`` from slot ``t`` and
        commit the slots it holds.  The window is folded in closed form when
        the controller first calls ``window()``, so one that refuses without
        looking costs no fold; ``window(a_p, a_s)`` folds the controller's
        own per-slot actions, at most ``n`` slots of them, instead.  With
        ``cut`` (a burst not yet complete), the window stops before the slot
        that would complete it, so the loop steps that slot.  Returns the
        slots held and their columns, and adds the held slots to a traced
        run's ``states``, which the window hands the controller."""
        stack = self.stack
        folded: list[tuple] = []
        mark = len(states or ())

        def window(a_p: np.ndarray | None = None, a_s: np.ndarray | None = None) -> HoldWindow:
            if not folded:
                arrivals = 0 if self.arrival_mode == BURST else self.arrival_rate
                if a_p is None:
                    fold = stack.fold_repeat(self._fold_caps[:, t:t + n], action.a_p,
                                             action.a_s, arrivals, t)
                else:
                    m = len(a_p)
                    fold = stack.fold(self._fold_caps[:, t:t + m], a_p, a_s,
                                      np.full(m, arrivals, np.int64), t, keep_occupancy=True,
                                      keep_served=True)
                m = self._completion(fold) if cut else len(fold.b)
                folded.append((fold, HoldWindow(fold.b[:m], fold.served[:, :m],
                                                fold.occupancy[:, :m], fold.delivered[:m], states),
                               a_p, a_s))
            return folded[0][1]

        k = self.plan.hold(t, action, n, window)
        if not k:
            return 0, ()
        fold, _, a_p, a_s = folded[0]
        stack.commit(fold, k)
        if a_p is None:  # the repeated action
            a_p, a_s = np.full(k, action.a_p, np.int8), np.full(k, action.a_s, np.int8)
        # Copies, so that a window cut short does not keep the whole fold's
        # columns alive until the run's columns are joined.
        part = (fold.delivered[:k].copy(), a_p[:k], a_s[:k], fold.b[:k].copy())
        if states is not None:  # the held slots after the last change of state
            _add_state(states, k - sum(c for c, _ in states[mark:]), self.plan.trace_state())
            part += (fold.occupancy[:, :k].copy(),)
        return k, part

    def _result(self, *, delivered: np.ndarray, a_p: np.ndarray, a_s: np.ndarray,
                b: np.ndarray, occupancy: np.ndarray | None, states: list | None,
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
            capacity=None if states is None else self.caps[:, :len(delivered)],
            state=None if states is None else _state_columns(states),
            final_rlc=final_rlc,
            final_inflight=final_inflight,
            served=served,
        )
