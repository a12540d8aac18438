"""Single-run simulation loop.

A run wires a workload, a count-level ``CountStack``, precomputed per-slot
carrier capacities and one splitting policy (or a forced single-carrier
action), then executes the fixed per-slot phase order.  Channel sampling is
precomputed outside the loop (phase 1 logically, vectorized physically) so
the loop itself is integer queue work plus one controller call per slot.
The same loop serves the η runs, oracle witness replay and the
window-identity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from casplit.fuzzy_pid import SplitAction
from casplit.stack import CountStack

BURST = "burst"
PER_SLOT = "per_slot"


@dataclass
class RunResult:
    """Per-slot observables and completion facts of one finished run."""

    mode: str
    policy: str
    seed: int
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
    trace_extra: list[tuple] = field(default_factory=list, repr=False)
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


class Simulation:
    """One deterministic run over at most ``max_slots`` slots."""

    def __init__(self, *, l: int, arrival_mode: str, arrival_rate: int,
                 n_scc: int, d_xn: int, caps: np.ndarray, controller=None,
                 forced_action: SplitAction | None = None, max_slots: int,
                 preseed_rlc: list[int] | None = None, collect_trace: bool = False,
                 stop_on_complete: bool = True, mode: str = "ca",
                 policy: str = "", seed: int = 0):
        if controller is None and forced_action is None:
            raise ValueError("need a controller or a forced action")
        if arrival_mode not in (BURST, PER_SLOT):
            raise ValueError(f"unknown arrival mode {arrival_mode!r}")
        if caps.shape[0] != 1 + n_scc:
            raise ValueError("capacity array must cover every carrier")
        self.l = l
        self.arrival_mode = arrival_mode
        self.arrival_rate = arrival_rate
        self.n_scc = n_scc
        self.stack = CountStack(n_scc, d_xn, preseed_rlc)
        self.caps = caps
        self.controller = controller
        self.forced_action = forced_action
        self.max_slots = min(max_slots, caps.shape[1])
        self.collect_trace = collect_trace
        self.stop_on_complete = stop_on_complete
        self.mode = mode
        self.policy = policy if policy else getattr(controller, "name", "forced")
        self.seed = seed

    def run(self) -> RunResult:
        stack = self.stack
        controller = self.controller
        forced = self.forced_action
        caps_by_slot = self.caps.T.tolist()  # python ints for the hot loop
        burst = self.arrival_mode == BURST
        rate = self.arrival_rate
        target = self.l

        delivered_hist: list[int] = []
        ap_hist: list[int] = []
        as_hist: list[int] = []
        b_hist: list[int] = []
        trace_extra: list[tuple] = []

        completed = False
        completion_slot: int | None = None

        for t in range(self.max_slots):
            caps_t = caps_by_slot[t]
            b = stack.buffer_difference()
            if forced is not None:
                action = forced
            else:
                action = controller.decide(t, b)
            arrivals = (target if t == 0 else 0) if burst else rate
            if arrivals:
                stack.pdcp_ingest(arrivals)
            stack.pdcp_dispatch(action.a_p, action.a_s, t)
            stack.xn_tick(t)
            served = stack.rlc_serve(caps_t)
            n_rx = stack.ue_receive(served)
            occ = stack.rlc_occupancy()
            inflight = stack.xn_inflight()
            if controller is not None:
                controller.observe(t, served, occ, inflight)

            delivered_hist.append(n_rx)
            ap_hist.append(action.a_p)
            as_hist.append(action.a_s)
            b_hist.append(b)
            if self.collect_trace:
                gains = getattr(controller, "gains", None)
                trace_extra.append((
                    tuple(occ),
                    tuple(caps_t),
                    (gains.kp, gains.ki, gains.kd) if gains else (0.0, 0.0, 0.0),
                    float(getattr(controller, "g", 0.0)),
                    int(getattr(controller, "k", 0) or 0),
                    getattr(controller, "mode", "forced" if forced else "fixed"),
                ))
            if burst and not completed and stack.delivered >= target:
                completed = True
                completion_slot = t
                if self.stop_on_complete:
                    break

        t_slots = len(delivered_hist)
        final_rlc = stack.rlc_occupancy()
        final_inflight = stack.xn_inflight()
        in_flight = [0] + final_inflight
        return RunResult(
            mode=self.mode,
            policy=self.policy,
            seed=self.seed,
            l=self.l,
            arrival_mode=self.arrival_mode,
            t_slots=t_slots,
            completed=completed,
            completion_slot=completion_slot,
            total_delivered=stack.delivered,
            delivered=np.array(delivered_hist, dtype=np.int64),
            a_p=np.array(ap_hist, dtype=np.int8),
            a_s=np.array(as_hist, dtype=np.int8),
            b=np.array(b_hist, dtype=np.int64),
            trace_extra=trace_extra,
            final_rlc=final_rlc,
            final_inflight=final_inflight,
            served=[o - q - x for o, q, x in zip(stack.out_counts, final_rlc, in_flight)],
        )
