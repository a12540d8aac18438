"""Fuzzy-gain-scheduled incremental PID traffic splitter.

The controller watches the buffer difference
``B = pcc_occupancy - sum(scc_occupancies)`` and emits one binary routing
action per slot: feed the PCC or feed the SCC group.  The regulated error
is ``B`` itself (setpoint 0); the gain adaptation parks packets in the
secondary queues on its own by stiffening the integral gain.  Operation has
two stages.  During the fill stage (the first horizon worth of slots) both
routes are active so the buffers acquire state.
Afterwards each slot is resolved as one of:

* coast    -- the buffers are exactly empty on both sides: keep playing
              the held impulse schedule (an empty system carries no
              gradient, and re-planning on it walks the schedule
              open-loop);
* probe    -- buffers empty for two full windows: widen the impulse
              spacing to its maximum so spare SCC capacity, invisible
              while nothing queues, gets discovered;
* static   -- the sign of e is unchanged and not running away: repeat the
              previous action;
* dynamic  -- e touched or crossed zero, or a sign-stable run is worsening
              past the escape threshold: re-plan spacing and impulse count.

Re-planning derives the spacing ``k`` from the recent action history and
the impulse count from the PID value of the raw buffer difference; PCC
impulses are laid on a k-grid inside the current window.  The PID value
enters negated: a negative B means the SCC side is overloaded, which must
*increase* the number of PCC impulses.  Gains are adapted by the fuzzy
rule tables only at window boundaries.

A static stretch only repeats an action, so the controller holds it: given
a window of the repeated action computed in closed form, ``hold`` finds
the leading slots that stay static from their buffer differences alone and
makes the gain updates due on them, and the engine skips those slots.  A
gain update is straight-line float arithmetic in the table sum's order,
and the spacing count maps an attribute getter over the history, so the
slots the controller does decide stay cheap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from casplit.stack import CountStack, Fold


@dataclass(frozen=True)
class SplitAction:
    """Per-slot routing decision: ``a_s`` is the group bit for all SCCs."""

    a_p: int
    a_s: int

    def __post_init__(self) -> None:
        if self.a_p not in (0, 1) or self.a_s not in (0, 1):
            raise ValueError("action components must be 0 or 1")


class Controller:
    """A splitting policy as the engine drives it: ``decide`` each slot from
    the buffer difference; ``observe(served, b, stack)`` after the slot,
    only if the class overrides it, with the packets served per carrier,
    the buffer difference the next ``decide`` gets, and the run's
    ``CountStack``, which it reads and never writes (its ``received`` is
    the slot's served total); ``trace_state``, the
    trace's controller columns (PID gains, PID value, spacing k, mode).

    A controller may skip slots it would only repeat its action on: after
    it has played one action object for a while, the engine calls
    ``hold(t, action, n, window)``, where ``window()`` computes
    a ``HoldWindow`` of ``n`` slots of that action from slot ``t`` on, and
    ``window(a_p, a_s)`` one of the per-slot actions of two int8 vectors of
    at most ``n`` slots instead, for a controller that knows its schedule
    (qlearning's exploration).  ``hold`` returns how many leading slots of
    the window it would itself have played, and leaves its state exactly as
    ``decide`` and ``observe`` would have left it after those slots; a
    controller that can tell it holds none returns 0 without calling
    ``window``, which costs a closed-form fold; the base ``hold`` holds
    none."""

    name: str

    def decide(self, t: int, b: int) -> SplitAction:
        raise NotImplementedError

    def observe(self, served: list, b: int, stack: CountStack) -> None:
        pass

    def hold(self, t: int, action: SplitAction, n: int,
             window: Callable[..., "HoldWindow"]) -> int:
        return 0

    def trace_state(self) -> tuple[float, float, float, float, int, str]:
        return (0.0, 0.0, 0.0, 0.0, 0, "fixed")


@dataclass
class HoldWindow:
    """Slots ``t, t + 1, ..., t + m - 1`` of a fixed schedule, as a holding
    controller is offered them: the buffer difference at slot edges
    ``0..m``, before each slot (what its ``decide`` would get) and after
    the last, the end-of-slot RLC counts, carriers by slots, each slot's
    delivered total, and the ``fold`` they come from, whose packets served
    per carrier (``served``, carriers by slots) are derived when first
    read.  In a traced run ``states`` is the run's run-length list of trace
    states: where the controller's ``trace_state`` changes inside the slots
    it holds, ``hold`` appends ``(n_slots, trace_state())`` for each stretch
    before a change, in slot order, and leaves the entries already there
    alone; the engine adds the rest of the held slots with the state
    ``hold`` leaves.  Otherwise it is None."""

    b: np.ndarray
    rlc: np.ndarray
    delivered: np.ndarray
    fold: Fold = field(repr=False)
    states: list | None = None

    @property
    def served(self) -> np.ndarray:
        return self.fold.served[:, :len(self.delivered)]


ACTIVE_BOTH = SplitAction(1, 1)
PCC_ONLY_ACTION = SplitAction(1, 0)
SCC_ONLY_ACTION = SplitAction(0, 1)


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float


Table = tuple[tuple[float, float], tuple[float, float]]

# Row index follows the membership weight of "error near zero": row 0 applies
# when the normalized error is small, row 1 when it is large; column 0 when
# the error is steady, column 1 when it moves fast.  A small error relaxes
# the gains (strongly so when it is also noisy), a large error stiffens
# them.  Because the scheduler maps the PID value straight to an impulse
# count, the integral gain sets where the buffer difference settles
# (proportional droop); growing it under a sustained offset is the adaptive
# layer's integral action.
DEFAULT_T_P: Table = ((-0.10, -0.50), (0.30, 0.20))
DEFAULT_T_I: Table = ((-0.004, -0.05), (0.10, 0.05))
DEFAULT_T_D: Table = ((-0.02, -0.10), (0.06, 0.04))
DEFAULT_GAINS = PidGains(0.5, 0.2, 0.1)


@dataclass
class FuzzyConfig:
    """Tuning surface of the fuzzy gain scheduler and impulse planner."""

    b_max: int = 96
    t_p: Table = DEFAULT_T_P
    t_i: Table = DEFAULT_T_I
    t_d: Table = DEFAULT_T_D
    gain_min: float = 0.02
    gain_max: float = 1.0
    membership_width: float = 0.25
    membership_width_change: float = 0.035

    def __post_init__(self) -> None:
        if self.b_max <= 0:
            raise ValueError("b_max must be positive")
        if not self.gain_min <= self.gain_max:
            raise ValueError(f"gain_min ({self.gain_min}) must not exceed "
                             f"gain_max ({self.gain_max})")


def membership(x: float, width: float = 1.0) -> float:
    """Triangular membership, peak 1 at zero, reaching 0 at ``|x| = width``."""
    return max(0.0, 1.0 - abs(x) / width)


def fuzzify(b: float, b_prev: float, cfg: FuzzyConfig) -> tuple[float, float]:
    """Membership degrees of the normalized error and error change.

    The two axes carry separate triangular widths: per-slot error changes
    are tiny against the buffer scale, so the change axis usually needs a
    much narrower width to discriminate calm from busy regimes.
    """
    xb = min(max(b / cfg.b_max, -1.0), 1.0)
    xe = min(max((b - b_prev) / (2.0 * cfg.b_max), -1.0), 1.0)
    return membership(xb, cfg.membership_width), membership(xe, cfg.membership_width_change)


def update_gains(gains: PidGains, d_b: float, d_e: float, cfg: FuzzyConfig) -> PidGains:
    """One fuzzy inference step on all three gains.

    The increment is the doubly weighted table read
    ``sum_ij w_i * T_ij * (w_i * v_j) * v_j`` with ``w = [d_b, 1-d_b]`` and
    ``v = [d_e, 1-d_e]``; the inner product weights each rule by its joint
    firing strength.  Results are clamped to the configured gain range.
    Each sum is written out term by term in the order ``sum`` adds them,
    from an integer 0, so every float operation is the one a table loop
    makes.
    """
    if not (0.0 <= d_b <= 1.0 and 0.0 <= d_e <= 1.0):
        raise ValueError("membership degrees must lie in [0, 1]")
    w0, w1 = d_b, 1.0 - d_b
    v0, v1 = d_e, 1.0 - d_e
    f00, f01, f10, f11 = w0 * v0, w0 * v1, w1 * v0, w1 * v1  # joint firing strengths
    lo, hi = cfg.gain_min, cfg.gain_max
    (p00, p01), (p10, p11) = cfg.t_p
    (i00, i01), (i10, i11) = cfg.t_i
    (d00, d01), (d10, d11) = cfg.t_d
    kp = gains.kp + (0 + w0 * p00 * f00 * v0 + w0 * p01 * f01 * v1
                     + w1 * p10 * f10 * v0 + w1 * p11 * f11 * v1)
    ki = gains.ki + (0 + w0 * i00 * f00 * v0 + w0 * i01 * f01 * v1
                     + w1 * i10 * f10 * v0 + w1 * i11 * f11 * v1)
    kd = gains.kd + (0 + w0 * d00 * f00 * v0 + w0 * d01 * f01 * v1
                     + w1 * d10 * f10 * v0 + w1 * d11 * f11 * v1)
    return PidGains(min(max(kp, lo), hi), min(max(ki, lo), hi), min(max(kd, lo), hi))


def pid_increment(gains: PidGains, b_hist: tuple[int, int, int]) -> float:
    """Second-order incremental PID value from (B, B previous, B before that)."""
    b0, b1, b2 = b_hist
    return gains.kp * (b0 - b1) + gains.ki * b0 + gains.kd * (b0 - 2 * b1 + b2)


_A_P, _A_S = attrgetter("a_p"), attrgetter("a_s")


def compute_k(history: Sequence[SplitAction], n_scc: int) -> int:
    """Auxiliary spacing ratio from the trailing action history.

    Counts every SCC's activity (the group bit fires all of them), divides
    by the PCC activity, floors, and clamps to at least 1.  An all-SCC
    history divides by a clamped denominator of 1 instead of zero.
    """
    if not history:
        raise ValueError("history must be non-empty")
    sum_p = sum(map(_A_P, history))
    sum_s = n_scc * sum(map(_A_S, history))
    return max(1, sum_s // max(1, sum_p))


def schedule_action(t: int, n: int, k: int, g: float) -> SplitAction:
    """Impulse-train slot decision for slot ``t`` inside a window of ``n``.

    The window position ``r = t mod n`` is split in two segments by the
    rounded impulse count ``g_int = clamp(round(g), 0, (n-1)//k)``.  In the
    first segment (``r <= g_int*k``) the PCC fires on multiples of ``k``;
    beyond it the PCC fires on multiples of ``k+1``.  All other slots go to
    the SCC group.  Returns the shared ``PCC_ONLY_ACTION`` or
    ``SCC_ONLY_ACTION``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError("window must span at least 2 slots")
    g_int = min(max(int(round(g)), 0), (n - 1) // k)
    r = t % n
    if r <= g_int * k:
        a_p = 1 if (r % k == 0 and 1 <= r // k <= g_int) else 0
    else:
        a_p = 1 if (r % (k + 1) == 0 and r >= k + 1) else 0
    return PCC_ONLY_ACTION if a_p else SCC_ONLY_ACTION


class FuzzyPidController(Controller):
    """Stateful splitter; one instance drives one simulation run.
    ``adapt_gains`` turns the fuzzy gain updates on."""

    name = "fuzzy_pid"
    adapt_gains = True

    def __init__(self, n: int, n_scc: int, cfg: FuzzyConfig | None = None,
                 gains: PidGains = DEFAULT_GAINS):
        if n < 2:
            raise ValueError("horizon must be at least 2 slots")
        self.n = n
        self.n_scc = n_scc
        self.cfg = cfg if cfg is not None else FuzzyConfig()
        if self.adapt_gains:  # fuzzify divides by both widths
            if not self.cfg.membership_width > 0:
                raise ValueError("membership_width must be positive")
            if not self.cfg.membership_width_change > 0:
                raise ValueError("membership_width_change must be positive")
        self.gains = gains
        self._gains0 = gains
        self.history: deque[SplitAction] = deque(maxlen=n)
        self.k: int | None = None
        self.g = 0.0
        self.mode = "init"
        self._b_prev = 0
        self._b_prev2 = 0
        self._zero_streak = 0
        self._escape = self.cfg.b_max / 16

    def _replan(self, t: int, b: int, b1: int, b2: int,
                reset_k: bool = False) -> SplitAction:
        if reset_k:
            # Runaway recovery: a spacing derived from the (bad) recent
            # history would keep the schedule starved of PCC impulses.
            self.k = 1
        else:
            self.k = min(compute_k(self.history, self.n_scc), self.n - 1)
        # The PID value on the raw buffer difference maps straight to the
        # impulse count, negated: a deeply negative B (SCC overload) needs
        # many PCC impulses.
        self.g = pid_increment(self.gains, (b, b1, b2))
        return schedule_action(t, self.n, self.k, -self.g)

    def decide(self, t: int, b: int) -> SplitAction:
        b1, b2 = self._b_prev, self._b_prev2
        self._b_prev, self._b_prev2 = b, b1
        self._zero_streak = self._zero_streak + 1 if b == 0 else 0

        if self.adapt_gains and t > self.n and t % self.n == 0:
            d_b, d_e = fuzzify(b, b1, self.cfg)
            self.gains = update_gains(self.gains, d_b, d_e, self.cfg)

        if t <= self.n:
            self.mode = "init"
            action = ACTIVE_BOTH
        elif self.k is None:
            # First adaptation slot: plan from the fill-stage history.
            self.mode = "dynamic"
            action = self._replan(t, b, b1, b2)
        elif b == 0 and b1 == 0:
            # Exactly empty buffers carry no gradient; keep playing the held
            # schedule, and after a long all-zero stretch probe toward the
            # SCCs, whose spare capacity is invisible while nothing queues.
            if self._zero_streak > 2 * self.n and self.k < self.n - 2:
                self.mode = "probe"
                self.k = self.n - 2
                self.g = 0.0
                # A long-silent plant is a new regime; stale tuning from
                # the previous one is worse than the generic start.
                self.gains = self._gains0
            else:
                self.mode = "coast"
            action = schedule_action(t, self.n, self.k, -self.g)
        elif b * b1 > 0:
            if abs(b) > abs(b1) and abs(b) > self._escape:
                # Sign-stable but moving away from the setpoint beyond the
                # hold band: the inherited action is hurting, re-plan.  A
                # deep runaway also resets the impulse spacing.
                self.mode = "escape"
                action = self._replan(t, b, b1, b2, reset_k=abs(b) > self.cfg.b_max / 4)
            else:
                self.mode = "static"
                action = self.history[-1]
        else:
            self.mode = "dynamic"
            action = self._replan(t, b, b1, b2)

        self.history.append(action)
        return action

    def hold(self, t: int, action: SplitAction, n: int,
             window: Callable[..., HoldWindow]) -> int:
        """The leading slots that stay ``static``: each one's ``b`` keeps the
        sign of the one before and does not run away past the escape band.
        Slot 0 is tested on its own, against the last ``b`` ``decide`` got;
        past it, every ``b`` of the static run has slot 0's sign, so with
        ``x`` the buffer differences times that sign, slot j stays static
        while ``0 < x_j <= max(x_{j-1}, floor(escape))``.  The gain updates
        due on the held slots are made as ``decide`` makes them."""
        if self.mode != "static":
            return 0
        window = window()
        b, b1 = window.b, self._b_prev
        b0 = int(b[0])
        if not (b0 * b1 > 0 and (abs(b0) <= abs(b1) or abs(b0) <= self._escape)):
            return 0
        x = b[:-1] if b0 > 0 else -b[:-1]
        off = x[1:] > np.maximum(x[:-1], int(self._escape))
        off |= x[1:] <= 0
        k = 1 + int(off.argmax()) if off.any() else len(x)
        states, start = window.states, t
        if self.adapt_gains:  # t > n in static mode, so every multiple of n updates
            for s in range(t + -t % self.n, t + k, self.n):
                if states is not None and s > start:
                    states.append((s - start, self.trace_state()))
                    start = s
                j = s - t
                d_b, d_e = fuzzify(int(b[j]), int(b[j - 1]) if j else b1, self.cfg)
                self.gains = update_gains(self.gains, d_b, d_e, self.cfg)
        self._b_prev, self._b_prev2 = int(b[k - 1]), int(b[k - 2]) if k > 1 else b1
        self._zero_streak = 0
        self.history.extend(repeat(action, min(k, self.n)))
        return k

    def trace_state(self) -> tuple[float, float, float, float, int, str]:
        gains = self.gains
        return (gains.kp, gains.ki, gains.kd, float(self.g), self.k or 0, self.mode)


class NoFuzzyController(FuzzyPidController):
    """The same splitter with gain adaptation disabled (gains frozen)."""

    name = "nofuzzy_pid"
    adapt_gains = False
