"""Comparison splitting policies: bandwidth-weighted, delay-based, fixed-gain
PID and tabular Q-learning, plus fixed-pattern policies used by sweeps and
forced single-carrier runs.

The bandwidth-weighted, stationary-k and forced policies are open loop:
their action in slot t depends on t alone, so besides ``decide`` they list
a whole run's actions at once (``OpenLoopController.schedule``).  The
delay-based policy holds: it tells the engine how many slots of a window it
would keep on the PCC (``LtrController.hold``).  Q-learning holds too, over
a window of its own schedule (``QLearningController.hold``): it takes its
exploration draws from raw generator words fetched ``DRAW_CHUNK`` at a
time, the same stream per-slot ``random()`` and ``integers(2)`` calls would
draw, so the slots a window explores on, and their coins, are known before
the window is folded; between them it plays its greedy action, which
rarely changes.  A window runs on where the buffered words end, fetching
the next chunk as ``decide`` would.  It reads and writes its Q table in
place through a flat float view; a held window is replayed on a list copy
of the values, written back once.  It owns its generator, which a run
leaves less than one chunk ahead of those draws."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable

import numpy as np

from casplit.fuzzy_pid import (
    Controller,
    HoldWindow,
    SplitAction,
    PCC_ONLY_ACTION,
    SCC_ONLY_ACTION,
    NoFuzzyController,
)
from casplit.stack import CountStack

__all__ = [
    "BwaController",
    "LtrController",
    "NoFuzzyController",
    "OpenLoopController",
    "QTable",
    "QLearningController",
    "StationaryKController",
    "ForcedController",
]

DRAW_CHUNK = 1024  # raw generator words Q-learning fetches at a time


class OpenLoopController(Controller):
    """A policy whose action in slot t depends on t alone.

    ``schedule(n)`` returns the actions of slots ``0..n-1`` as two int8
    vectors (``a_p``, ``a_s``), the same actions ``decide`` returns one slot
    at a time, so ``Simulation.run`` can compute the whole run in closed
    form.  Such a policy observes nothing and keeps one ``trace_state``.
    """

    def schedule(self, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class BwaController(OpenLoopController):
    """Route in proportion to configured bandwidths.

    Uses a deterministic largest-remainder schedule: over any window of W
    slots the PCC share deviates from ``bw_pcc / total_bw`` by less than
    one slot.
    """

    name = "bwa"

    def __init__(self, bw_pcc: float, bw_sccs: list[float]):
        if bw_pcc < 0 or any(b <= 0 for b in bw_sccs) or not bw_sccs:
            raise ValueError("bandwidths must be positive (PCC may be zero)")
        self.share = bw_pcc / (bw_pcc + sum(bw_sccs))

    def decide(self, t: int, b: int) -> SplitAction:
        a_p = math.floor((t + 1) * self.share) - math.floor(t * self.share)
        return SplitAction(a_p, 1 - a_p)

    def schedule(self, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
        # The same IEEE products and floors as ``decide``, one per slot edge.
        a_p = np.diff(np.floor(np.arange(n_slots + 1) * self.share)).astype(np.int8)
        return a_p, 1 - a_p


class LtrController(Controller):
    """Send to the carrier with the lowest estimated end-to-end delay.

    The estimate uses only state visible at the PDCP host: per-carrier RLC
    occupancy, packets in flight on the Xn link, the known Xn delay, and an
    exponentially averaged recent service rate.  ``observe`` updates the
    rates from the slot's served counts, reads the counts off the stack and
    picks the next slot's action, which ``decide`` returns.  Ties go to the
    PCC, so before any feedback (all queues empty) the action is the PCC.
    ``hold`` takes a window of PCC slots while the PCC's queue stays empty.
    """

    name = "ltr"

    def __init__(self, n_scc: int, d_xn: int, eps_rate: float = 0.05,
                 smoothing: float = 0.05):
        if not eps_rate > 0:  # the delay estimates divide by it
            raise ValueError("eps_rate must be positive")
        if not 0.0 <= smoothing <= 1.0:
            raise ValueError("smoothing must lie in [0, 1]")
        self.n_scc = n_scc
        self.d_xn = d_xn
        self.eps_rate = eps_rate
        self.smoothing = smoothing
        self._keep = 1 - smoothing
        self.rates = [1.0] * (1 + n_scc)
        self._action = PCC_ONLY_ACTION

    def decide(self, t: int, b: int) -> SplitAction:
        return self._action

    def observe(self, served: list, b: int, stack: CountStack) -> None:
        a, keep, eps, d = self.smoothing, self._keep, self.eps_rate, self.d_xn
        rates = self.rates
        for c, n in enumerate(served):
            rates[c] = keep * rates[c] + a * n
        rlc = stack.rlc
        # The smallest SCC estimate as ``min`` finds it (the first, replaced
        # only on ``<``), so the choice is ``pcc <= min(scc_estimates)``.
        best = None
        for s, n in enumerate(stack.xn_inflight(), 1):
            est = (rlc[s] + n + d) / max(rates[s], eps)
            if best is None or est < best:
                best = est
        self._action = (PCC_ONLY_ACTION if rlc[0] / max(rates[0], eps) <= best
                        else SCC_ONLY_ACTION)

    def hold(self, t: int, action: SplitAction, n: int,
             window: Callable[..., HoldWindow]) -> int:
        """From a slot it plays on the PCC, the leading slots that leave the
        PCC's RLC buffer empty: its estimate is then 0, which no SCC estimate
        undercuts, so ``observe`` keeps the PCC whatever the rates.  The
        rates are averaged over those slots as ``observe`` averages them,
        one run of equal served counts at a time (``_average``)."""
        if action is not PCC_ONLY_ACTION or self._action is not action:
            return 0
        window = window()
        queued = np.flatnonzero(window.rlc[0])
        k = int(queued[0]) if queued.size else len(window.delivered)
        served = window.served[:, :k]
        # A run starts at each carrier's first slot and where its count changes.
        starts = np.ones(served.shape, bool)
        np.not_equal(served[:, 1:], served[:, :-1], out=starts[:, 1:])
        starts = np.flatnonzero(starts).tolist()
        rates, ends = self.rates, starts[1:] + [served.size]
        for i, count, end in zip(starts, np.take(served, starts).tolist(), ends):
            rates[i // k] = self._average(rates[i // k], count, end - i)
        return k

    def _average(self, r: float, n: int, slots: int) -> float:
        """The rate ``r`` after ``slots`` slots that each served ``n``
        packets, bit for bit ``r = keep * r + a * n`` slot by slot: with
        ``n`` 0, ``r`` times ``keep`` once a slot (``a * 0`` adds +0.0, and a
        rate is never -0.0); otherwise until ``r`` stands at the float fixed
        point of the update, which it then keeps."""
        keep = self._keep
        if not n:
            return math.prod(repeat(keep, slots), start=r)
        an = self.smoothing * n
        for _ in range(slots):
            r, last = keep * r + an, r
            if r == last:
                break
        return r


@dataclass
class QTable:
    """Tabular action values over discretized buffer-difference states."""

    n_bins: int = 16
    b_max: int = 96
    epsilon: float = 0.1
    learn_rate: float = 0.1
    discount: float = 0.9
    values: np.ndarray = field(init=False)  # (n_bins, 2), zeros when built

    def __post_init__(self) -> None:
        # Every message starts with the field name; the config layer
        # prefixes it with ``controller.``.
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if self.b_max < 1:
            raise ValueError("b_max must be >= 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 <= self.learn_rate <= 1.0:
            raise ValueError("learn_rate must lie in [0, 1]")
        # With rewards >= 0 and a discount of 1, Q grows without bound.
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        self.values = np.zeros((self.n_bins, 2))

        # The bucket of every integer x in [-b_max, b_max]: n_bins equal
        # bins over the range, the top edge in the last.  The same IEEE
        # quotient and product as ``min(int((x + bm) / (2 * bm) * n), n - 1)``,
        # as an array for held windows and a list for single slots.
        bm, n = self.b_max, self.n_bins
        frac = np.arange(2 * bm + 1) / (2 * bm)
        self._bucket_array = np.minimum((frac * n).astype(np.intp), n - 1)
        self._buckets = self._bucket_array.tolist()

    def bucket(self, b: int) -> int:
        """The state of integer buffer difference ``b``, clamped to
        ``[-b_max, b_max]``: one lookup in the list built at construction."""
        bm = self.b_max
        return self._buckets[min(max(b, -bm), bm) + bm]

    def buckets(self, b: np.ndarray) -> np.ndarray:
        """``bucket`` of each integer of ``b``, in one array lookup."""
        bm = self.b_max
        return self._bucket_array[np.clip(b, -bm, bm) + bm]


class QLearningController(Controller):
    """One-step tabular Q-learning over the buffer difference.

    Action 0 feeds the PCC, action 1 the SCC group; the reward is the
    number of packets the UE received in the slot, which ``observe`` reads
    off the stack (``CountStack.received``).  ``observe`` buckets the
    buffer difference the engine hands it, updates the value of the slot's
    state and action, and the next ``decide`` takes that state instead of
    bucketing the same ``b``.  The Q table is read and written in place
    through a flat view of ``table.values`` (state s, action a at
    ``2 s + a``), as Python floats.  ``hold`` makes the same updates over a
    held window, whose schedule it builds from its draws, buffered or
    fetched for the window.

    Exploration draws come from the controller's own generator, so channel
    noise is untouched.  The controller owns that generator: from its first
    exploring ``decide`` it takes raw PCG64 words ``DRAW_CHUNK`` at a time
    and turns them into the draws per-slot ``rng.random()`` and
    ``rng.integers(2)`` calls would return, so after a run the generator
    stands less than one chunk ahead of them.  With ``epsilon`` 0 it draws
    nothing.  It reads the table's ``epsilon``, ``learn_rate`` and
    ``discount`` once, when it is built.
    """

    name = "qlearning"

    def __init__(self, table: QTable, rng: np.random.Generator):
        if type(rng.bit_generator) is not np.random.PCG64:
            raise ValueError("rng must draw from PCG64, the stream its draws reproduce")
        self.table = table
        self.rng = rng
        self._q = memoryview(table.values).cast("B").cast("d")
        self._learn_rate = table.learn_rate
        self._discount = table.discount
        # ``random()`` is a word's top 53 bits over 2**53, so it falls below
        # epsilon exactly when the word falls below this.
        self._explore_below = math.ceil(table.epsilon * 2**53) << 11
        self._pending: int | None = None  # the flat index of the slot's state and action
        self._state: int | None = None  # the bucket of the ``b`` ``observe`` got
        self._words: list[int] | None = None  # raw words not yet used, next last
        self._half: int | None = None  # the draw of a buffered 32-bit half

    def decide(self, t: int, b: int) -> SplitAction:
        s = self._state
        if s is None:
            s = self.table.bucket(b)
        self._state = None
        i = 2 * s
        below = self._explore_below
        if below and (self._words or self._fetch()).pop() < below:
            a = self._coin()
        else:
            q = self._q  # ties go to action 0 (argmax)
            a = 1 if q[i + 1] > q[i] else 0
        self._pending = i + a
        return PCC_ONLY_ACTION if a == 0 else SCC_ONLY_ACTION

    def observe(self, served: list, b: int, stack: CountStack) -> None:
        i = self._pending
        if i is None:
            return
        s_next = self._state = self.table.bucket(b)
        q = self._q
        best = q[2 * s_next]  # ``max``: the first unless the second is greater
        other = q[2 * s_next + 1]
        if other > best:
            best = other
        old = q[i]
        q[i] = old + self._learn_rate * (stack.received + self._discount * best - old)
        self._pending = None

    def hold(self, t: int, action: SplitAction, n: int,
             window: Callable[..., HoldWindow]) -> int:
        """From a slot whose greedy choice is ``action``, the leading slots
        that keep that greedy choice wherever they do not explore.  Whether
        a slot explores, and its coin, come from generator words alone, so
        the window's schedule is known before it is folded: the greedy
        action, a coin on each exploring slot.  The words are the buffered
        ones, then chunks fetched where they run out, as ``decide`` would
        fetch them.  The fold is then replayed slot by slot with
        ``observe``'s arithmetic: each slot's reward is its delivered total
        and its next state the bucket of the buffer difference after it
        (the window's slot edges from 1 on).  The first slot that does not
        explore and whose greedy choice has changed ends the window; the
        words the held slots drew are then taken off the buffer
        (``_take``).  The replay reads and writes a list copy of the Q
        table's values, Python floats indexed faster than the flat view,
        and writes it back into ``table.values`` once: the same array, the
        same bits."""
        q = self._q
        row = 2 * self._state  # set by the ``observe`` of the slot before
        g = 1 if q[row + 1] > q[row] else 0
        if action is not (SCC_ONLY_ACTION if g else PCC_ONLY_ACTION):
            return 0
        below = self._explore_below
        plan = [None] * n  # each slot's coin, None where it plays the greedy action
        if below:
            if not self._words:
                self._fetch()
            fetched: list[tuple[dict, list[int]]] = []
            draws = chain.from_iterable(self._chunks(fetched))
            # For each exploring slot: the slot, the words drawn up to it
            # and the half left after it, as ``decide`` and ``_coin`` draw.
            marks = []
            half, coins = self._half, 0
            for j, w in zip(range(n), draws):
                if w < below:
                    if half is None:
                        w = next(draws)
                        plan[j], half = (w >> 31) & 1, w >> 63
                        coins += 1
                    else:
                        plan[j], half = half, None
                    marks.append((j, j + 1 + coins, half))
            a_s = np.full(n, g, np.int8)
            for j, _, _ in marks:
                a_s[j] = plan[j]
            held = window(1 - a_s, a_s)
        else:
            held = window()

        # Each slot's next state, as the flat index 2 s of its row in Q.
        rows = (2 * self.table.buckets(held.b[1:])).tolist()
        q = self._q.tolist()  # replayed on a list, written back once
        learn_rate, discount = self._learn_rate, self._discount
        k = len(rows)
        for j, (coin, row_next, reward) in enumerate(zip(plan, rows, held.delivered.tolist())):
            if coin is None:
                if (q[row + 1] > q[row]) != g:  # the greedy choice changed
                    k = j
                    break
                i = row + g
            else:
                i = row + coin
            best = q[row_next]  # as ``observe``: the first unless the second is greater
            other = q[row_next + 1]
            if other > best:
                best = other
            old = q[i]
            q[i] = old + learn_rate * (reward + discount * best - old)
            row = row_next
        self.table.values.ravel()[:] = q
        self._state = row // 2
        if below:
            last = bisect_left(marks, (k,))
            if last:
                j, drawn, self._half = marks[last - 1]
                drawn += k - 1 - j
            else:
                drawn = k
            self._take(fetched, drawn)
        return k

    def _chunks(self, fetched: list):
        """The words ``decide`` would draw from here on, chunk by chunk: the
        buffered ones, then each chunk the generator gives when they run
        out, recorded in ``fetched`` with the generator state before it."""
        yield reversed(self._words)
        bg = self.rng.bit_generator
        while True:
            state = bg.state
            fetched.append((state, bg.random_raw(DRAW_CHUNK)[::-1].tolist()))
            yield reversed(fetched[-1][1])

    def _take(self, fetched: list, drawn: int) -> None:
        """Take ``drawn`` words off the buffer and then off the chunks
        ``fetched`` after it, and buffer the rest of the chunk the last of
        them came from.  The first chunk none was drawn from, and any after
        it, goes back: the generator returns to its state before it, so it
        stands where ``decide``'s fetches would have left it."""
        words = self._words
        for state, chunk in fetched:
            if drawn <= len(words):
                self.rng.bit_generator.state = state
                break
            drawn -= len(words)
            words = chunk
        del words[len(words) - drawn:]
        self._words = words

    def _coin(self) -> int:
        """``integers(2)``: bit 31 of a 32-bit half.  A fresh word gives its
        low half, and its high half is kept for the next call."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        w = (self._words or self._fetch()).pop()
        self._half = w >> 63
        return (w >> 31) & 1

    def _fetch(self) -> list[int]:
        """The generator's next ``DRAW_CHUNK`` raw words, last first for
        ``pop``.  The first fetch also takes over a 32-bit half the
        generator had buffered, which its next ``integers(2)`` would use."""
        bg = self.rng.bit_generator
        if self._words is None:
            state = bg.state
            if state["has_uint32"]:
                self._half = state["uinteger"] >> 31
                bg.state = {**state, "has_uint32": 0, "uinteger": 0}
        self._words = bg.random_raw(DRAW_CHUNK)[::-1].tolist()
        return self._words


class StationaryKController(OpenLoopController):
    """Fixed impulse pattern: the PCC fires every (k+1)-th slot."""

    name = "stationary_k"

    def __init__(self, k: int = 1):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k

    def decide(self, t: int, b: int) -> SplitAction:
        a_p = 1 if t % (self.k + 1) == 0 else 0
        return SplitAction(a_p, 1 - a_p)

    def schedule(self, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
        a_p = (np.arange(n_slots) % (self.k + 1) == 0).astype(np.int8)
        return a_p, 1 - a_p

    def trace_state(self) -> tuple[float, float, float, float, int, str]:
        return (0.0, 0.0, 0.0, 0.0, self.k, "fixed")


class ForcedController(OpenLoopController):
    """Emit one fixed action every slot (single-carrier reference modes)."""

    name = "forced"

    def __init__(self, action: SplitAction):
        self.action = action

    def decide(self, t: int, b: int) -> SplitAction:
        return self.action

    def schedule(self, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.full(n_slots, self.action.a_p, dtype=np.int8),
                np.full(n_slots, self.action.a_s, dtype=np.int8))

    def trace_state(self) -> tuple[float, float, float, float, int, str]:
        return (0.0, 0.0, 0.0, 0.0, 0, "forced")
