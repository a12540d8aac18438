"""PDCP and RLC queue dynamics, Xn-delayed SCC delivery, MAC service, UE reception.

The splitter observes only buffer occupancies, so the simulation runs on
``CountStack``: integer queue depths and an Xn ring that holds, for each
of the last ``d_xn + 1`` slots, the number of SCCs that slot fed.  The
tests check it against a sequence-number model of the same phases, which
also checks packet conservation and duplicate-free delivery.  The per-slot
ordering is fixed: ingest, dispatch, Xn surfacing, service, UE count, so
dispatch and Xn arrivals land in the RLC buffers before service runs in the
same slot.  ``CountStack.step`` runs that whole slot in one call, which the
engine's slot loop makes once per slot it steps; ``fold`` and ``commit``
compute slots of a fixed schedule in closed form, from any state, packets
on the Xn link included: the engine folds a whole open-loop run with
``fold`` and a held window of one action with ``fold_repeat``.  A fold is
about two dozen numpy calls whatever its length, so a short one folds all
carriers in one pass; it takes int64 capacities as given, which the engine
prepares once a run.  It derives each slot's deliveries and buffer
difference from the carriers' summed counts, and builds the packets served
per carrier only when they are read (``Fold.served``, which ltr's ``hold``
alone reads).  ``fold_repeat`` writes its dispatch columns as at most three
constant spans, and ``commit`` counts a window's packets from those spans
in Python.  The separate phase methods are the reference the tests check
``step`` and the oracle's search over flat state tuples against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add, sub

import numpy as np


FOLD_ALL_SLOTS = 2048  # the longest fold whose carriers are folded in one pass


def _lindley(start: int, steps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x_t = max(0, x_{t-1} + steps_t)`` from ``x_{-1} = start >= 0`` along
    the last axis, as the reflected walk ``S - min(0, cummin S)`` with
    ``S = start + cumsum(steps)`` (D. V. Lindley, 1952)."""
    walk = np.cumsum(steps, axis=-1, out=out)
    if start:
        walk += start
    floor = np.minimum.accumulate(walk, axis=-1)
    np.minimum(floor, 0, out=floor)
    walk -= floor
    return walk


def _fed(scc: np.ndarray, n_scc: int) -> list[int]:
    """For each SCC s, the slots of ``scc`` (SCCs fed per slot) that fed
    more than s SCCs: the packets SCC s took."""
    if len(scc) > FOLD_ALL_SLOTS:  # where n_scc passes beat bincount's scatter
        return [int(np.count_nonzero(scc > s)) for s in range(n_scc)]
    return list(accumulate(np.bincount(scc, minlength=1 + n_scc).tolist()[:0:-1]))[::-1]


@dataclass
class Fold:
    """A fixed schedule folded from a ``CountStack``'s state (``fold``):
    the slot it starts at, the inputs (int64 capacities, arrivals, packets
    dispatched to the PCC and the number of SCCs fed, per slot, and the
    number of SCCs fed ``d_xn`` slots before each slot, which surface in
    it: the Xn ring's cells, then the schedule's own; ``fold_repeat`` adds
    its constant ``spans``) and the per-slot results: packets delivered
    (all carriers), the buffer difference at each of the n + 1 slot edges
    (before every slot, and after the last one), each carrier's RLC count
    before the first slot and at the end of each (``counts``, carriers by
    n + 1 edges: kept over at most ``FOLD_ALL_SLOTS`` slots, or with the
    occupancies), optionally the end-of-slot counts alone (``occupancy``),
    and the final counts.  The packets served per carrier are derived from
    ``counts`` on first read (``served``)."""

    t0: int
    caps: np.ndarray
    arrivals: np.ndarray
    pcc: np.ndarray
    scc: np.ndarray
    scc_in: np.ndarray | None = None
    # (first slot, slots, packets to the PCC and SCCs fed in each slot)
    spans: list[tuple[int, int, int, int]] | None = None
    delivered: np.ndarray | None = None
    b: np.ndarray | None = None
    counts: np.ndarray | None = None
    occupancy: np.ndarray | None = None
    final_rlc: list[int] | None = None

    @cached_property
    def served(self) -> np.ndarray:
        """The packets each carrier served in each slot (carriers by slots),
        ``q_{t-1} + in_t - q_t``, from ``counts`` and the inflow."""
        counts = self.counts
        served = counts[:, :-1] - counts[:, 1:]
        served[0] += self.pcc
        scc_in = self.scc_in
        served[1:] += np.greater(scc_in, np.arange(len(counts) - 1, dtype=scc_in.dtype)[:, None])
        return served


class CountStack:
    """Count-level queue state of one simulated run.

    Carrier index 0 is the PCC; indices 1..n_scc are the SCCs.  Optional
    ``preseed_rlc`` occupancies put packets straight into the RLC buffers,
    counted as already ingested and dispatched.  Slot t feeds SCCs ``0..k-1``
    one packet each, so the Xn ring keeps one count per slot: cell
    ``(t + d_xn) % (d_xn + 1)`` holds k until ``xn_tick(t + d_xn)`` surfaces
    the packets; ``xn_tick`` must therefore see every slot in order.
    ``step`` runs the five phases of one slot in a single call, and
    ``fold`` (or ``fold_repeat``) and ``commit`` replace them for slots whose
    actions and arrivals are fixed in advance: a whole open-loop run or a
    window of one repeated action; the phases stay the reference the tests
    check them against.
    """

    def __init__(self, n_scc: int, d_xn: int = 0, preseed_rlc: list[int] | None = None):
        if n_scc < 1:
            raise ValueError("need at least one SCC")
        if d_xn < 0:
            raise ValueError("d_xn must be non-negative")
        self.n_scc = n_scc
        self.n_carriers = 1 + n_scc
        self.d_xn = d_xn
        if preseed_rlc and len(preseed_rlc) != self.n_carriers:
            raise ValueError("preseed_rlc must list one occupancy per carrier")
        self.rlc = list(preseed_rlc) if preseed_rlc else [0] * self.n_carriers
        self.xn = [0] * (d_xn + 1)  # SCCs fed, per slot in flight
        self.pdcp_depth = 0
        self.out_counts = list(self.rlc)
        self.total_ingested = sum(self.rlc)
        self.delivered = 0
        self.received = 0  # the UE's count of the last slot ``step`` or ``ue_receive`` ran

    def pdcp_ingest(self, arrivals: int) -> None:
        """Append ``arrivals`` new packets to the PDCP buffer."""
        if arrivals < 0:
            raise ValueError("arrivals must be non-negative")
        self.pdcp_depth += arrivals
        self.total_ingested += arrivals

    def pdcp_dispatch(self, a_p: int, a_s: int, slot: int) -> None:
        """Move head-of-line packets toward the carriers chosen this slot.

        An active PCC takes the head packet; an active SCC group takes the
        next ``min(n_scc, depth)`` packets, one per SCC in index order, which
        surface in their RLC buffers ``d_xn`` slots later.  Dispatching from
        an empty buffer moves nothing; ``out_counts`` records what moved.
        """
        if a_p and self.pdcp_depth:
            self.pdcp_depth -= 1
            self.rlc[0] += 1
            self.out_counts[0] += 1
        if a_s and self.pdcp_depth:
            k = min(self.n_scc, self.pdcp_depth)
            self.pdcp_depth -= k
            self.xn[(slot + self.d_xn) % (self.d_xn + 1)] = k
            for s in range(1, 1 + k):
                self.out_counts[s] += 1

    def xn_tick(self, slot: int) -> None:
        """Surface the in-flight packets due this slot."""
        due = slot % (self.d_xn + 1)
        for s in range(1, 1 + self.xn[due]):
            self.rlc[s] += 1
        self.xn[due] = 0

    def rlc_serve(self, capacities) -> list[int]:
        """Serve ``min(capacity, occupancy)`` packets per carrier; returns the counts."""
        served = []
        for c in range(self.n_carriers):
            cap = capacities[c]
            if cap < 0:
                raise ValueError("capacity must be non-negative")
            n = min(cap, self.rlc[c])
            self.rlc[c] -= n
            served.append(n)
        return served

    def ue_receive(self, served: list[int]) -> int:
        """Count this slot's deliveries at the UE; returns the slot total."""
        self.received = total = sum(served)
        self.delivered += total
        return total

    def step(self, slot: int, arrivals: int, a_p: int, a_s: int, caps_t) -> list:
        """One whole slot: the five phases above, fused.

        ``pdcp_ingest(arrivals)``, ``pdcp_dispatch(a_p, a_s, slot)``,
        ``xn_tick(slot)``, ``rlc_serve(caps_t)`` and ``ue_receive``, in that
        order, with the same result; returns the packets served per carrier,
        and ``received`` holds their sum, the one sum a slot makes of them.
        ``rlc`` is updated in place.  The capacities are not checked: the
        engine refuses negative ones before their slot comes.
        """
        if arrivals:
            if arrivals < 0:
                raise ValueError("arrivals must be non-negative")
            self.pdcp_depth += arrivals
            self.total_ingested += arrivals
        rlc = self.rlc
        out = self.out_counts
        depth = self.pdcp_depth
        if a_p and depth:
            depth -= 1
            rlc[0] += 1
            out[0] += 1
        xn = self.xn
        d = self.d_xn
        if a_s and depth:
            k = min(self.n_scc, depth)
            depth -= k
            # With d_xn = 0 this cell is ``due``: the packets surface below.
            xn[(slot + d) % (d + 1)] = k
            for s in range(1, 1 + k):
                out[s] += 1
        self.pdcp_depth = depth
        due = slot % (d + 1)
        for s in range(1, 1 + xn[due]):
            rlc[s] += 1
        xn[due] = 0
        served = list(map(min, caps_t, rlc))
        rlc[:] = map(sub, rlc, served)
        self.received = total = sum(served)
        self.delivered += total
        return served

    def rlc_occupancy(self) -> list[int]:
        return list(self.rlc)

    def xn_inflight(self) -> list[int]:
        return [sum(k > s for k in self.xn) for s in range(self.n_scc)]

    def buffer_difference(self) -> int:
        """PCC RLC occupancy minus the summed SCC occupancies (Xn excluded)."""
        return self.rlc[0] - sum(self.rlc[1:])

    def fold(self, caps, a_p, a_s, arrivals, t0: int = 0, keep_occupancy: bool = False) -> Fold:
        """A fixed schedule from the current state, starting at slot ``t0``,
        in closed form; the stack is left unchanged (``commit`` advances it).

        The PDCP depth is a Lindley recursion
        ``D_t = max(0, D_{t-1} + arr_t - draw_t)`` with
        ``draw_t = a_p_t + n_scc * a_s_t``, so slot t dispatches
        ``disp_t = D_{t-1} + arr_t - D_t``: ``min(a_p_t, disp_t)`` to the PCC
        and one packet to each SCC ``s < disp_t - pcc_t``, which surfaces in
        its RLC buffer ``d_xn`` slots later.  The packets already on the Xn
        link surface in the first ``d_xn`` slots, from the ring cells those
        slots read.  Each RLC count is the same recursion over its inflow,
        ``q_t = max(0, q_{t-1} + in_t - c_t)``, and slot t serves
        ``q_{t-1} + in_t - q_t``.  The buffer difference ``b`` is taken at
        all n + 1 slot edges: ``b[t]`` before slot t, and ``b[n]`` after the
        last slot, where ``buffer_difference`` stands once the n slots are
        committed.  ``caps`` and ``arrivals`` are int64 and
        non-negative (``Simulation`` prepares and checks them), and small
        enough that a carrier's summed capacities fit in int64.
        """
        step = arrivals - a_p
        step -= np.multiply(a_s, self.n_scc, dtype=np.int64)
        depth = _lindley(self.pdcp_depth, step, out=step)
        disp = arrivals - depth  # becomes disp_t = D_{t-1} + arr_t - D_t
        disp[1:] += depth[:-1]
        disp[:1] += self.pdcp_depth
        del step, depth
        pcc = a_p & (disp > 0)  # the PCC takes the first packet dispatched
        disp -= pcc  # and the SCC group the rest, SCC 0 first
        scc, scc_in = self._scc_columns(t0, len(pcc))
        scc[:] = disp
        del disp  # free before ``_fold`` allocates its counts
        return self._fold(Fold(t0, caps, arrivals, pcc, scc, scc_in), keep_occupancy)

    def fold_repeat(self, caps, a_p: int, a_s: int, arrivals: int, t0: int) -> Fold:
        """``fold`` of one action repeated over the slots of ``caps``, with
        ``arrivals`` new packets in each, occupancies kept: a held window.
        The PDCP recursion then drains ``c = a_p + n_scc * a_s - arrivals``
        packets a slot, so the slots dispatch the full draw while the buffer
        covers it (all of them if ``c <= 0``, else the first ``D // c``),
        then one slot what is left, then the arrivals alone: at most three
        constant ``spans``, written straight into the dispatch columns.  The
        PCC takes the first of each slot's packets, as in ``fold``, whose
        preconditions ``caps`` meets."""
        n = caps.shape[1]
        draw = a_p + self.n_scc * a_s
        c = draw - arrivals
        m, left = divmod(self.pdcp_depth, c) if c > 0 else (n, 0)
        pcc = np.empty(n, np.int8)
        scc, scc_in = self._scc_columns(t0, n)
        spans = []
        start = 0
        for stop, disp in ((m, draw), (m + 1, left + arrivals), (n, arrivals)):
            stop = min(stop, n)
            if start < stop:
                pcc[start:stop] = to_pcc = min(a_p, disp)
                scc[start:stop] = disp - to_pcc
                spans.append((start, stop - start, to_pcc, disp - to_pcc))
                start = stop
        fold = Fold(t0, caps, np.full(n, arrivals, np.int64), pcc, scc, scc_in, spans)
        return self._fold(fold, True)

    def _scc_columns(self, t0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Two views of one vector of ``d_xn + n`` SCC counts, one byte each
        below 256 SCCs: the ``n`` slots' own, to be filled in, and the SCCs
        fed ``d_xn`` slots before each of them, the Xn ring's cells due in
        slots ``t0 .. t0 + d_xn - 1`` first."""
        d = self.d_xn
        fed = np.empty(d + n, np.min_scalar_type(self.n_scc))
        fed[:d] = [self.xn[(t0 + j) % (d + 1)] for j in range(d)]
        return fed[d:], fed[:n]

    def _fold(self, fold: Fold, keep_occupancy: bool) -> Fold:
        """Fill in ``fold``'s per-slot deliveries and its buffer differences
        at every slot edge from every carrier's RLC recursion, plus the
        counts at the slot edges (over a short window, or if kept) and the
        final counts; leaves the stack unchanged.  Both results come from
        the carriers' summed counts ``S_t``: slot t delivers
        ``in_t + S_{t-1} - S_t``, where ``in_t`` is the PCC's packets and the
        SCCs' surfacing ones, and ``b_t = 2 q_pcc,t - S_t``.  The carriers
        are folded in blocks of rows: all of them in one pass over a window
        of at most ``FOLD_ALL_SLOTS`` slots, one at a time over a longer
        one, whose rows then stay small enough to sit in cache, and whose
        work memory, unless the occupancies are kept, is a few slot-length
        vectors."""
        caps, pcc, scc_in = fold.caps, fold.pcc, fold.scc_in
        n = len(pcc)
        n_car = self.n_carriers
        rows = n_car if n <= FOLD_ALL_SLOTS else 1
        fold.final_rlc = final_rlc = []
        # Each carrier's counts with the current one in front: q_{-1}, q_0, ...
        counts = np.empty((n_car if keep_occupancy else rows, n + 1), np.int64)
        for lo in range(0, n_car, rows):
            hi = lo + rows
            walk = counts[lo:hi] if keep_occupancy else counts
            q = walk[:, 1:]
            # The inflow in_t: the PCC's packets, and for SCC s one packet
            # wherever more than s SCCs were fed d_xn slots before.
            first = 0 if lo else 1  # the block's first SCC row
            if not lo:
                q[0] = pcc
            if first < rows:
                np.greater(scc_in, np.arange(lo + first - 1, hi - 1, dtype=scc_in.dtype)[:, None],
                           out=q[first:])
            q -= caps[lo:hi]
            walk[:, 0] = self.rlc[lo:hi]  # a first step from 0 to the count now
            _lindley(0, walk, out=walk)
            final_rlc += walk[:, -1].tolist()
            if not lo:
                fold.b = b = walk[0] + walk[0]
                total = walk.sum(axis=0)
            else:
                total += walk[0]
        b -= total
        fold.delivered = delivered = total[:-1] - total[1:]
        delivered += pcc
        delivered += scc_in
        if rows == n_car or keep_occupancy:
            fold.counts = counts
        fold.occupancy = counts[:, 1:] if keep_occupancy else None
        return fold

    def commit(self, fold: Fold, n: int) -> None:
        """Advance the stack by the first ``n`` slots of ``fold``, which must
        have been folded from the current state: exactly where the per-slot
        phases leave it.  A prefix shorter than the fold needs its
        occupancies.  The packets that arrived and were dispatched come from
        a repeated action's constant spans in Python, with no numpy call, or
        else from the per-slot columns (two sums and a ``bincount``).  The
        packets delivered follow from those dispatched and the packets in
        the RLC buffers and on the Xn link before and after, since none is
        lost."""
        if not n:
            return
        if n < len(fold.pcc):
            final_rlc = fold.occupancy[:, n - 1].tolist()
        else:
            final_rlc = fold.final_rlc
        if fold.spans is None:
            to_pcc = int(fold.pcc[:n].sum())
            fed = _fed(fold.scc[:n], self.n_scc)
            ingested = int(fold.arrivals[:n].sum())
        else:  # the spans' slots up to slot n
            spans = [(min(m, n - t), p, k) for t, m, p, k in fold.spans if t < n]
            to_pcc = sum(m * p for m, p, _ in spans)
            fed = [sum(m for m, _, k in spans if k > s) for s in range(self.n_scc)]
            ingested = n * int(fold.arrivals[0])
        xn, rlc = self.xn, self.rlc
        queued = sum(rlc) + sum(xn)
        self.total_ingested += ingested
        self.pdcp_depth += ingested - to_pcc - sum(fed)
        out = self.out_counts
        out[0] += to_pcc
        out[1:] = map(add, out[1:], fed)
        d = self.d_xn
        if d:
            # The ring cells of the first d_xn slots surfaced, and the SCC
            # dispatches of the last d_xn slots are still in flight.
            t0 = fold.t0
            for t in range(t0, t0 + min(n, d)):
                xn[t % (d + 1)] = 0
            for t, k in enumerate(fold.scc[max(0, n - d):n].tolist(), t0 + max(0, n - d) + d):
                xn[t % (d + 1)] = k
        rlc[:] = final_rlc
        self.delivered += queued + to_pcc + sum(fed) - sum(rlc) - sum(xn)

    def snapshot(self) -> tuple:
        """Hashable queue state: PDCP depth, RLC counts and the Xn ring.

        The cumulative counters never affect a later slot and are left out.
        """
        return (self.pdcp_depth, tuple(self.rlc), tuple(self.xn))
