"""PDCP and RLC queue dynamics, Xn-delayed SCC delivery, MAC service, UE reception.

The splitter observes only buffer occupancies, so the simulation runs on
``CountStack``: integer queue depths and an Xn ring of per-SCC counts.
``ProtocolStack`` keeps the same phases over integer sequence numbers (the
PDCP buffer is a contiguous range, RLC buffers and the Xn pipeline are
FIFOs) and is the reference that tests check the count-level stack, packet
conservation and duplicate-free delivery against.  The per-slot ordering is
fixed by the engine: dispatch and Xn arrivals land in the RLC buffers before
service runs in the same slot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class StackError(RuntimeError):
    """A protocol invariant was violated (indicates a stack bug)."""


@dataclass
class PdcpState:
    """PDCP buffer snapshot: the queue is the range [n_min, n_max)."""

    n_min: int
    n_max: int
    out_counts: tuple[int, ...]

    @property
    def depth(self) -> int:
        return self.n_max - self.n_min


@dataclass
class UeState:
    received: set[int] = field(default_factory=set)
    count: int = 0


class ProtocolStack:
    """Mutable queue state of one simulated run.

    Carrier index 0 is the PCC; indices 1..n_scc are the SCCs.  Optional
    ``preseed_rlc`` occupancies materialize packets directly in the RLC
    buffers (counted as already ingested and dispatched) for reference
    checks that need non-empty buffers at slot 0.
    """

    def __init__(self, n_scc: int, d_xn: int = 0, preseed_rlc: list[int] | None = None):
        if n_scc < 1:
            raise ValueError("need at least one SCC")
        if d_xn < 0:
            raise ValueError("d_xn must be non-negative")
        self.n_scc = n_scc
        self.n_carriers = 1 + n_scc
        self.d_xn = d_xn
        self.rlc: list[deque[int]] = [deque() for _ in range(self.n_carriers)]
        self.xn: list[deque[tuple[int, int]]] = [deque() for _ in range(n_scc)]
        self.ue = UeState()
        seq = 0
        self.out_counts = [0] * self.n_carriers
        if preseed_rlc:
            if len(preseed_rlc) != self.n_carriers:
                raise ValueError("preseed_rlc must list one occupancy per carrier")
            for c, count in enumerate(preseed_rlc):
                for _ in range(count):
                    self.rlc[c].append(seq)
                    seq += 1
                self.out_counts[c] = count
        self.total_ingested = seq
        self._head = seq  # next seq to dispatch
        self._tail = seq  # next seq to assign on ingest

    # -- PDCP ---------------------------------------------------------------

    @property
    def pdcp_depth(self) -> int:
        return self._tail - self._head

    def pdcp_state(self) -> PdcpState:
        return PdcpState(n_min=self._head, n_max=self._tail, out_counts=tuple(self.out_counts))

    def pdcp_ingest(self, arrivals: int) -> None:
        """Append ``arrivals`` new packets to the PDCP buffer."""
        if arrivals < 0:
            raise ValueError("arrivals must be non-negative")
        self._tail += arrivals
        self.total_ingested += arrivals

    def pdcp_dispatch(self, a_p: int, a_s: int, slot: int) -> list[list[int]]:
        """Move head-of-line packets toward the carriers chosen this slot.

        An active PCC takes the head packet; an active SCC group takes the
        next ``min(n_scc, depth)`` packets, one per SCC in index order.
        SCC-bound packets enter the Xn pipeline and surface in their RLC
        buffer ``d_xn`` slots later.  Dispatching from an empty buffer
        moves nothing.
        """
        dispatched: list[list[int]] = [[] for _ in range(self.n_carriers)]
        if a_p and self._head < self._tail:
            seq = self._head
            self._head += 1
            self.rlc[0].append(seq)
            self.out_counts[0] += 1
            dispatched[0].append(seq)
        if a_s:
            for s in range(self.n_scc):
                if self._head >= self._tail:
                    break
                seq = self._head
                self._head += 1
                self.xn[s].append((slot + self.d_xn, seq))
                self.out_counts[1 + s] += 1
                dispatched[1 + s].append(seq)
        return dispatched

    # -- Xn / RLC / UE ------------------------------------------------------

    def xn_tick(self, slot: int) -> None:
        """Surface every in-flight packet whose arrival slot has come."""
        for s in range(self.n_scc):
            pipe = self.xn[s]
            buf = self.rlc[1 + s]
            while pipe and pipe[0][0] <= slot:
                buf.append(pipe.popleft()[1])

    def rlc_serve(self, capacities) -> list[list[int]]:
        """Deliver ``min(capacity, occupancy)`` head packets per carrier."""
        delivered: list[list[int]] = []
        for c in range(self.n_carriers):
            cap = int(capacities[c])
            if cap < 0:
                raise ValueError("capacity must be non-negative")
            buf = self.rlc[c]
            n = min(cap, len(buf))
            delivered.append([buf.popleft() for _ in range(n)])
        return delivered

    def ue_receive(self, delivered: list[list[int]]) -> int:
        """Record this slot's deliveries at the UE; returns the slot total."""
        total = 0
        for packets in delivered:
            for seq in packets:
                if seq in self.ue.received:
                    raise StackError(f"duplicate delivery of seq {seq}")
                self.ue.received.add(seq)
                total += 1
        self.ue.count += total
        return total

    # -- observables ----------------------------------------------------------

    def rlc_occupancy(self) -> list[int]:
        return [len(q) for q in self.rlc]

    def xn_inflight(self) -> list[int]:
        return [len(p) for p in self.xn]

    def buffer_difference(self) -> int:
        """PCC RLC occupancy minus the summed SCC occupancies.

        Xn in-flight packets are excluded: they are not locally observable
        at the PDCP host.
        """
        return len(self.rlc[0]) - sum(len(q) for q in self.rlc[1:])

    def conservation_ok(self) -> bool:
        """Every ingested packet is in exactly one place."""
        total = (
            self.pdcp_depth
            + sum(len(p) for p in self.xn)
            + sum(len(q) for q in self.rlc)
            + self.ue.count
        )
        if total != self.total_ingested:
            return False
        seqs: set[int] = set(range(self._head, self._tail))
        n = len(seqs)
        for pipe in self.xn:
            seqs.update(seq for _, seq in pipe)
            n += len(pipe)
        for buf in self.rlc:
            seqs.update(buf)
            n += len(buf)
        seqs.update(self.ue.received)
        n += len(self.ue.received)
        # n counts with multiplicity, so equality with the distinct count
        # rules out any packet sitting in two places at once.
        return n == len(seqs) and seqs == set(range(self._tail))


class CountStack:
    """Count-level queue state of one simulated run.

    Same carrier indexing, preseed convention and phase methods as
    ``ProtocolStack``, on counts instead of sequence numbers.  An SCC packet
    dispatched in slot t waits in row ``(t + d_xn) % (d_xn + 1)`` of the Xn
    ring until ``xn_tick(t + d_xn)``, so ``xn_tick`` must see every slot in
    order.
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
        self.xn = [[0] * n_scc for _ in range(d_xn + 1)]
        self.pdcp_depth = 0
        self.out_counts = list(self.rlc)
        self.total_ingested = sum(self.rlc)
        self.delivered = 0

    def pdcp_ingest(self, arrivals: int) -> None:
        """Append ``arrivals`` new packets to the PDCP buffer."""
        if arrivals < 0:
            raise ValueError("arrivals must be non-negative")
        self.pdcp_depth += arrivals
        self.total_ingested += arrivals

    def pdcp_dispatch(self, a_p: int, a_s: int, slot: int) -> None:
        """Dispatch as ``ProtocolStack.pdcp_dispatch``; ``out_counts`` records it."""
        if a_p and self.pdcp_depth:
            self.pdcp_depth -= 1
            self.rlc[0] += 1
            self.out_counts[0] += 1
        if a_s and self.pdcp_depth:
            k = min(self.n_scc, self.pdcp_depth)
            self.pdcp_depth -= k
            row = self.xn[(slot + self.d_xn) % (self.d_xn + 1)]
            for s in range(k):
                row[s] += 1
                self.out_counts[1 + s] += 1

    def xn_tick(self, slot: int) -> None:
        """Surface the in-flight packets due this slot."""
        row = self.xn[slot % (self.d_xn + 1)]
        for s in range(self.n_scc):
            self.rlc[1 + s] += row[s]
            row[s] = 0

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
        total = sum(served)
        self.delivered += total
        return total

    def rlc_occupancy(self) -> list[int]:
        return list(self.rlc)

    def xn_inflight(self) -> list[int]:
        return [sum(row[s] for row in self.xn) for s in range(self.n_scc)]

    def buffer_difference(self) -> int:
        """PCC RLC occupancy minus the summed SCC occupancies (Xn excluded)."""
        return self.rlc[0] - sum(self.rlc[1:])

    def snapshot(self) -> tuple:
        """Hashable queue state: PDCP depth, RLC counts and the Xn ring.

        The cumulative counters never affect a later slot and are left out.
        """
        return (self.pdcp_depth, tuple(self.rlc), tuple(tuple(row) for row in self.xn))

    def restore(self, state: tuple) -> None:
        """Reset the queue state to a ``snapshot()``."""
        self.pdcp_depth = state[0]
        self.rlc = list(state[1])
        self.xn = [list(row) for row in state[2]]
