"""Step-by-step models that the tests check casplit's fast paths against.

``ProtocolStack`` runs the per-slot phases of ``casplit.stack.CountStack``
over integer sequence numbers, so packet conservation and duplicate-free
delivery can be checked: the PDCP buffer is the range ``[head, tail)``,
and the RLC buffers and Xn pipelines are FIFOs.  ``capacity_reference``
is the scalar channel chain that ``channel.capacity_series`` vectorises,
and ``distance_reference`` the scalar form of ``Trajectory.distances``.
``fold_reference`` folds a ``CountStack`` window one carrier at a time,
``ltr_rates_reference`` averages ltr's rates slot by slot,
``update_gains_reference`` and ``compute_k_reference`` are the fuzzy
controller's table sum and history count as generator expressions, and
``write_trace_reference`` writes a trace column by column into Python
strings joined row by row, as ``trace.write_trace`` did before it wrote one
byte matrix.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from casplit.channel import PCC
from casplit.fuzzy_pid import PidGains
from casplit.trace import _f, trace_columns


class ProtocolStack:
    """The queue state of one run as sequence numbers.

    Carrier 0 is the PCC and 1..n_scc the SCCs.  ``preseed_rlc`` puts
    packets straight into the RLC buffers, counted as ingested and
    dispatched.  ``ue.received`` holds every sequence number the UE has
    received; a duplicate delivery raises ``AssertionError``.
    """

    def __init__(self, n_scc: int, d_xn: int = 0, preseed_rlc: list[int] | None = None):
        self.n_scc = n_scc
        self.n_carriers = 1 + n_scc
        self.d_xn = d_xn
        preseed = preseed_rlc or [0] * self.n_carriers
        self.rlc: list[deque[int]] = []
        seq = 0
        for count in preseed:
            self.rlc.append(deque(range(seq, seq + count)))
            seq += count
        self.out_counts = list(preseed)
        self.xn: list[deque[tuple[int, int]]] = [deque() for _ in range(n_scc)]
        self.ue = SimpleNamespace(received=set(), count=0)
        self.head = self.tail = self.total_ingested = seq  # next to dispatch, next to assign

    @property
    def pdcp_depth(self) -> int:
        return self.tail - self.head

    def pdcp_ingest(self, arrivals: int) -> None:
        self.tail += arrivals
        self.total_ingested += arrivals

    def pdcp_dispatch(self, a_p: int, a_s: int, slot: int) -> list[list[int]]:
        """An active PCC takes the head packet and an active SCC group the
        next ones, one per SCC in index order, while the buffer lasts.  SCC
        packets surface in their RLC buffer ``d_xn`` slots later.  Returns
        the sequence numbers sent to each carrier."""
        dispatched: list[list[int]] = [[] for _ in range(self.n_carriers)]
        for c in ([0] if a_p else []) + (list(range(1, self.n_carriers)) if a_s else []):
            if self.head == self.tail:
                break
            seq = self.head
            self.head += 1
            self.out_counts[c] += 1
            dispatched[c].append(seq)
            if c:
                self.xn[c - 1].append((slot + self.d_xn, seq))
            else:
                self.rlc[0].append(seq)
        return dispatched

    def xn_tick(self, slot: int) -> None:
        for pipe, buf in zip(self.xn, self.rlc[1:]):
            while pipe and pipe[0][0] <= slot:
                buf.append(pipe.popleft()[1])

    def rlc_serve(self, capacities) -> list[list[int]]:
        return [[buf.popleft() for _ in range(min(int(cap), len(buf)))]
                for cap, buf in zip(capacities, self.rlc)]

    def ue_receive(self, delivered: list[list[int]]) -> int:
        for seq in chain.from_iterable(delivered):
            assert seq not in self.ue.received, f"duplicate delivery of seq {seq}"
            self.ue.received.add(seq)
            self.ue.count += 1
        return sum(map(len, delivered))

    def rlc_occupancy(self) -> list[int]:
        return [len(q) for q in self.rlc]

    def xn_inflight(self) -> list[int]:
        return [len(p) for p in self.xn]

    def buffer_difference(self) -> int:
        """PCC RLC occupancy minus the summed SCC occupancies (Xn excluded)."""
        return len(self.rlc[0]) - sum(len(q) for q in self.rlc[1:])

    def conservation_ok(self) -> bool:
        """Every ingested packet is in exactly one place: the PDCP buffer,
        an Xn pipeline, an RLC buffer or the UE."""
        seqs = sorted(chain(range(self.head, self.tail), self.ue.received, *self.rlc,
                            *((seq for _, seq in pipe) for pipe in self.xn)))
        return self.ue.count == len(self.ue.received) and seqs == list(range(self.total_ingested))


def sinr_reference(cfg, distance_m: float, alpha: float) -> float:
    """SINR in dB: transmit power less the path loss and the fading.

    The path loss is ``32.4 + 30 log10(d_m) + 20 log10(f_GHz)`` less the
    receive calibration, valid from 1 m, or ``pl_fixed_db`` under the
    "fixed" model.
    """
    if cfg.pl_model == "fixed":
        loss_db = cfg.pl_fixed_db
    else:
        if distance_m < 1.0:
            raise ValueError(f"distance {distance_m} m below model validity (>= 1 m)")
        loss_db = (32.4 + 30.0 * math.log10(distance_m) + 20.0 * math.log10(cfg.frequency_ghz)
                   - cfg.rx_calibration_db)
    return cfg.tx_power_dbm - loss_db - 10.0 * math.log10(alpha)


def capacity_reference(cfg, distance_m: float, alpha: float, rho_s: float) -> int:
    """Packets the carrier moves in one slot: none below the threshold
    ``rho_s log2(1 + SINR) >= n_th`` (``rho_s`` is the SCC normalisation,
    an SCC's own ``rho``); above it ``floor(rho / rho_s)`` on the PCC and
    one on an SCC."""
    gamma_lin = 10.0 ** (sinr_reference(cfg, distance_m, alpha) / 10.0)
    if rho_s * math.log2(1.0 + gamma_lin) < cfg.n_th:
        return 0
    return int(cfg.rho // rho_s) if cfg.kind == PCC else 1


def distance_reference(traj, t: int, slot_duration: float) -> float:
    """A ``Trajectory``'s distance at slot ``t``, leg by leg."""
    elapsed = t * slot_duration
    if elapsed <= traj.turn_time_s:
        return traj.d0_m + traj.speed_mps * elapsed
    if elapsed <= 2 * traj.turn_time_s:
        return traj.d0_m + traj.speed_mps * (2 * traj.turn_time_s - elapsed)
    return traj.d0_m


def update_gains_reference(gains, d_b: float, d_e: float, cfg) -> PidGains:
    """``fuzzy_pid.update_gains`` as a table loop: each increment is ``sum``
    over the four rules of ``w_i * T_ij * (w_i * v_j) * v_j``, and the
    gains are clamped to ``[gain_min, gain_max]``."""
    if not (0.0 <= d_b <= 1.0 and 0.0 <= d_e <= 1.0):
        raise ValueError("membership degrees must lie in [0, 1]")
    w = (d_b, 1.0 - d_b)
    v = (d_e, 1.0 - d_e)

    def delta(table):
        return sum(
            w[i] * table[i][j] * (w[i] * v[j]) * v[j] for i in range(2) for j in range(2)
        )

    def clamped(v):
        return min(max(v, cfg.gain_min), cfg.gain_max)

    return PidGains(clamped(gains.kp + delta(cfg.t_p)), clamped(gains.ki + delta(cfg.t_i)),
                    clamped(gains.kd + delta(cfg.t_d)))


def compute_k_reference(history, n_scc: int) -> int:
    """``fuzzy_pid.compute_k`` with its sums as generator expressions."""
    if not history:
        raise ValueError("history must be non-empty")
    sum_p = sum(a.a_p for a in history)
    sum_s = n_scc * sum(a.a_s for a in history)
    return max(1, sum_s // max(1, sum_p))


def ltr_rates_reference(rates: list[float], served: list[list[int]], smoothing: float) -> list:
    """ltr's service rates after the slots of ``served`` (carriers by
    slots), averaged slot by slot as ``LtrController.observe`` averages
    them: ``r = (1 - smoothing) * r + smoothing * n``."""
    keep = 1 - smoothing
    out = []
    for r, counts in zip(rates, served):
        for n in counts:
            r = keep * r + smoothing * n
        out.append(r)
    return out


def _lindley_1d(start: int, walk: np.ndarray) -> None:
    """``x_t = max(0, x_{t-1} + walk_t)`` from ``start``, in place."""
    np.cumsum(walk, out=walk)
    walk += start
    floor = np.minimum.accumulate(walk)
    np.minimum(floor, 0, out=floor)
    walk -= floor


def fold_reference(stack, fold, keep_occupancy: bool, keep_served: bool = False):
    """``CountStack._fold`` one carrier at a time, about eleven numpy calls
    each: fills in ``fold``'s deliveries, buffer differences at the n + 1
    slot edges, occupancies and served counts (if kept) and final counts
    from ``stack``'s state, the packets on its Xn link surfacing in the
    first ``d_xn`` slots."""
    caps, pcc, scc = fold.caps, fold.pcc, fold.scc
    n = len(pcc)
    d = stack.d_xn
    ring = [stack.xn[(fold.t0 + j) % (d + 1)] for j in range(min(d, n))]
    fold.served = served = np.zeros((stack.n_carriers, n), np.int64) if keep_served else None
    fold.delivered = delivered = np.zeros(n, dtype=np.int64)
    fold.b = b = np.zeros(n + 1, dtype=np.int64)
    fold.final_rlc = final_rlc = []
    counts = np.empty((stack.n_carriers if keep_occupancy else 1, n + 1), np.int64)
    for c, start in enumerate(stack.rlc):
        walk = counts[c if keep_occupancy else 0]
        q, before = walk[1:], walk[:-1]
        out = served[c] if keep_served else delivered
        if c == 0:
            q[:] = pcc
        else:
            q[:d] = [k >= c for k in ring]
            np.greater(scc[:max(0, n - d)], c - 1, out=q[d:])
        out += q
        q -= caps[c]
        walk[0] = 0
        _lindley_1d(start, walk)
        out += before
        out -= q
        if c == 0:
            b += walk
        else:
            b -= walk
        final_rlc.append(int(walk[-1]))
    fold.occupancy = counts[:, 1:] if keep_occupancy else None
    if keep_served:
        served.sum(axis=0, out=delivered)
    return fold


def _formatted(column: np.ndarray, fmt) -> list[str]:
    """``fmt`` of each entry, called once per value; a float is told apart
    by its bits, so 0.0 from -0.0."""
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([fmt(x) for x in column[first].tolist()], dtype=object)[index].tolist()


def write_trace_reference(path, result) -> None:
    """``trace.write_trace``'s file, each column formatted whole into Python
    strings and the columns joined by row."""
    kp, ki, kd, g, k, mode = result.state
    ints = (result.b, result.a_p, result.a_s, *result.occupancy, *result.capacity,
            result.delivered)
    columns = [list(map(str, range(result.t_slots))),
               *(_formatted(c, str) for c in ints),
               *(_formatted(c, _f) for c in (kp, ki, kd, g)), _formatted(k, str),
               mode.tolist()]
    lines = [",".join(trace_columns(len(result.occupancy) - 1)), *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
