"""Link-resource-utilization ratio of ``RunResult``s and the
buffer-difference/throughput correlation analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from casplit.engine import RunResult, BURST


@dataclass
class EtaReport:
    """Utilization of the aggregated run against both single-carrier sums."""

    eta: float | None
    undefined: bool
    numerator: int
    denominator_pcc: int
    denominator_scc: int
    window: int
    seed: int
    scenario_id: str
    policy: str


def utilization_window(ca: RunResult) -> int:
    """Comparison window: a finished burst is scored over its completion
    time, a saturated run over its whole horizon."""
    if ca.arrival_mode == BURST and ca.completed:
        return ca.completion_slot + 1
    return ca.t_slots


def utilization_ratio(ca: RunResult, pcc_only: RunResult, scc_only: RunResult) -> EtaReport:
    """CA deliveries over the summed single-carrier deliveries.

    All three runs must come from the same scenario and seed (common random
    numbers); the single-carrier runs must be saturated so their sums track
    link capacity.  A zero denominator (total outage) is reported as
    undefined rather than raised.  The sums run over
    ``utilization_window(ca)``.
    """
    for ref in (pcc_only, scc_only):
        if (ref.scenario, ref.seed) != (ca.scenario, ca.seed):
            raise ValueError("utilization compares runs of one scenario and seed")
    window = utilization_window(ca)
    if pcc_only.t_slots < window or scc_only.t_slots < window:
        raise ValueError("single-carrier runs shorter than the comparison window")
    num = int(ca.delivered[:window].sum())
    den_p = int(pcc_only.delivered[:window].sum())
    den_s = int(scc_only.delivered[:window].sum())
    den = den_p + den_s
    return EtaReport(
        eta=(num / den) if den else None,
        undefined=den == 0,
        numerator=num,
        denominator_pcc=den_p,
        denominator_scc=den_s,
        window=window,
        seed=ca.seed,
        scenario_id=ca.scenario,
        policy=ca.policy,
    )


def pearson(xs, ys) -> float | None:
    """Pearson correlation; None when either series is constant."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length series of at least 2 points")
    if float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return None
    r = float(np.corrcoef(x, y)[0, 1])
    return None if math.isnan(r) else r


def buffer_throughput_correlation(points) -> float | None:
    """Correlation between mean |B| and mean throughput across a strategy
    sweep; ``points`` is an iterable of (mean_abs_b, mean_throughput)."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 strategy points")
    return pearson([p[0] for p in pts], [p[1] for p in pts])
