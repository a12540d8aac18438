import dataclasses

import numpy as np
import pytest

from casplit.engine import RunResult
from casplit.experiments import ETA_POLICIES, SUITE_SEEDS, ExperimentSpec, eta_cells
from casplit.metrics import (
    buffer_throughput_correlation,
    pearson,
    utilization_ratio,
)
from casplit.scenario import ConfigError, RunMode, default_static_scenario


def stub_run(mode, deliveries, arrival_mode="per_slot", completed=False,
             completion_slot=None, policy="x", seed=1, scenario="scn"):
    d = np.array(deliveries, dtype=np.int64)
    n = len(d)
    return RunResult(
        mode=mode, policy=policy, seed=seed, scenario=scenario, l=int(d.sum()),
        arrival_mode=arrival_mode, t_slots=n, completed=completed,
        completion_slot=completion_slot, total_delivered=int(d.sum()),
        delivered=d, a_p=np.zeros(n, dtype=np.int8),
        a_s=np.zeros(n, dtype=np.int8), b=np.zeros(n, dtype=np.int64),
    )


def test_eta_direct_arithmetic():
    ca = stub_run("ca", [1350])
    p = stub_run("pcc", [500])
    s = stub_run("scc", [1000])
    report = utilization_ratio(ca, p, s)
    assert report.eta == pytest.approx(0.90)


def test_eta_upper_bound_when_ca_matches_sum():
    ca = stub_run("ca", [30, 30])
    p = stub_run("pcc", [10, 10])
    s = stub_run("scc", [20, 20])
    assert utilization_ratio(ca, p, s).eta == pytest.approx(1.0)


def test_eta_zero_denominator_is_undefined_not_crash():
    report = utilization_ratio(stub_run("ca", [0, 0]), stub_run("pcc", [0, 0]),
                               stub_run("scc", [0, 0]))
    assert report.undefined and report.eta is None


def test_eta_burst_window_is_completion_time():
    ca = stub_run("ca", [5, 5, 0, 0], arrival_mode="burst", completed=True,
                 completion_slot=1)
    p = stub_run("pcc", [3, 3, 3, 3])
    s = stub_run("scc", [3, 3, 3, 3])
    report = utilization_ratio(ca, p, s)
    assert report.window == 2
    assert report.eta == pytest.approx(10 / 12)


def test_eta_rejects_mismatched_runs():
    ca = stub_run("ca", [1])
    for other in (stub_run("pcc", [1], seed=2), stub_run("pcc", [1], scenario="other")):
        with pytest.raises(ValueError, match="one scenario and seed"):
            utilization_ratio(ca, other, stub_run("scc", [1]))


def test_pearson_perfect_anticorrelation():
    xs = [1, 2, 3, 4]
    ys = [8, 6, 4, 2]
    assert pearson(xs, ys) == pytest.approx(-1.0)


def test_correlation_undefined_for_constant_series():
    assert buffer_throughput_correlation([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]) is None


def test_correlation_needs_three_points():
    with pytest.raises(ValueError):
        buffer_throughput_correlation([(1.0, 2.0), (2.0, 1.0)])


def test_stationary_sweep_negative_correlation_and_antimonotone():
    from casplit.experiments import stationary_sweep_suite

    out = stationary_sweep_suite()
    assert out["pearson"] is not None and out["pearson"] <= -0.5
    rows = sorted(out["rows"], key=lambda r: -r[2])  # mean |B| descending
    throughputs = [r[1] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(throughputs, throughputs[1:]))


@pytest.mark.parametrize("field, values", [
    ("seeds", [1, 1]),
    ("policies", ["ltr", "ltr"]),
    ("modes", [RunMode.CA, RunMode.PCC_ONLY, RunMode.CA]),
])
def test_experiment_spec_refuses_repeated_values(field, values):
    """A repeated seed, policy or mode would repeat summary and eta rows and
    overwrite traces, so the spec refuses it."""
    spec = {"config": default_static_scenario(1), "seeds": [1], field: values}
    with pytest.raises(ConfigError, match=f"^{field}: "):
        ExperimentSpec(**spec)


def test_eta_cells_give_one_row_per_seed_and_policy_after_the_axis():
    """Each cell yields one η row per (seed, policy), in ``run_experiment``'s
    order, led by the cell's axis values; a cell whose carriers are all in
    outage has no η, written as -1."""
    live = default_static_scenario(1, l=300, max_slots=3000)
    dark = live.copy(name="dark", max_slots=200, carriers=[
        dataclasses.replace(c, sigma2=0.0, pl_model="fixed", pl_fixed_db=300.0)
        for c in live.carriers])
    axes = [(1,), (1, "dark")]
    cells = list(eta_cells(zip(axes, [live, dark])))
    order = [[seed, policy] for seed in SUITE_SEEDS for policy in ETA_POLICIES]
    for axis, (rows, outcome) in zip(axes, cells):
        assert [row[:-3] for row in rows] == [list(axis)] * len(order)
        assert [[seed, policy] for *_, policy, seed, _ in rows] == order
    (live_rows, live_out), (dark_rows, dark_out) = cells
    assert [row[-1] for row in live_rows] == [e.eta for e in live_out.etas]
    assert all(0 < row[-1] <= 1 for row in live_rows)
    assert all(e.undefined for e in dark_out.etas)
    assert [row[-1] for row in dark_rows] == [-1.0] * len(order)
