"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import pytest

from casplit.core import make_rng
from casplit.engine import Simulation
from casplit.experiments import (
    ExperimentSpec,
    flat_scenario,
    run_experiment,
    stationary_sweep_suite,
)
from casplit.fuzzy_pid import FuzzyConfig, FuzzyPidController
from casplit.channel import CarrierConfig, sample_fading
from casplit.oracle import (
    brute_force_min_T,
    gen_identity_instances,
    gen_min_t_instance,
    ranking_consistent,
    replay_witness,
    verify_nstep_identity,
)
from casplit.scenario import (
    RunMode,
    build_caps,
    build_run,
    default_mobile_scenario,
    default_static_scenario,
)

from reference import ProtocolStack

SEEDS = list(range(1, 11))
ETA_POLICIES = ["fuzzy_pid", "nofuzzy_pid", "bwa", "ltr", "qlearning"]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def mean_eta(outcome, policy):
    vals = [e.eta for e in outcome.etas if e.policy == policy]
    assert vals and all(v is not None for v in vals)
    return sum(vals) / len(vals)


@pytest.fixture(scope="module")
def static_outcome():
    cfg = default_static_scenario(3)
    t0 = time.perf_counter()
    out = run_experiment(ExperimentSpec(config=cfg, seeds=SEEDS,
                                        policies=ETA_POLICIES))
    out.elapsed = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def mobile_outcome():
    cfg = default_mobile_scenario(3)
    t0 = time.perf_counter()
    out = run_experiment(ExperimentSpec(config=cfg, seeds=SEEDS,
                                        policies=ETA_POLICIES))
    out.elapsed = time.perf_counter() - t0
    return out


def test_criterion_1_flat_channel_convergence():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n_scc in (2, 3):
        cfg = flat_scenario(n_scc, n=16)
        result = build_run(cfg, RunMode.CA).run()
        ratios = result.windowed_action_ratio(16)
        steady = ratios[-1]
        converged = steady != float("inf") and all(
            abs(r - steady) <= 0.10 * abs(steady)
            for w, r in enumerate(ratios) if w * 16 >= 16 + 2 * 16
        )
        ok &= converged
        details.append(f"n_scc={n_scc} steady={steady:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, ok, "; ".join(details) + f"; {elapsed:.2f}s < 5s")


def test_criterion_2_window_identity_and_ranking():
    t0 = time.perf_counter()
    checked = 0
    for inst, pattern, n in gen_identity_instances(24):
        rep = verify_nstep_identity(inst, pattern, n)
        assert rep.valid_case is not None, rep.violations
        assert rep.holds, (inst.label, rep)
        checked += 1
    # ranking equivalence on both saturation regimes
    from casplit.fuzzy_pid import PCC_ONLY_ACTION as P, SCC_ONLY_ACTION as S

    def k_pattern(k):
        return [P if t % (k + 1) == 0 else S for t in range(k + 1)]

    from casplit.oracle import TinyInstance
    n = 12
    case1 = TinyInstance(l=1, n_scc=2, caps=[[2] * 24, [1] * 24, [1] * 24],
                         d_xn=0, preseed_rlc=[(n + 1) * 2, 0, 0])
    case2 = TinyInstance(l=1, n_scc=1, caps=[[2] * 24, [1] * 24],
                         d_xn=0, preseed_rlc=[0, n + 3])
    ok1, _ = ranking_consistent(case1, [k_pattern(k) for k in (1, 2, 3, 4)], n)
    ok2, _ = ranking_consistent(case2, [k_pattern(k) for k in (1, 2, 3)], n)
    elapsed = time.perf_counter() - t0
    ok = checked >= 20 and ok1 and ok2 and elapsed < 30.0
    report(2, ok, f"{checked} instances exact; ranking ok; {elapsed:.2f}s < 30s")


def test_criterion_3_oracle_near_optimality():
    t0 = time.perf_counter()
    rng = make_rng(7, "oracle-instances")
    worst = 0.0
    for i in range(50):
        inst = gen_min_t_instance(rng, label=f"i{i}")
        res = brute_force_min_T(inst)
        assert res.feasible
        replay_t, _ = replay_witness(inst, res.actions)
        assert replay_t == res.t_star, "witness replay mismatch"
        sim = Simulation(
            l=inst.l, arrival_mode="burst", arrival_rate=0, n_scc=inst.n_scc,
            d_xn=inst.d_xn, caps=inst.caps_array(200),
            controller=FuzzyPidController(n=16, n_scc=inst.n_scc),
            max_slots=200, stop_on_complete=True)
        run = sim.run()
        assert run.completed
        worst = max(worst, (run.completion_slot + 1) / res.t_star)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.25 and elapsed < 120.0
    report(3, ok, f"50 instances, worst T/T*={worst:.3f} <= 1.25; "
                  f"replay exact; {elapsed:.1f}s < 120s")


def test_criterion_4_static_utilization(static_outcome):
    fuzzy = mean_eta(static_outcome, "fuzzy_pid")
    bwa = mean_eta(static_outcome, "bwa")
    nofuzzy = mean_eta(static_outcome, "nofuzzy_pid")
    ok = (fuzzy >= 0.90 and fuzzy >= bwa + 0.03 and fuzzy >= nofuzzy + 0.01
          and static_outcome.elapsed < 120.0)
    report(4, ok, f"fuzzy={fuzzy:.4f} (>=0.90), bwa={bwa:.4f} (+0.03), "
                  f"nofuzzy={nofuzzy:.4f} (+0.01); {static_outcome.elapsed:.1f}s < 120s")


def test_criterion_5_mobile_utilization(mobile_outcome):
    fuzzy = mean_eta(mobile_outcome, "fuzzy_pid")
    others = {p: mean_eta(mobile_outcome, p) for p in ETA_POLICIES if p != "fuzzy_pid"}
    ok = (fuzzy >= 0.85 and all(fuzzy >= v for v in others.values())
          and mobile_outcome.elapsed < 180.0)
    rest = " ".join(f"{p}={v:.4f}" for p, v in others.items())
    report(5, ok, f"fuzzy={fuzzy:.4f} (>=0.85, >= all); {rest}; "
                  f"{mobile_outcome.elapsed:.1f}s < 180s")


def test_criterion_6_negative_correlation():
    out = stationary_sweep_suite()
    r = out["pearson"]
    ok = r is not None and r <= -0.5
    report(6, ok, f"pearson(mean|B|, throughput)={r:.4f} <= -0.5")


def test_criterion_7_property_suites():
    # conservation and disjointness over 10^4 randomized slots
    stack = ProtocolStack(n_scc=3, d_xn=2)
    rng = make_rng(123, "acceptance-conservation")
    for t in range(10_000):
        stack.pdcp_ingest(int(rng.integers(0, 4)))
        stack.pdcp_dispatch(int(rng.integers(0, 2)), int(rng.integers(0, 2)), t)
        stack.xn_tick(t)
        stack.ue_receive(stack.rlc_serve(rng.integers(0, 3, size=4)))
    conservation = stack.conservation_ok()

    # fading moments within the stated bounds for both configured variances
    moments_ok = True
    for family, sigma2, bounds in (
        ("gamma", 0.0004, (0.995, 1.005, 0.00036, 0.00044)),
        ("gamma", 0.27, (0.99, 1.01, 0.25, 0.29)),
        ("lognormal", 0.27, (0.99, 1.01, 0.25, 0.29)),
    ):
        cfg = CarrierConfig(kind="scc", sigma2=sigma2, fading_family=family)
        x = sample_fading(cfg, make_rng(77, f"acc/{family}/{sigma2}"), size=10**5)
        lo_m, hi_m, lo_v, hi_v = bounds
        moments_ok &= lo_m <= x.mean() <= hi_m and lo_v <= x.var() <= hi_v

    # complementarity on every post-fill action of a fuzzy run
    cfg = default_static_scenario(3).copy(l=2_000)
    result = build_run(cfg, RunMode.CA, seed=3).run()
    n = cfg.n
    comp = all(int(result.a_s[t]) == 1 - int(result.a_p[t])
               for t in range(n + 1, result.t_slots))
    fill = all(result.a_p[t] == 1 and result.a_s[t] == 1 for t in range(n + 1))

    # gain updates only on the window-boundary cadence
    ctrl = FuzzyPidController(n=16, n_scc=3, cfg=FuzzyConfig(b_max=96))
    walk = make_rng(5, "acc-cadence")
    gains = ctrl.gains
    cadence = True
    for t in range(800):
        ctrl.decide(t, int(walk.integers(-60, 6)))
        if ctrl.gains != gains:
            cadence &= t % 16 == 0
            gains = ctrl.gains

    # byte-identical reruns
    def run_bytes():
        caps = build_caps(cfg, 3)
        sim = build_run(cfg, RunMode.CA, seed=3, caps=caps, collect_trace=True)
        res = sim.run()
        rows = ["|".join(map(str, (res.b[t], res.a_p[t], res.delivered[t])))
                for t in range(res.t_slots)]
        return "\n".join(rows).encode()

    determinism = run_bytes() == run_bytes()

    ok = conservation and moments_ok and comp and fill and cadence and determinism
    report(7, ok, f"conservation={conservation} moments={moments_ok} "
                  f"complementarity={comp} fill={fill} cadence={cadence} "
                  f"determinism={determinism}")


def test_criterion_8_eta_bounds(static_outcome, mobile_outcome):
    violations = []
    for outcome, label in ((static_outcome, "static"), (mobile_outcome, "mobile")):
        for e in outcome.etas:
            if e.eta is None or not 0.0 <= e.eta <= 1.0:
                violations.append((label, e.policy, e.seed, e.eta))
    n = len(static_outcome.etas) + len(mobile_outcome.etas)
    report(8, not violations, f"{n} eta values in [0,1]; violations={violations}")
