"""Batch experiment runner and the named figure-style preset suites."""

from __future__ import annotations

import dataclasses
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from casplit import scenario as sc
from casplit import trace as tr
from casplit.baselines import StationaryKController
from casplit.engine import Simulation, RunResult, PER_SLOT
from casplit.metrics import EtaReport, utilization_ratio, buffer_throughput_correlation, \
    utilization_window
from casplit.scenario import RunMode, ScenarioConfig, build_caps, build_run

ETA_POLICIES = ("fuzzy_pid", "bwa", "ltr", "nofuzzy_pid", "qlearning")


@dataclass
class ExperimentSpec:
    config: ScenarioConfig
    seeds: list[int]
    modes: list[RunMode] = field(default_factory=lambda: list(RunMode))
    out_dir: Path | None = None
    policies: list[str] | None = None  # None: the config's policy only

    def __post_init__(self) -> None:
        if not self.seeds:
            raise sc.ConfigError("run.seeds: need at least one seed")
        for name in ("seeds", "modes", "policies"):  # a repeated run overwrites its traces
            values = getattr(self, name) or []
            if len(set(values)) != len(values):
                raise sc.ConfigError(f"{name}: each value may appear once, got {values!r}")


@dataclass
class ExperimentOutcome:
    summaries: list[RunResult]  # every run, in run order
    etas: list[EtaReport]
    results: dict  # (seed, label) -> RunResult
    files: list[Path] = field(default_factory=list)


def _process_peak_rss_kb() -> int:
    """Peak RSS of the whole process so far: it never falls between runs."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_experiment(spec: ExperimentSpec) -> ExperimentOutcome:
    """Execute seeds x (policies + single-carrier modes); emit files if asked.

    Within one seed every run shares the same precomputed capacity matrix
    (common random numbers).  Utilization rows are appended whenever a CA
    policy and both single-carrier references were run.
    """
    cfg = spec.config
    policies = spec.policies if spec.policies is not None else [cfg.policy]
    policies = policies if RunMode.CA in spec.modes else []  # the CA policies that run
    collect = spec.out_dir is not None
    runs: list[RunResult] = []
    etas: list[EtaReport] = []
    timings: list[list] = []

    for seed in spec.seeds:
        caps = build_caps(cfg, seed)
        cas = [_timed_run(build_run(cfg, RunMode.CA, seed, caps=caps, collect_trace=collect,
                                    policy=policy), timings)
               for policy in policies]
        window = max(map(utilization_window, cas), default=cfg.max_slots)
        refs = [_timed_run(build_run(cfg, mode, seed, caps=caps, collect_trace=collect,
                                     max_slots=window), timings)
                for mode in (RunMode.PCC_ONLY, RunMode.SCC_ONLY) if mode in spec.modes]
        if len(refs) == 2:
            etas += [utilization_ratio(ca, *refs) for ca in cas]
        runs += cas + refs

    results = {(r.seed, r.policy): r for r in runs}
    outcome = ExperimentOutcome(runs, etas, results)
    if spec.out_dir is not None:
        outcome.files = _emit(spec, cfg, policies, runs, etas, results, timings)
    return outcome


def _timed_run(sim: Simulation, timings: list[list]) -> RunResult:
    """``sim.run()``, appending its ``timings.csv`` row to ``timings``."""
    t0 = time.perf_counter()
    result = sim.run()
    timings.append([result.scenario, result.seed, result.mode, result.policy,
                    time.perf_counter() - t0, _process_peak_rss_kb()])
    return result


def _emit(spec, cfg, policies, runs, etas, results, timings) -> list[Path]:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for (seed, label), result in sorted(results.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        path = out / f"trace_{cfg.name}_{label}_{seed}.csv"
        tr.write_trace(path, result)
        files.append(path)
    summary_path = out / "summary.csv"
    tr.write_summary(summary_path, runs, etas)
    files.append(summary_path)
    cfg_path = out / "scenario.ini"
    sc.to_file(cfg, cfg_path)
    files.append(cfg_path)
    tr.write_metadata(out / "metadata.json", cfg_path.read_text(encoding="utf-8"),
                      spec.seeds, [m.value for m in spec.modes], ",".join(policies))
    files.append(out / "metadata.json")
    # Wall-clock seconds per run and the process's peak RSS after it; not
    # byte-reproducible.
    tr.write_table(out / "timings.csv", ["scenario", "seed", "mode", "policy", "wall_clock_s",
                                         "process_peak_rss_kb"], timings)
    files.append(out / "timings.csv")
    return files


# -- figure-style presets -----------------------------------------------------

SUITE_SEEDS = tuple(range(1, 11))  # the η suites' seeds


def eta_cells(cells):
    """Run each ``(axis values, config)`` cell over ``SUITE_SEEDS`` and
    ``ETA_POLICIES``, one cell at a time.  Yields each cell's η rows
    ``[*axis values, policy, seed, eta]`` in ``run_experiment``'s order,
    with -1 where η is undefined, and its outcome."""
    for axis, cfg in cells:
        outcome = run_experiment(ExperimentSpec(
            config=cfg, seeds=list(SUITE_SEEDS), policies=list(ETA_POLICIES)))
        yield ([[*axis, e.policy, e.seed, e.eta if e.eta is not None else -1.0]
                for e in outcome.etas], outcome)


def flat_carriers(n_scc: int) -> list:
    """Deterministic above-threshold carriers (fixed loss, zero variance);
    the PCC carries two packets a slot, each SCC one."""
    carriers = sc.default_carriers(n_scc)
    out = []
    for c in carriers:
        margin_db = 8.0 if c.kind == "pcc" else 15.0
        out.append(dataclasses.replace(
            c, sigma2=0.0, pl_model="fixed", pl_fixed_db=margin_db,
            rho=2.0 if c.kind == "pcc" else 1.0))
    return out


def flat_scenario(n_scc: int, **changes) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name=f"flat-nscc{n_scc}", n_scc=n_scc, carriers=flat_carriers(n_scc),
        arrival_mode=PER_SLOT, arrival_rate=n_scc + 2, l=1,
        max_slots=16 * 30, d_xn=2,
    )
    return cfg.copy(**changes) if changes else cfg


def convergence_suite(out_dir: Path | None = None) -> dict:
    """Windowed SCC/PCC action-ratio trajectories on a flat channel."""
    n = 16  # the controller's window, and the ratio's
    rows = []
    for n_scc in (2, 3):
        for policy in ("fuzzy_pid", "nofuzzy_pid"):
            cfg = flat_scenario(n_scc, n=n, policy=policy)
            result = build_run(cfg, RunMode.CA).run()
            for w, ratio in enumerate(result.windowed_action_ratio(n)):
                rows.append([n_scc, policy, w, w * n,
                             ratio if ratio != float("inf") else -1.0])
    if out_dir is not None:
        tr.write_table(Path(out_dir) / "fig4_ratio.csv",
                       ["n_scc", "policy", "window", "slot", "scc_pcc_ratio"], rows)
    return {"rows": rows}


def stationary_sweep_suite(out_dir: Path | None = None) -> dict:
    """Stationary-k sweep in the saturated backlogged regime (flat channel).

    The PCC starts with a window-deep backlog so one side stays saturated,
    which is the regime where the window-throughput identity links mean |B|
    to delivered packets.
    """
    n_scc, window = 2, 32
    caps = build_caps(flat_scenario(n_scc, max_slots=window))
    rows = []
    points = []
    for k in range(1, 7):
        sim = Simulation(
            l=1, arrival_mode=PER_SLOT, arrival_rate=n_scc + 2, n_scc=n_scc,
            d_xn=0, caps=caps, controller=StationaryKController(k),
            max_slots=window, preseed_rlc=[(window + 1) * int(caps[0, 0])] + [0] * n_scc,
        )
        result = sim.run()
        rows.append([k, result.mean_throughput, result.mean_abs_b])
        points.append((result.mean_abs_b, result.mean_throughput))
    corr = buffer_throughput_correlation(points)
    if out_dir is not None:
        tr.write_table(Path(out_dir) / "fig5_sweep.csv",
                       ["k", "mean_throughput", "mean_abs_b"], rows)
        tr.write_table(Path(out_dir) / "fig5_correlation.csv",
                       ["pearson"], [[corr if corr is not None else "undefined"]])
    return {"rows": rows, "pearson": corr}


def static_eta_suite(out_dir: Path | None = None) -> dict:
    """Utilization of every policy for static UEs across carrier counts."""
    cells = (((n_scc,), sc.default_static_scenario(n_scc)) for n_scc in (1, 2, 3))
    rows = [row for cell_rows, _ in eta_cells(cells) for row in cell_rows]
    if out_dir is not None:
        tr.write_table(Path(out_dir) / "fig6_eta.csv",
                       ["n_scc", "policy", "seed", "eta"], rows)
    return {"rows": rows}


def mobile_eta_suite(out_dir: Path | None = None) -> dict:
    """Utilization and throughput over time for the out-and-back UE."""
    [(rows, outcome)] = eta_cells([((), sc.default_mobile_scenario(3))])
    window = 1000
    series = []
    for seed in SUITE_SEEDS:
        pcc = outcome.results[(seed, "forced-pcc")]
        scc = outcome.results[(seed, "forced-scc")]
        for policy in ETA_POLICIES:
            run = outcome.results[(seed, policy)]
            for start in range(0, run.t_slots - window + 1, window):
                num = int(run.delivered[start:start + window].sum())
                den = int(pcc.delivered[start:start + window].sum()
                          + scc.delivered[start:start + window].sum())
                series.append([policy, seed, start,
                               (num / den) if den else -1.0, num / window])
    if out_dir is not None:
        tr.write_table(Path(out_dir) / "fig7_eta.csv",
                       ["policy", "seed", "eta"], rows)
        tr.write_table(Path(out_dir) / "fig7_timeseries.csv",
                       ["policy", "seed", "window_start", "eta", "throughput"],
                       series)
    return {"rows": rows, "series": series}


# Named experiment presets; each expands to runs plus a tidy table, and
# takes only its output directory.
FIGURE_SUITES = {
    "fig4": convergence_suite,
    "fig5": stationary_sweep_suite,
    "fig6": static_eta_suite,
    "fig7": mobile_eta_suite,
}
