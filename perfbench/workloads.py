"""The four benchmark workloads, driven through casplit's public API.

A workload is measured in bodies.  One body is one instance of the
workload at one body seed: a full eta batch for one scenario seed
(static-burst, mobile-stream), one `casplit run` invocation (cli-emit), or
a batch of tiny oracle instances (oracle-batch).  `prepare` writes inputs
and is not timed; `setup` is the user-visible set-up (import and scenario
build) and is timed in a fresh interpreter; `body` runs and checks one body.
"""

from __future__ import annotations

import hashlib
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from casplit import cli, oracle, scenario
from casplit.core import make_rng
from casplit.engine import Simulation
from casplit.experiments import ETA_POLICIES, ExperimentSpec, run_experiment
from casplit.fuzzy_pid import FuzzyPidController
from casplit.trace import summary_lines

# The seed whose simulated outputs are pinned by digests.json.
DEFAULT_SEED = 1
# op_tail_ms percentile: the highest of p75/p90/p99 that leaves at least ten
# ops beyond it in a 20 s run.  Beyond p99, oracle-batch's sub-millisecond
# ops time collector pauses and scheduler hiccups, not instances.
ETA_TAIL_PCT = 75
ORACLE_TAIL_PCT = 99
REF_LABELS = ("forced-pcc", "forced-scc")
ORACLE_INSTANCES = 50  # per body, as in acceptance criterion 3
ORACLE_FUZZY_SLOTS = 200


def body_seed(seed: int, index: int) -> int:
    """Scenario seed of body ``index`` in a run with workload seed ``seed``."""
    return 1000 * seed + index + 1


def digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


Span = tuple[float, float]  # perf_counter() at the start and at the end


@dataclass
class BodyResult:
    span: Span
    slots: int
    instances: int
    attempted: int
    run_s: float = 0.0  # summed Simulation.run time
    op_spans: list[Span] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # one entry per failed op
    quality: list[float] = field(default_factory=list)
    rows: list[str] = field(default_factory=list)  # simulated outputs, for the digest

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]


class RunLog:
    """Times every `Simulation.run` inside the block and checks conservation.

    Conservation is checked from outside: a run may never deliver more than
    its stack ingested, and the per-slot deliveries must sum to the total.
    """

    def __init__(self):
        self.op_spans: list[Span] = []
        self.slots = 0
        self.failed: list[str] = []

    def __enter__(self):
        self._orig = orig = Simulation.run

        def run(sim):
            t0 = perf_counter()
            result = orig(sim)
            self.op_spans.append((t0, perf_counter()))
            self.slots += result.t_slots
            if (result.total_delivered > sim.stack.total_ingested
                    or int(result.delivered.sum()) != result.total_delivered):
                self.failed.append(f"{result.policy} seed {result.seed}: "
                                   "delivered exceeds ingested")
            return result

        Simulation.run = run
        return self

    @property
    def run_s(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.op_spans)

    def __exit__(self, *exc):
        Simulation.run = self._orig
        return False


def _eta_failures(etas, runs: dict) -> list[str]:
    """eta in [0, 1] and both references cover the comparison window."""
    out = []
    for e in etas:
        if e.eta is None or not 0.0 <= e.eta <= 1.0:
            out.append(f"{e.policy} seed {e.seed}: eta {e.eta} outside [0, 1]")
        for ref in REF_LABELS:
            if runs[ref] < e.window:
                out.append(f"{ref} seed {e.seed}: {runs[ref]} slots < window {e.window}")
    return out


class _FuzzyEta:
    """Simulated score of the slot workloads: fuzzy_pid's mean eta."""

    sim_name = "eta_fuzzy_mean"

    @staticmethod
    def sim_value(values: list[float]) -> float:
        return sum(values) / len(values)

    efficiency = sim_value


class EtaWorkload(_FuzzyEta):
    """All five eta policies plus the pcc/scc reference runs of one default
    scenario, per seed."""

    ops_per_body = len(ETA_POLICIES) + len(REF_LABELS)
    op_unit = "Simulation.run"
    tail_pct = ETA_TAIL_PCT

    def __init__(self, name: str, preset, min_bodies: int, changes: dict):
        self.name = name
        self.min_bodies = min_bodies
        self._preset = preset
        self._changes = changes

    def prepare(self, workdir: Path) -> None:
        pass

    def setup(self, workdir: Path) -> None:
        self.cfg = self._preset(3, **self._changes)

    def body(self, seed: int, span=None) -> BodyResult:
        with RunLog() as log:
            t0 = perf_counter()
            outcome = run_experiment(ExperimentSpec(
                config=self.cfg, seeds=[seed], policies=list(ETA_POLICIES)))
            span = (t0, perf_counter())
        runs = {label: r.t_slots for (_, label), r in outcome.results.items()}
        failures = log.failed + _eta_failures(outcome.etas, runs)
        if len(outcome.etas) != len(ETA_POLICIES):
            failures.append(f"seed {seed}: {len(outcome.etas)} eta rows")
        fuzzy = [e.eta for e in outcome.etas if e.policy == "fuzzy_pid" and e.eta is not None]
        return BodyResult(
            span=span, slots=log.slots, instances=1, attempted=self.ops_per_body,
            run_s=log.run_s, op_spans=log.op_spans, failures=failures, quality=fuzzy,
            rows=summary_lines(outcome.summaries, outcome.etas))


class CliWorkload(_FuzzyEta):
    """`casplit run` on the static default config, with every file emitted."""

    ops_per_body = 3  # ca, pcc, scc
    op_unit = "Simulation.run"
    tail_pct = ETA_TAIL_PCT

    def __init__(self, name: str, min_bodies: int, changes: dict):
        self.name = name
        self.min_bodies = min_bodies
        self._changes = changes

    def prepare(self, workdir: Path) -> None:
        cfg = scenario.default_static_scenario(3, **self._changes)
        scenario.to_file(cfg, workdir / "static.ini")

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.ini = workdir / "static.ini"
        self.cfg = scenario.from_file(self.ini)

    def body(self, seed: int, span=None) -> BodyResult:
        out = self.workdir / f"cli-{seed}"
        try:
            with RunLog() as log:
                t0 = perf_counter()
                code = cli.main(["run", "--config", str(self.ini), "--seeds", str(seed),
                                 "--mode", "ca,pcc,scc", "--out", str(out)])
                span = (t0, perf_counter())
            if code != 0:
                return BodyResult(span, log.slots, 0, self.ops_per_body, log.run_s,
                                  log.op_spans, [f"seed {seed}: exit {code}"] * self.ops_per_body)
            lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
            failures, quality = list(log.failed), []
            cols = lines[0].split(",")
            rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
            runs = {}
            for r in (r for r in rows if r["record"] == "run"):
                runs[r["policy"]] = int(r["t_slots"])
                path = out / f"trace_{r['scenario']}_{r['policy']}_{seed}.csv"
                with open(path, encoding="utf-8") as fh:
                    n_rows = sum(1 for _ in fh) - 1
                if n_rows != int(r["t_slots"]):
                    failures.append(f"{path.name}: {n_rows} rows, t_slots {r['t_slots']}")
            for r in (r for r in rows if r["record"] == "eta"):
                eta = float(r["eta"]) if r["eta"] else -1.0
                if not 0.0 <= eta <= 1.0:
                    failures.append(f"seed {seed}: eta {r['eta']!r} outside [0, 1]")
                for ref in REF_LABELS:
                    if runs.get(ref, 0) < int(r["window"]):
                        failures.append(f"{ref} seed {seed}: shorter than the window")
                quality.append(eta)
            if len(quality) != 1:
                failures.append(f"seed {seed}: {len(quality)} eta rows")
            return BodyResult(span, log.slots, 1, self.ops_per_body, log.run_s,
                              log.op_spans, failures, quality, lines)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class OracleWorkload:
    """Criterion-3 instances: brute force, witness replay, 200-slot fuzzy run."""

    op_unit = "instance"
    tail_pct = ORACLE_TAIL_PCT
    sim_name = "oracle_worst_ratio"

    @staticmethod
    def sim_value(values: list[float]) -> float:
        return max(values)

    @staticmethod
    def efficiency(values: list[float]) -> float:
        """Mean T*/T: the worst case alone moves in coarse steps between seeds.

        Above 1 where fuzzy_pid's both-carrier fill slots beat the optimum
        over complementary actions only.
        """
        return sum(1.0 / v for v in values) / len(values)

    def __init__(self, name: str, instances: int, min_bodies: int):
        self.name = name
        self.ops_per_body = instances
        self.min_bodies = min_bodies

    def prepare(self, workdir: Path) -> None:
        pass

    def setup(self, workdir: Path) -> None:
        self.instances(DEFAULT_SEED)

    def instances(self, seed: int) -> list:
        rng = make_rng(seed, "oracle-instances")
        return [oracle.gen_min_t_instance(rng, label=f"i{i}")
                for i in range(self.ops_per_body)]

    def body(self, seed: int, span=None) -> BodyResult:
        span = span or (lambda name: nullcontext())
        batch = self.instances(seed)
        op_spans, failures, quality, rows = [], [], [], []
        with RunLog() as log:
            t_body = perf_counter()
            for inst in batch:
                t0 = perf_counter()
                with span("instance"):
                    res = oracle.brute_force_min_T(inst)
                    replay_t = oracle.replay_witness(inst, res.actions)[0] if res.feasible else None
                    run = Simulation(
                        l=inst.l, arrival_mode="burst", arrival_rate=0, n_scc=inst.n_scc,
                        d_xn=inst.d_xn, caps=inst.caps_array(ORACLE_FUZZY_SLOTS),
                        controller=FuzzyPidController(n=16, n_scc=inst.n_scc),
                        max_slots=ORACLE_FUZZY_SLOTS, stop_on_complete=True).run()
                op_spans.append((t0, perf_counter()))
                t_fuzzy = run.completion_slot + 1 if run.completed else None
                rows.append(f"{inst.label},{res.t_star},{replay_t},{t_fuzzy}")
                if not res.feasible or replay_t != res.t_star or t_fuzzy is None:
                    failures.append(f"seed {seed} {inst.label}: t*={res.t_star} "
                                    f"replay={replay_t} fuzzy={t_fuzzy}")
                else:
                    quality.append(t_fuzzy / res.t_star)
            span = (t_body, perf_counter())
        return BodyResult(span, log.slots, len(batch), len(batch), log.run_s,
                          op_spans, log.failed + failures, quality, rows)


def make(name: str, tiny: bool = False):
    """The named workload at full size, or at a size small enough for a smoke test."""
    if name == "static-burst":
        changes = {"l": 300, "max_slots": 3000} if tiny else {}
        return EtaWorkload(name, scenario.default_static_scenario, 1 if tiny else 3, changes)
    if name == "mobile-stream":
        changes = {"max_slots": 3000} if tiny else {}
        return EtaWorkload(name, scenario.default_mobile_scenario, 1 if tiny else 3, changes)
    if name == "cli-emit":
        changes = {"l": 300, "max_slots": 3000} if tiny else {}
        return CliWorkload(name, 1 if tiny else 3, changes)
    if name == "oracle-batch":
        return OracleWorkload(name, 5 if tiny else ORACLE_INSTANCES, 1 if tiny else 20)
    raise KeyError(name)


WORKLOADS = ("static-burst", "mobile-stream", "cli-emit", "oracle-batch")
