"""Scenario assembly: UE trajectories, validated run configuration, the
key-value config file format, and wiring of channel + stack + policy into
a runnable simulation."""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from casplit.baselines import (
    BwaController,
    LtrController,
    QLearningController,
    QTable,
    StationaryKController,
    ForcedController,
)
from casplit.channel import CarrierConfig, capacity_series, PCC, SCC
from casplit.core import make_rng
from casplit.engine import Simulation, BURST, PER_SLOT
from casplit.fuzzy_pid import (
    FuzzyConfig,
    FuzzyPidController,
    NoFuzzyController,
    PidGains,
    PCC_ONLY_ACTION,
    SCC_ONLY_ACTION,
    DEFAULT_GAINS,
)

POLICIES = ("fuzzy_pid", "nofuzzy_pid", "bwa", "ltr", "qlearning", "stationary_k")


class RunMode(str, Enum):
    CA = "ca"
    PCC_ONLY = "pcc"
    SCC_ONLY = "scc"


class ConfigError(ValueError):
    """Scenario configuration rejected; the message names the field."""


@dataclass
class StaticTrajectory:
    kind = "static"
    distance_m: float = 100.0

    def distance(self, t: int, slot_duration: float) -> float:
        return self.distance_m

    def distances(self, n_slots: int, slot_duration: float) -> np.ndarray:
        return np.full(n_slots, self.distance_m)


@dataclass
class OutAndBackTrajectory:
    """Move away at constant speed, turn after ``turn_time_s``, come back,
    then hold the start distance."""

    kind = "out_and_back"
    d0_m: float = 70.0
    speed_mps: float = 10.0
    turn_time_s: float = 10.0

    def distance(self, t: int, slot_duration: float) -> float:
        elapsed = t * slot_duration
        if elapsed <= self.turn_time_s:
            return self.d0_m + self.speed_mps * elapsed
        if elapsed <= 2 * self.turn_time_s:
            return self.d0_m + self.speed_mps * (2 * self.turn_time_s - elapsed)
        return self.d0_m

    def distances(self, n_slots: int, slot_duration: float) -> np.ndarray:
        elapsed = np.arange(n_slots) * slot_duration
        out = self.d0_m + self.speed_mps * np.minimum(elapsed, self.turn_time_s)
        back = self.speed_mps * np.clip(elapsed - self.turn_time_s, 0.0, self.turn_time_s)
        return out - back


# Calibrated receive offsets (antenna gains and noise normalization) such
# that at 100 m the sub-6 GHz anchor sits ~15 dB above the delivery
# threshold while a mmWave link clears it on a few percent of slots, in
# runs separated by heavy-tailed outage bursts.
PCC_RX_CALIBRATION_DB = 98.2
SCC_RX_CALIBRATION_DB = 86.3

# Inert descriptive rows carried alongside the radio parameters; nothing in
# the simulator consumes them.
TRANSPORT_METADATA = {
    "tcp_congestion_control": "NewReno",
    "ue_tcp_receive_window": "512KB",
    "rlc_transport_mode": "AM",
    "rlc_polling_pdu_threshold": "100",
    "xn_link_data_rate": "1Gbps",
}


def default_carriers(n_scc: int = 3) -> list[CarrierConfig]:
    carriers = [CarrierConfig(
        kind=PCC, name="pcc", frequency_ghz=4.9, bandwidth_mhz=100.0,
        tx_power_dbm=28.0, rho=2.0, sigma2=0.0004, n_th=2.0,
        rx_calibration_db=PCC_RX_CALIBRATION_DB,
    )]
    for s in range(n_scc):
        # Lognormal keeps the (mean 1, variance 0.27) moments but has the
        # heavier tail; mmWave outages then arrive in bursts, which is the
        # regime the adaptive gain layer is for.
        carriers.append(CarrierConfig(
            kind=SCC, name=f"scc{s + 1}", frequency_ghz=28.0, bandwidth_mhz=100.0,
            tx_power_dbm=35.0, rho=1.0, sigma2=0.27, n_th=2.0,
            fading_family="lognormal",
            rx_calibration_db=SCC_RX_CALIBRATION_DB,
        ))
    return carriers


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce a run except the run mode."""

    name: str = "static-default"
    l: int = 10_000
    arrival_mode: str = BURST
    arrival_rate: int = 5
    n: int = 16
    n_scc: int = 3
    d_xn: int = 2
    seed: int = 1
    max_slots: int = 60_000
    slot_duration: float = 1e-3
    policy: str = "fuzzy_pid"
    policy_params: dict = field(default_factory=dict)
    carriers: list[CarrierConfig] = field(default_factory=default_carriers)
    trajectory: object = field(default_factory=StaticTrajectory)
    scc_distance_offset_m: float = 0.0
    metadata: dict = field(default_factory=lambda: dict(TRANSPORT_METADATA))

    def __post_init__(self) -> None:
        self.validate()

    # -- derived ------------------------------------------------------------

    @property
    def pcc(self) -> CarrierConfig:
        return next(c for c in self.carriers if c.kind == PCC)

    @property
    def sccs(self) -> list[CarrierConfig]:
        return [c for c in self.carriers if c.kind == SCC]

    @property
    def rho_s(self) -> float:
        return self.sccs[0].rho

    @property
    def capacity_ratio(self) -> int:
        return int(self.pcc.rho // self.rho_s)

    def default_b_max(self) -> int:
        return 2 * self.n * max(self.capacity_ratio, self.n_scc)

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("controller.n must be >= 2")
        if self.n_scc < 1:
            raise ConfigError("run.n_scc must be >= 1")
        if self.d_xn < 0:
            raise ConfigError("channel.d_xn must be >= 0")
        if self.max_slots < 1:
            raise ConfigError("run.max_slots must be >= 1")
        if self.arrival_mode not in (BURST, PER_SLOT):
            raise ConfigError("workload.arrival_mode must be burst or per_slot")
        if self.arrival_mode == PER_SLOT and self.arrival_rate < 1:
            raise ConfigError("workload.arrival_rate must be >= 1 in per_slot mode")
        if self.l < 1:
            raise ConfigError("workload.l must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigError(f"controller.policy must be one of {POLICIES}")
        pccs = [c for c in self.carriers if c.kind == PCC]
        sccs = [c for c in self.carriers if c.kind == SCC]
        if len(pccs) != 1:
            raise ConfigError("carriers.pcc: exactly one PCC section required")
        if len(sccs) != self.n_scc:
            raise ConfigError(
                f"carriers.scc*: found {len(sccs)} SCC sections, run.n_scc={self.n_scc}")
        rho_s = sccs[0].rho
        if any(c.rho != rho_s for c in sccs):
            raise ConfigError("carriers.scc*.rho: all SCCs must share one rho")
        if pccs[0].rho < rho_s:
            raise ConfigError("carriers.pcc.rho must be >= the SCC rho")
        if isinstance(self.trajectory, StaticTrajectory) and self.trajectory.distance_m < 1:
            raise ConfigError("trajectory.distance_m must be >= 1")
        if isinstance(self.trajectory, OutAndBackTrajectory) and self.trajectory.d0_m < 1:
            raise ConfigError("trajectory.d0_m must be >= 1")

    def copy(self, **changes) -> "ScenarioConfig":
        dup = dataclasses.replace(self, **changes)
        if "carriers" not in changes:
            dup.carriers = [dataclasses.replace(c) for c in self.carriers]
        if "policy_params" not in changes:
            dup.policy_params = dict(self.policy_params)
        if "metadata" not in changes:
            dup.metadata = dict(self.metadata)
        return dup


def default_static_scenario(n_scc: int = 3, **changes) -> ScenarioConfig:
    """File-transfer burst to a UE parked 100 m from the primary gNB."""
    cfg = ScenarioConfig(name=f"static-nscc{n_scc}", n_scc=n_scc,
                         carriers=default_carriers(n_scc),
                         trajectory=StaticTrajectory(100.0))
    return cfg.copy(**changes) if changes else cfg


def default_mobile_scenario(n_scc: int = 3, **changes) -> ScenarioConfig:
    """Saturated stream while the UE walks out 100 m and back at 10 m/s.

    The start distance (70 m) is chosen so the mmWave links sweep their
    whole availability range over the path.  The preset widens the
    controller window (finer impulse grid for the deep-fade stretch) and
    strengthens the integral-gain relaxation so tuning pumped during fade
    transitions decays once the plant calms down.
    """
    cfg = ScenarioConfig(name=f"mobile-nscc{n_scc}", n_scc=n_scc,
                         carriers=default_carriers(n_scc),
                         trajectory=OutAndBackTrajectory(d0_m=70.0),
                         arrival_mode=PER_SLOT, arrival_rate=n_scc + 2,
                         l=1, max_slots=20_000, n=32,
                         policy_params={"t_i": (-0.02, -0.08, 0.1, 0.05)})
    return cfg.copy(**changes) if changes else cfg


# -- channel precompute and run wiring ---------------------------------------


def build_caps(cfg: ScenarioConfig, seed: int | None = None) -> np.ndarray:
    """Per-slot capacities for every carrier over the full horizon.

    Fading streams are keyed by (seed, carrier name) only, so the capacity
    matrix is identical across CA and single-carrier runs of the same seed
    (common random numbers).
    """
    seed = cfg.seed if seed is None else seed
    n_slots = cfg.max_slots
    d_p = cfg.trajectory.distances(n_slots, cfg.slot_duration)
    d_s = np.maximum(1.0, d_p + cfg.scc_distance_offset_m)
    rows = []
    for carrier in cfg.carriers:
        rng = make_rng(seed, f"fading/{carrier.name}")
        if carrier.sigma2 == 0.0:
            alphas = np.ones(n_slots)
        else:
            from casplit.channel import sample_fading
            alphas = sample_fading(carrier, rng, size=n_slots)
        dist = d_p if carrier.kind == PCC else d_s
        rows.append(capacity_series(carrier, dist, alphas, cfg.rho_s))
    return np.vstack(rows)


def make_controller(cfg: ScenarioConfig, seed: int | None = None,
                    policy: str | None = None):
    seed = cfg.seed if seed is None else seed
    policy = cfg.policy if policy is None else policy
    params = cfg.policy_params
    if policy in ("fuzzy_pid", "nofuzzy_pid"):
        fuzzy_kwargs = {}
        fuzzy_fields = {f.name for f in dataclasses.fields(FuzzyConfig)}
        for key, value in params.items():
            if key not in fuzzy_fields or key == "b_max":
                continue
            if key in _TABLE_KEYS and not isinstance(value[0], (tuple, list)):
                value = ((value[0], value[1]), (value[2], value[3]))
            fuzzy_kwargs[key] = value
        fcfg = FuzzyConfig(b_max=int(params.get("b_max", cfg.default_b_max())),
                           **fuzzy_kwargs)
        gains = PidGains(params.get("kp", DEFAULT_GAINS.kp),
                         params.get("ki", DEFAULT_GAINS.ki),
                         params.get("kd", DEFAULT_GAINS.kd))
        cls = FuzzyPidController if policy == "fuzzy_pid" else NoFuzzyController
        return cls(n=cfg.n, n_scc=cfg.n_scc, cfg=fcfg, gains=gains)
    if policy == "bwa":
        return BwaController(cfg.pcc.bandwidth_mhz, [c.bandwidth_mhz for c in cfg.sccs])
    if policy == "ltr":
        return LtrController(cfg.n_scc, cfg.d_xn,
                             eps_rate=params.get("eps_rate", 0.05),
                             smoothing=params.get("smoothing", 0.05))
    if policy == "qlearning":
        table = QTable(n_bins=int(params.get("n_bins", 16)),
                       b_max=int(params.get("b_max", cfg.default_b_max())),
                       epsilon=params.get("epsilon", 0.1),
                       learn_rate=params.get("learn_rate", 0.1),
                       discount=params.get("discount", 0.9))
        return QLearningController(table, make_rng(seed, "policy/qlearning"))
    if policy == "stationary_k":
        return StationaryKController(int(params.get("k", 1)))
    raise ConfigError(f"controller.policy: unknown policy {policy!r}")


def build_run(cfg: ScenarioConfig, mode: RunMode | str = RunMode.CA,
              seed: int | None = None, caps: np.ndarray | None = None,
              collect_trace: bool = False, max_slots: int | None = None,
              policy: str | None = None) -> Simulation:
    """Fully wired simulation for one (config, mode, seed) triple.

    Single-carrier reference modes force the corresponding action every
    slot and switch to a saturated per-slot source so their delivery sums
    track link capacity; the channel draws are untouched.
    """
    mode = RunMode(mode)
    seed = cfg.seed if seed is None else seed
    if caps is None:
        caps = build_caps(cfg, seed)
    kwargs = dict(
        l=cfg.l,
        arrival_mode=cfg.arrival_mode,
        arrival_rate=cfg.arrival_rate,
        n_scc=cfg.n_scc,
        d_xn=cfg.d_xn,
        caps=caps,
        max_slots=cfg.max_slots if max_slots is None else max_slots,
        collect_trace=collect_trace,
        mode=mode.value,
        seed=seed,
    )
    if mode is RunMode.CA:
        controller = make_controller(cfg, seed, policy=policy)
        return Simulation(controller=controller, policy=controller.name, **kwargs)
    forced = PCC_ONLY_ACTION if mode is RunMode.PCC_ONLY else SCC_ONLY_ACTION
    kwargs.update(
        arrival_mode=PER_SLOT,
        arrival_rate=max(cfg.arrival_rate, cfg.n_scc + 2),
        policy=f"forced-{mode.value}",
    )
    return Simulation(forced_action=forced, **kwargs)


# -- config file round trip ---------------------------------------------------

_CARRIER_FIELDS = ("kind", "frequency_ghz", "bandwidth_mhz", "tx_power_dbm", "rho",
                   "sigma2", "n_th", "fading_family", "pl_model", "pl_fixed_db",
                   "rx_calibration_db")
_TABLE_KEYS = ("t_p", "t_i", "t_d")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_scalar(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def to_file(cfg: ScenarioConfig, path) -> None:
    parser = configparser.ConfigParser()
    parser["workload"] = {
        "l": str(cfg.l),
        "arrival_mode": cfg.arrival_mode,
        "arrival_rate": str(cfg.arrival_rate),
    }
    parser["channel"] = {
        "d_xn": str(cfg.d_xn),
        "scc_distance_offset_m": _fmt(cfg.scc_distance_offset_m),
    }
    controller = {"policy": cfg.policy, "n": str(cfg.n)}
    for key, value in sorted(cfg.policy_params.items()):
        if key in _TABLE_KEYS:
            flat = value if not isinstance(value[0], (tuple, list)) else [
                x for row in value for x in row]
            controller[key] = ",".join(_fmt(float(x)) for x in flat)
        else:
            controller[key] = _fmt(value)
    parser["controller"] = controller
    traj = cfg.trajectory
    if isinstance(traj, StaticTrajectory):
        parser["trajectory"] = {"kind": "static", "distance_m": _fmt(traj.distance_m)}
    else:
        parser["trajectory"] = {
            "kind": "out_and_back",
            "d0_m": _fmt(traj.d0_m),
            "speed_mps": _fmt(traj.speed_mps),
            "turn_time_s": _fmt(traj.turn_time_s),
        }
    parser["run"] = {
        "name": cfg.name,
        "seed": str(cfg.seed),
        "max_slots": str(cfg.max_slots),
        "n_scc": str(cfg.n_scc),
        "slot_duration": _fmt(cfg.slot_duration),
    }
    for carrier in cfg.carriers:
        section = f"carriers.{carrier.name}"
        parser[section] = {k: _fmt(getattr(carrier, k)) for k in _CARRIER_FIELDS}
    if cfg.metadata:
        parser["metadata"] = {k: str(v) for k, v in cfg.metadata.items()}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def from_file(path) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return _from_parser(parser)


def from_string(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    parser.read_file(io.StringIO(text))
    return _from_parser(parser)


def _require(parser, section: str) -> configparser.SectionProxy:
    if not parser.has_section(section):
        raise ConfigError(f"missing config section [{section}]")
    return parser[section]


def _from_parser(parser: configparser.ConfigParser) -> ScenarioConfig:
    workload = _require(parser, "workload")
    channel = _require(parser, "channel")
    controller = _require(parser, "controller")
    trajectory = _require(parser, "trajectory")
    run = _require(parser, "run")

    carriers = []
    for section in parser.sections():
        if not section.startswith("carriers."):
            continue
        name = section.split(".", 1)[1]
        raw = dict(parser[section])
        missing = [k for k in _CARRIER_FIELDS if k not in raw]
        if missing:
            raise ConfigError(f"[{section}] missing key {missing[0]}")
        carriers.append(CarrierConfig(
            kind=raw["kind"], name=name,
            frequency_ghz=float(raw["frequency_ghz"]),
            bandwidth_mhz=float(raw["bandwidth_mhz"]),
            tx_power_dbm=float(raw["tx_power_dbm"]),
            rho=float(raw["rho"]),
            sigma2=float(raw["sigma2"]),
            n_th=float(raw["n_th"]),
            fading_family=raw["fading_family"],
            pl_model=raw["pl_model"],
            pl_fixed_db=float(raw["pl_fixed_db"]),
            rx_calibration_db=float(raw["rx_calibration_db"]),
        ))
    if not carriers:
        raise ConfigError("missing config section [carriers.pcc]")
    carriers.sort(key=lambda c: (c.kind != PCC, c.name))

    kind = trajectory.get("kind", "static")
    if kind == "static":
        traj = StaticTrajectory(float(trajectory.get("distance_m", 100.0)))
    elif kind == "out_and_back":
        traj = OutAndBackTrajectory(
            d0_m=float(trajectory.get("d0_m", 70.0)),
            speed_mps=float(trajectory.get("speed_mps", 10.0)),
            turn_time_s=float(trajectory.get("turn_time_s", 10.0)),
        )
    else:
        raise ConfigError(f"trajectory.kind: unknown kind {kind!r}")

    params: dict = {}
    for key, raw in controller.items():
        if key in ("policy", "n"):
            continue
        if key in _TABLE_KEYS:
            params[key] = tuple(float(x) for x in raw.split(","))
        else:
            params[key] = _parse_scalar(raw)

    metadata = dict(parser["metadata"]) if parser.has_section("metadata") else {}

    return ScenarioConfig(
        name=run.get("name", "scenario"),
        l=int(workload.get("l", "1")),
        arrival_mode=workload.get("arrival_mode", BURST),
        arrival_rate=int(workload.get("arrival_rate", "5")),
        n=int(controller.get("n", "16")),
        n_scc=int(run.get("n_scc", str(sum(1 for c in carriers if c.kind == SCC)))),
        d_xn=int(channel.get("d_xn", "2")),
        seed=int(run.get("seed", "1")),
        max_slots=int(run.get("max_slots", "60000")),
        slot_duration=float(run.get("slot_duration", "0.001")),
        policy=controller.get("policy", "fuzzy_pid"),
        policy_params=params,
        carriers=carriers,
        trajectory=traj,
        scc_distance_offset_m=float(channel.get("scc_distance_offset_m", "0.0")),
        metadata=metadata,
    )
