"""Scenario assembly: UE trajectories, validated run configuration, the
key-value config file format, and wiring of channel + stack + policy into
a runnable simulation."""

from __future__ import annotations

import configparser
import dataclasses
import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from casplit.baselines import (
    BwaController,
    LtrController,
    QLearningController,
    QTable,
    StationaryKController,
)
from casplit.channel import CarrierConfig, capacity_series, sample_fading, PCC, SCC
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

# The [controller] keys each policy takes, with their kinds.  A TABLE is a
# fuzzy rule table, held and written flat as ``r0c0,r0c1,r1c0,r1c1``.  The
# defaults live in the controller classes.
TABLE = "table"
_FUZZY_PARAMS = {
    "b_max": int, "kp": float, "ki": float, "kd": float,
    "t_p": TABLE, "t_i": TABLE, "t_d": TABLE, "gain_min": float, "gain_max": float,
    "membership_width": float, "membership_width_change": float, "b_target": float,
}
POLICY_PARAMS = {
    "fuzzy_pid": _FUZZY_PARAMS,
    "nofuzzy_pid": _FUZZY_PARAMS,
    "bwa": {},
    "ltr": {"eps_rate": float, "smoothing": float},
    "qlearning": {"n_bins": int, "b_max": int, "epsilon": float,
                  "learn_rate": float, "discount": float},
    "stationary_k": {"k": int},
}
POLICIES = tuple(POLICY_PARAMS)
_NOUN = {int: "an integer", float: "a finite number", TABLE: "4 comma-separated finite numbers"}


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


TRAJECTORIES = {cls.kind: cls for cls in (StaticTrajectory, OutAndBackTrajectory)}


# Calibrated receive offsets (antenna gains and noise normalization) such
# that at 100 m the sub-6 GHz anchor sits ~15 dB above the delivery
# threshold while a mmWave link clears it on a few percent of slots, in
# runs separated by heavy-tailed outage bursts.
PCC_RX_CALIBRATION_DB = 98.2
SCC_RX_CALIBRATION_DB = 86.3

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
        if not self.slot_duration > 0:
            raise ConfigError(f"run.slot_duration must be > 0, got {self.slot_duration!r}")
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
        traj = self.trajectory
        if isinstance(traj, StaticTrajectory) and not traj.distance_m >= 1:
            raise ConfigError("trajectory.distance_m must be >= 1")
        if isinstance(traj, OutAndBackTrajectory):
            if not traj.d0_m >= 1:
                raise ConfigError("trajectory.d0_m must be >= 1")
            for key in ("speed_mps", "turn_time_s"):
                if not getattr(traj, key) >= 0:
                    raise ConfigError(f"trajectory.{key} must be >= 0")
        takes = POLICY_PARAMS[self.policy]
        for key, value in self.policy_params.items():
            if key not in takes:
                raise ConfigError(f"controller.{key}: not a parameter of policy "
                                  f"{self.policy} (it takes: {', '.join(takes) or 'none'})")
            _check_kind(key, value, takes[key])
        if self.policy_params:  # the controllers' own defaults always pass
            try:
                make_controller(self)
            except ValueError as exc:  # controller messages start with the field
                raise ConfigError(f"controller.{exc}") from None

    def copy(self, **changes) -> "ScenarioConfig":
        dup = dataclasses.replace(self, **changes)
        if "carriers" not in changes:
            dup.carriers = [dataclasses.replace(c) for c in self.carriers]
        if "policy_params" not in changes:
            dup.policy_params = dict(self.policy_params)
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
            alphas = sample_fading(carrier, rng, size=n_slots)
        dist = d_p if carrier.kind == PCC else d_s
        rows.append(capacity_series(carrier, dist, alphas, cfg.rho_s))
    return np.vstack(rows)


def make_controller(cfg: ScenarioConfig, seed: int | None = None,
                    policy: str | None = None):
    """The controller of ``policy`` (default ``cfg.policy``), handed only the
    ``[controller]`` keys that policy declares; ``b_max`` defaults to
    ``cfg.default_b_max()``, every other default is the controller's own."""
    seed = cfg.seed if seed is None else seed
    policy = cfg.policy if policy is None else policy
    takes = POLICY_PARAMS.get(policy)
    if takes is None:
        raise ConfigError(f"controller.policy: unknown policy {policy!r}")
    params = {k: v for k, v in cfg.policy_params.items() if k in takes}
    if policy in ("fuzzy_pid", "nofuzzy_pid"):
        gains = PidGains(params.pop("kp", DEFAULT_GAINS.kp),
                         params.pop("ki", DEFAULT_GAINS.ki),
                         params.pop("kd", DEFAULT_GAINS.kd))
        tables = {k: (v[:2], v[2:]) for k, v in params.items() if takes[k] is TABLE}
        fcfg = FuzzyConfig(**{"b_max": cfg.default_b_max(), **params, **tables})
        cls = FuzzyPidController if policy == "fuzzy_pid" else NoFuzzyController
        return cls(n=cfg.n, n_scc=cfg.n_scc, cfg=fcfg, gains=gains)
    if policy == "bwa":
        return BwaController(cfg.pcc.bandwidth_mhz, [c.bandwidth_mhz for c in cfg.sccs])
    if policy == "ltr":
        return LtrController(cfg.n_scc, cfg.d_xn, **params)
    if policy == "qlearning":
        table = QTable(**{"b_max": cfg.default_b_max(), **params})
        return QLearningController(table, make_rng(seed, "policy/qlearning"))
    return StationaryKController(**params)


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
        scenario=cfg.name,
    )
    if mode is RunMode.CA:
        return Simulation(controller=make_controller(cfg, seed, policy=policy), **kwargs)
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    takes = POLICY_PARAMS[cfg.policy]
    for key, value in sorted(cfg.policy_params.items()):
        if takes[key] is TABLE:
            controller[key] = ",".join(_fmt(float(x)) for x in value)
        else:
            controller[key] = _fmt(value)
    parser["controller"] = controller
    traj = cfg.trajectory
    parser["trajectory"] = {k: _fmt(v) for k, v in
                            {"kind": traj.kind, **dataclasses.asdict(traj)}.items()}
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
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def from_file(path) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return _from_parser(parser)


def _typed(where: str, raw: str, kind):
    """``raw`` parsed as ``kind`` (int or finite float); the error names ``where``."""
    try:
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError
        return value
    except ValueError:
        raise ConfigError(f"{where}: expected {_NOUN[kind]}, got {raw!r}") from None


def _read_param(key: str, raw: str, kind):
    """A ``[controller]`` value read as its declared kind; an undeclared key
    (``kind`` None) stays text for ``ScenarioConfig.validate`` to reject."""
    if kind is TABLE:
        return tuple(_typed(f"controller.{key}", x, float) for x in raw.split(","))
    return raw if kind is None else _typed(f"controller.{key}", raw, kind)


def _check_kind(key: str, value, kind) -> None:
    """``value`` is of the declared ``kind``; the error names the key."""
    def number(x) -> bool:
        return not isinstance(x, bool) and (
            isinstance(x, int) or isinstance(x, float) and math.isfinite(x))
    if kind is TABLE:
        ok = isinstance(value, tuple) and len(value) == 4 and all(map(number, value))
    else:
        ok = number(value) and (kind is float or isinstance(value, int))
    if not ok:
        raise ConfigError(f"controller.{key}: expected {_NOUN[kind]}, got {value!r}")


def _get(section: configparser.SectionProxy, key: str, kind, default: str):
    return _typed(f"{section.name}.{key}", section.get(key, default), kind)


def _carrier_order(carrier: CarrierConfig) -> tuple:
    """The PCC first, then SCCs by name with digit runs compared as numbers
    (``scc2`` before ``scc10``)."""
    parts = re.split(r"(\d+)", carrier.name)
    return carrier.kind != PCC, [int(p) if i % 2 else p for i, p in enumerate(parts)]


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
        floats = {k: _typed(f"{section}.{k}", raw[k], float) for k in _CARRIER_FIELDS
                  if k not in ("kind", "fading_family", "pl_model")}
        try:
            carriers.append(CarrierConfig(
                kind=raw["kind"], name=name, fading_family=raw["fading_family"],
                pl_model=raw["pl_model"], **floats))
        except ValueError as exc:  # CarrierConfig messages start with the field
            raise ConfigError(f"{section}.{exc}") from None
    if not carriers:
        raise ConfigError("missing config section [carriers.pcc]")
    carriers.sort(key=_carrier_order)

    kind = trajectory.get("kind", "static")
    traj_cls = TRAJECTORIES.get(kind)
    if traj_cls is None:
        raise ConfigError(f"trajectory.kind: unknown kind {kind!r}")
    traj = traj_cls(**{f.name: _get(trajectory, f.name, float, _fmt(f.default))
                       for f in dataclasses.fields(traj_cls)})

    policy = controller.get("policy", "fuzzy_pid")
    takes = POLICY_PARAMS.get(policy, {})
    params = {key: _read_param(key, raw, takes.get(key))
              for key, raw in controller.items() if key not in ("policy", "n")}

    return ScenarioConfig(
        name=run.get("name", "scenario"),
        l=_get(workload, "l", int, "1"),
        arrival_mode=workload.get("arrival_mode", BURST),
        arrival_rate=_get(workload, "arrival_rate", int, "5"),
        n=_get(controller, "n", int, "16"),
        n_scc=_get(run, "n_scc", int, str(sum(1 for c in carriers if c.kind == SCC))),
        d_xn=_get(channel, "d_xn", int, "2"),
        seed=_get(run, "seed", int, "1"),
        max_slots=_get(run, "max_slots", int, "60000"),
        slot_duration=_get(run, "slot_duration", float, "0.001"),
        policy=policy,
        policy_params=params,
        carriers=carriers,
        trajectory=traj,
        scc_distance_offset_m=_get(channel, "scc_distance_offset_m", float, "0.0"),
    )
