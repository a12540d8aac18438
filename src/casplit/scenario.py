"""Scenario assembly: the UE trajectory, validated run configuration, the
key-value config file format, and wiring of channel + stack + policy into
a runnable simulation."""

from __future__ import annotations

import configparser
import dataclasses
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
from casplit.core import NOUN, TABLE, ConfigError, check_kind, field_kinds, make_rng
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

# The [controller] keys each policy takes, with their kinds (``core.TABLE``
# for a fuzzy rule table).  The defaults live in the controller classes.
_FUZZY_PARAMS = {
    "b_max": int, "kp": float, "ki": float, "kd": float,
    "t_p": TABLE, "t_i": TABLE, "t_d": TABLE, "gain_min": float, "gain_max": float,
    "membership_width": float, "membership_width_change": float,
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


class RunMode(str, Enum):
    CA = "ca"
    PCC_ONLY = "pcc"
    SCC_ONLY = "scc"


@dataclass
class Trajectory:
    """The UE's distance from the gNBs: it moves away from ``d0_m`` at
    ``speed_mps``, turns after ``turn_time_s``, comes back, then holds
    ``d0_m``.  At speed 0 the UE is parked at ``d0_m``."""

    d0_m: float = 100.0
    speed_mps: float = 0.0
    turn_time_s: float = 10.0

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
    trajectory: Trajectory = field(default_factory=Trajectory)

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
        for section, kinds in _SECTIONS.items():
            for key, kind in kinds.items():
                check_kind(f"{section}.{key}", getattr(self, key), kind)
        # The name is part of every trace file's name and a CSV field.
        if not re.fullmatch(r"[A-Za-z0-9._-]*", self.name):
            raise ConfigError(f"run.name must hold only letters, digits, '.', '_' and '-', "
                              f"got {self.name!r}")
        names = [c.name for c in self.carriers]
        for c in self.carriers:
            c.validate()
            if names.count(c.name) > 1:  # fading streams and config sections go by name
                raise ConfigError(f"carriers.{c.name}: two carriers share this name")
        traj = self.trajectory
        if not isinstance(traj, Trajectory):
            raise ConfigError(f"trajectory: expected a Trajectory, got {traj!r}")
        for key, kind in _KINDS[Trajectory].items():
            check_kind(f"trajectory.{key}", getattr(traj, key), kind)
        if self.n < 2:
            raise ConfigError("controller.n must be >= 2")
        if self.n_scc < 1:
            raise ConfigError("run.n_scc must be >= 1")
        if self.d_xn < 0:
            raise ConfigError("channel.d_xn must be >= 0")
        if self.seed < 0:
            raise ConfigError("run.seed must be >= 0")
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
        takes = _policy_keys(self.policy)
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
        if not traj.d0_m >= 1:
            raise ConfigError("trajectory.d0_m must be >= 1")
        for key in ("speed_mps", "turn_time_s"):
            if not getattr(traj, key) >= 0:
                raise ConfigError(f"trajectory.{key} must be >= 0")
        for key, value in self.policy_params.items():
            if key not in takes:
                raise ConfigError(f"controller.{key}: not a parameter of policy "
                                  f"{self.policy} (it takes: {', '.join(takes) or 'none'})")
            check_kind(f"controller.{key}", value, takes[key])
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
        if "trajectory" not in changes:
            dup.trajectory = dataclasses.replace(self.trajectory)
        return dup


_KINDS = {cls: field_kinds(cls) for cls in (ScenarioConfig, CarrierConfig, Trajectory)}
# A carrier's name is its section's name, not a key.
_CARRIER_KEYS = {k: kind for k, kind in _KINDS[CarrierConfig].items() if k != "name"}
# ScenarioConfig's scalar fields by config-file section, in the order
# ``to_file`` writes them, with their kinds.  [controller] also holds the
# policy's own keys (POLICY_PARAMS) and [trajectory] the fields of
# ``Trajectory``.
_SECTIONS = {section: {k: _KINDS[ScenarioConfig][k] for k in keys} for section, keys in (
    ("workload", ("l", "arrival_mode", "arrival_rate")),
    ("channel", ("d_xn",)),
    ("controller", ("policy", "n")),
    ("trajectory", ()),
    ("run", ("name", "seed", "max_slots", "n_scc", "slot_duration")),
)}


def _policy_keys(policy: str) -> dict:
    """The ``[controller]`` keys ``policy`` takes, with their kinds."""
    if policy not in POLICY_PARAMS:
        raise ConfigError(f"controller.policy: unknown policy {policy!r}, use one of {POLICIES}")
    return POLICY_PARAMS[policy]


def default_static_scenario(n_scc: int = 3, **changes) -> ScenarioConfig:
    """File-transfer burst to a UE parked 100 m from the primary gNB."""
    cfg = ScenarioConfig(name=f"static-nscc{n_scc}", n_scc=n_scc,
                         carriers=default_carriers(n_scc),
                         trajectory=Trajectory(d0_m=100.0))
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
                         trajectory=Trajectory(d0_m=70.0, speed_mps=10.0),
                         arrival_mode=PER_SLOT, arrival_rate=n_scc + 2,
                         l=1, max_slots=20_000, n=32,
                         policy_params={"t_i": (-0.02, -0.08, 0.1, 0.05)})
    return cfg.copy(**changes) if changes else cfg


# -- channel precompute and run wiring ---------------------------------------


def build_caps(cfg: ScenarioConfig, seed: int | None = None) -> np.ndarray:
    """Per-slot capacities for every carrier over the full horizon.

    Fading streams are keyed by (seed, carrier name) only, so the capacity
    matrix is identical across CA and single-carrier runs of the same seed
    (common random numbers).  Every carrier sees the UE at the same distance.
    """
    seed = cfg.seed if seed is None else seed
    n_slots = cfg.max_slots
    dist = cfg.trajectory.distances(n_slots, cfg.slot_duration)
    rows = []
    for carrier in cfg.carriers:
        alphas = sample_fading(carrier, make_rng(seed, f"fading/{carrier.name}"), size=n_slots)
        rows.append(capacity_series(carrier, dist, alphas, cfg.rho_s))
    return np.vstack(rows)


def make_controller(cfg: ScenarioConfig, seed: int | None = None,
                    policy: str | None = None):
    """The controller of ``policy`` (default ``cfg.policy``), handed only the
    ``[controller]`` keys that policy declares; ``b_max`` defaults to
    ``cfg.default_b_max()``, every other default is the controller's own."""
    seed = cfg.seed if seed is None else seed
    policy = cfg.policy if policy is None else policy
    takes = _policy_keys(policy)
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


def _fmt(value) -> str:
    if isinstance(value, tuple):  # a TABLE
        return ",".join(repr(float(x)) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_file(cfg: ScenarioConfig, path) -> None:
    parser = configparser.ConfigParser()
    for section, keys in _SECTIONS.items():
        parser[section] = {k: _fmt(getattr(cfg, k)) for k in keys}
    parser["controller"].update({k: _fmt(v) for k, v in sorted(cfg.policy_params.items())})
    parser["trajectory"] = {k: _fmt(getattr(cfg.trajectory, k)) for k in _KINDS[Trajectory]}
    for carrier in cfg.carriers:
        parser[f"carriers.{carrier.name}"] = {k: _fmt(getattr(carrier, k)) for k in _CARRIER_KEYS}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def from_file(path) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid UTF-8: {path} "
                          f"(byte {exc.start}: {exc.reason})") from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"{exc.section}.{exc.option}: repeated key (line {exc.lineno})") from None
    except configparser.Error as exc:  # no section header, a repeated section
        raise ConfigError(f"malformed config file: {exc}") from None
    return _from_parser(parser)


def _typed(where: str, raw: str, kind):
    """``raw`` converted to ``kind``; ``ScenarioConfig.validate`` checks the value."""
    try:
        if kind is TABLE:
            return tuple(float(x) for x in raw.split(","))
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {NOUN[kind]}, got {raw!r}") from None


def _read(section: configparser.SectionProxy, kinds: dict, optional: dict | None = None) -> dict:
    """Every key of ``section`` converted to its kind.  Each key of ``kinds``
    is required, one of ``optional`` may be left out, any other is refused
    (before a missing key is named, so a file of an older format is told
    which key it may no longer hold)."""
    name, values = section.name, dict(section)
    takes = {**kinds, **(optional or {})}
    for key, raw in values.items():
        if key not in takes:
            raise ConfigError(f"{name}.{key} = {raw}: unknown key; "
                              f"[{name}] takes {', '.join(takes)}")
    for key in kinds:
        if key not in values:
            raise ConfigError(f"{name}.{key}: missing key")
    return {key: _typed(f"{name}.{key}", raw, takes[key]) for key, raw in values.items()}


def _carrier_order(carrier: CarrierConfig) -> tuple:
    """The PCC first, then SCCs by name with digit runs compared as numbers
    (``scc2`` before ``scc10``)."""
    parts = re.split(r"(\d+)", carrier.name)
    return carrier.kind != PCC, [int(p) if i % 2 else p for i, p in enumerate(parts)]


def _from_parser(parser: configparser.ConfigParser) -> ScenarioConfig:
    if defaults := parser.defaults():  # configparser copies these into every section
        raise ConfigError(f"[DEFAULT] {', '.join(defaults)}: a DEFAULT section is not read")
    for section in _SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing config section [{section}]")

    carriers = []
    for section in parser.sections():
        if section.startswith("carriers."):
            values = _read(parser[section], _CARRIER_KEYS)
            # CarrierConfig messages name the section's keys.
            carriers.append(CarrierConfig(name=section.split(".", 1)[1], **values))
    if not carriers:
        raise ConfigError("missing config section [carriers.pcc]")
    carriers.sort(key=_carrier_order)

    trajectory = Trajectory(**_read(parser["trajectory"], _KINDS[Trajectory]))
    fields = {}
    for section in ("workload", "channel", "run"):
        fields.update(_read(parser[section], _SECTIONS[section]))
    controller = parser["controller"]
    if "policy" not in controller:  # named before the keys it decides are checked
        raise ConfigError("controller.policy: missing key")
    params = _read(controller, _SECTIONS["controller"], _policy_keys(controller["policy"]))
    fields.update((k, params.pop(k)) for k in _SECTIONS["controller"])
    return ScenarioConfig(**fields, policy_params=params, carriers=carriers,
                          trajectory=trajectory)
