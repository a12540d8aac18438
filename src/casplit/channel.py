"""Per-slot fading, path loss, SINR and the abstracted MAC/PHY capacity.

The carrier capacity model is deliberately coarse: a carrier is either
above the normalized delivery threshold in a slot (and then moves a fixed
number of packets) or it is in outage and moves nothing.  Fading
coefficients are drawn from a positive family moment-matched to mean 1 and
the configured variance; with zero variance the draw is exactly 1, which
gives flat deterministic channels for oracle runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from casplit.core import ConfigError, check_kind, field_kinds

PCC = "pcc"
SCC = "scc"

FADING_FAMILIES = ("gamma", "lognormal")
PATH_LOSS_MODELS = ("uma-nlos", "fixed")


@dataclass
class CarrierConfig:
    """Radio parameters of one component carrier.

    ``rho`` is the normalization factor that folds bandwidth, payload and
    slot duration into packets-per-slot units.  ``rx_calibration_db``
    absorbs antenna gains and the noise floor so that the path-loss model
    output lands in SINR units; it has no effect under the "fixed" model,
    where ``pl_fixed_db`` is used directly as the normalized loss.
    """

    kind: str  # "pcc" or "scc"
    name: str = ""
    frequency_ghz: float = 28.0
    bandwidth_mhz: float = 100.0
    tx_power_dbm: float = 35.0
    rho: float = 1.0
    sigma2: float = 0.0
    n_th: float = 2.0
    fading_family: str = "gamma"
    pl_model: str = "uma-nlos"
    pl_fixed_db: float = 0.0
    rx_calibration_db: float = 0.0

    def __post_init__(self) -> None:
        self.validate()
        if not self.name:
            self.name = self.kind

    def validate(self) -> None:
        """Every message names the key as a config file does (``carriers.<name>.<key>``),
        and every field's kind is checked before any value is compared."""
        where = f"carriers.{self.name or self.kind}"
        for key, kind in _CARRIER_KINDS.items():
            check_kind(f"{where}.{key}", getattr(self, key), kind)
        if self.kind not in (PCC, SCC):
            raise ConfigError(f"{where}.kind must be 'pcc' or 'scc', got {self.kind!r}")
        if not self.frequency_ghz > 0:
            raise ConfigError(f"{where}.frequency_ghz must be positive, "
                              f"got {self.frequency_ghz!r}")
        if not self.bandwidth_mhz > 0:
            raise ConfigError(f"{where}.bandwidth_mhz must be positive, "
                              f"got {self.bandwidth_mhz!r}")
        if self.rho <= 0:
            raise ConfigError(f"{where}.rho must be positive")
        if self.sigma2 < 0:
            raise ConfigError(f"{where}.sigma2 must be non-negative")
        if self.n_th <= 0:
            raise ConfigError(f"{where}.n_th must be positive")
        if self.fading_family not in FADING_FAMILIES:
            raise ConfigError(f"{where}.fading_family: unknown family "
                              f"{self.fading_family!r}, use one of {FADING_FAMILIES}")
        if self.pl_model not in PATH_LOSS_MODELS:
            raise ConfigError(f"{where}.pl_model: unknown model {self.pl_model!r}, "
                              f"use one of {PATH_LOSS_MODELS}")


_CARRIER_KINDS = field_kinds(CarrierConfig)


def sample_fading(cfg: CarrierConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` fading coefficients with mean 1 and variance ``cfg.sigma2``.

    A zero variance returns exactly 1.
    """
    s2 = cfg.sigma2
    if s2 == 0.0:
        return np.ones(size)
    if cfg.fading_family == "gamma":
        # shape*scale = 1, shape*scale^2 = sigma2
        return rng.gamma(shape=1.0 / s2, scale=s2, size=size)
    ls2 = math.log1p(s2)  # lognormal
    return rng.lognormal(mean=-ls2 / 2.0, sigma=math.sqrt(ls2), size=size)


def capacity_series(cfg: CarrierConfig, distances_m: np.ndarray, alphas: np.ndarray,
                    rho_s: float) -> np.ndarray:
    """Per-slot capacities of one carrier over a whole run, as int64 packets.

    Path loss ``32.4 + 30 log10(d_m) + 20 log10(f_GHz) - rx_calibration_db``
    (valid from 1 m; ``pl_fixed_db`` under the "fixed" model), SINR
    ``tx_power_dbm - PL - 10 log10(alpha)``.  Above the threshold
    ``rho log2(1 + SINR) >= n_th`` (``rho_s`` on the PCC, an SCC's own
    ``rho``) the PCC moves ``floor(rho_pcc / rho_s)`` packets and an SCC one.
    """
    if cfg.pl_model == "fixed":
        pl = np.full_like(np.asarray(distances_m, dtype=float), cfg.pl_fixed_db)
    else:
        d = np.asarray(distances_m, dtype=float)
        if np.any(d < 1.0):
            raise ValueError("trajectory distance below 1 m model validity")
        pl = 32.4 + 30.0 * np.log10(d) + 20.0 * math.log10(cfg.frequency_ghz)
        pl = pl - cfg.rx_calibration_db
    gamma = cfg.tx_power_dbm - pl - 10.0 * np.log10(alphas)
    gamma_lin = 10.0 ** (gamma / 10.0)
    thr_rho = cfg.rho if cfg.kind == SCC else rho_s
    above = thr_rho * np.log2(1.0 + gamma_lin) >= cfg.n_th
    unit = int(cfg.rho // rho_s) if cfg.kind == PCC else 1
    return np.where(above, unit, 0).astype(np.int64)
