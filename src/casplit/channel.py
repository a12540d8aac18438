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
from dataclasses import dataclass, field

import numpy as np

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
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (PCC, SCC):
            raise ValueError(f"carrier kind must be 'pcc' or 'scc', got {self.kind!r}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")
        if self.n_th <= 0:
            raise ValueError("n_th must be positive")
        if self.fading_family not in FADING_FAMILIES:
            raise ValueError(f"unknown fading family {self.fading_family!r}")
        if self.pl_model not in PATH_LOSS_MODELS:
            raise ValueError(f"unknown path loss model {self.pl_model!r}")
        if not self.name:
            self.name = self.kind


def sample_fading(cfg: CarrierConfig, rng: np.random.Generator, size: int | None = None):
    """Draw fading coefficients with mean 1 and variance ``cfg.sigma2``.

    ``size=None`` returns a scalar, otherwise an ndarray of that length.
    A zero variance returns exactly 1.
    """
    s2 = cfg.sigma2
    if s2 == 0.0:
        return 1.0 if size is None else np.ones(size)
    if cfg.fading_family == "gamma":
        # shape*scale = 1, shape*scale^2 = sigma2
        out = rng.gamma(shape=1.0 / s2, scale=s2, size=size)
    else:  # lognormal
        ls2 = math.log1p(s2)
        out = rng.lognormal(mean=-ls2 / 2.0, sigma=math.sqrt(ls2), size=size)
    return float(out) if size is None else out


def path_loss_db(distance_m: float, frequency_ghz: float, model: str = "uma-nlos",
                 fixed_db: float = 0.0) -> float:
    """Path loss in dB for the configured model.

    The default urban-macro NLOS style form is
    ``32.4 + 30*log10(d_m) + 20*log10(f_GHz)``; the "fixed" model returns a
    per-carrier constant and exists for unit tests and oracle runs.
    """
    if model == "fixed":
        return fixed_db
    if distance_m < 1.0:
        raise ValueError(f"distance {distance_m} m below model validity (>= 1 m)")
    return 32.4 + 30.0 * math.log10(distance_m) + 20.0 * math.log10(frequency_ghz)


def path_loss(distance_m: float, frequency_ghz: float, model: str = "uma-nlos",
              fixed_db: float = 0.0) -> float:
    """Linear normalized path loss ``h = 10**(PL_dB/10)``."""
    return 10.0 ** (path_loss_db(distance_m, frequency_ghz, model, fixed_db) / 10.0)


def sinr_db(cfg: CarrierConfig, h: float, alpha: float) -> float:
    """SINR in dB: transmit power minus the faded normalized loss."""
    if h <= 0 or alpha <= 0:
        raise ValueError("h and alpha must be positive")
    return cfg.tx_power_dbm - 10.0 * math.log10(h * alpha)


def mac_capacity(cfg: CarrierConfig, gamma_db: float, rho_s: float | None = None) -> int:
    """Packets deliverable by the MAC/PHY abstraction in one slot.

    The delivery threshold compares ``rho_s * log2(1 + gamma_linear)``
    against ``n_th``, where ``rho_s`` is the SCC normalization factor (for
    an SCC this is its own rho).  Above threshold a PCC moves
    ``floor(rho_pcc / rho_s)`` packets and an SCC moves one; otherwise the
    carrier is in outage and moves nothing.  The SINR enters after dB to
    linear conversion.
    """
    if rho_s is None:
        rho_s = cfg.rho
    gamma_lin = 10.0 ** (gamma_db / 10.0)
    if rho_s * math.log2(1.0 + gamma_lin) < cfg.n_th:
        return 0
    if cfg.kind == PCC:
        return int(cfg.rho // rho_s)
    return 1


def capacity_series(cfg: CarrierConfig, distances_m: np.ndarray, alphas: np.ndarray,
                    rho_s: float) -> np.ndarray:
    """Vectorized per-slot capacities for one carrier over a whole run.

    Equivalent to calling ``mac_capacity(cfg, sinr_db(...))`` slot by slot;
    used by the engine so the hot loop stays integer-only.
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
