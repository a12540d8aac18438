import math

import numpy as np
import pytest

from casplit.channel import CarrierConfig, capacity_series, sample_fading
from casplit.core import make_rng

from reference import capacity_reference, sinr_reference


def scc(**overrides) -> CarrierConfig:
    base = dict(kind="scc", rho=1.0, sigma2=0.27, n_th=2.0)
    base.update(overrides)
    return CarrierConfig(**base)


def pcc(**overrides) -> CarrierConfig:
    base = dict(kind="pcc", frequency_ghz=4.9, tx_power_dbm=28.0, rho=2.0,
                sigma2=0.0004, n_th=2.0)
    base.update(overrides)
    return CarrierConfig(**base)


def test_zero_variance_is_exactly_one():
    rng = make_rng(1, "f")
    assert np.all(sample_fading(scc(sigma2=0.0), rng, size=100) == 1.0)


@pytest.mark.parametrize("family", ["gamma", "lognormal"])
@pytest.mark.parametrize("sigma2,mean_lo,mean_hi,var_lo,var_hi", [
    (0.0004, 0.995, 1.005, 0.00036, 0.00044),
    (0.27, 0.99, 1.01, 0.25, 0.29),
])
def test_fading_moments(family, sigma2, mean_lo, mean_hi, var_lo, var_hi):
    rng = make_rng(42, f"moments/{family}/{sigma2}")
    x = sample_fading(scc(sigma2=sigma2, fading_family=family), rng, size=10**5)
    assert mean_lo <= x.mean() <= mean_hi
    assert var_lo <= x.var() <= var_hi
    assert np.all(x > 0)


def fixed(cfg_fn, loss_db=0.0, **overrides) -> CarrierConfig:
    """A carrier whose path loss is ``loss_db`` at every distance."""
    return cfg_fn(pl_model="fixed", pl_fixed_db=loss_db, **overrides)


def test_path_loss_fixed_identity():
    assert sinr_reference(fixed(scc, tx_power_dbm=35.0), 5.0, 1.0) == 35.0


def test_path_loss_monotone_in_distance_and_frequency():
    assert sinr_reference(scc(), 200.0, 1.0) < sinr_reference(scc(), 100.0, 1.0)
    assert sinr_reference(scc(), 100.0, 1.0) < sinr_reference(pcc(tx_power_dbm=35.0), 100.0, 1.0)


def test_path_loss_regression_constants():
    # hand evaluation of 32.4 + 30*log10(d) + 20*log10(f), as the SINR at 0 dBm
    assert -sinr_reference(pcc(tx_power_dbm=0.0), 100.0, 1.0) == pytest.approx(
        106.20392160057027, abs=1e-9)
    assert -sinr_reference(scc(tx_power_dbm=0.0), 100.0, 1.0) == pytest.approx(
        121.34316062684437, abs=1e-9)


def test_path_loss_rejects_close_range():
    with pytest.raises(ValueError, match="below 1 m"):
        capacity_series(scc(), np.array([100.0, 0.5]), np.ones(2), rho_s=1.0)


def test_sinr_examples():
    # linear losses 1, 10 and 1000 (0, 10 and 30 dB)
    assert sinr_reference(fixed(pcc, 0.0, tx_power_dbm=28.0), 100.0, 1.0) == pytest.approx(28.0)
    assert sinr_reference(fixed(scc, 10.0, tx_power_dbm=35.0), 100.0, 1.0) == pytest.approx(25.0)
    # 28 - 10*log10(2000)
    assert sinr_reference(fixed(pcc, 30.0, tx_power_dbm=28.0), 100.0, 2.0) == pytest.approx(
        -5.0103, abs=1e-4)


def test_mac_capacity_threshold_boundary():
    # linear SINR of exactly 3: log2(4) = 2 >= 2; of exactly 2: log2(3) < 2
    for linear, expected in ((3.0, 1), (2.0, 0)):
        cfg = fixed(scc, tx_power_dbm=10.0 * math.log10(linear))
        assert capacity_series(cfg, np.ones(1), np.ones(1), rho_s=1.0).tolist() == [expected]


def test_mac_capacity_pcc_ratio():
    for rho, expected in ((2.0, 2), (3.0, 3)):
        cfg = fixed(pcc, rho=rho, tx_power_dbm=30.0)
        assert capacity_series(cfg, np.ones(1), np.ones(1), rho_s=1.0).tolist() == [expected]


def test_mac_capacity_step_function():
    gammas = np.linspace(-10, 20, 301)  # SINR in dB, swept through the fading
    caps = capacity_series(fixed(scc, tx_power_dbm=0.0), np.ones(301), 10.0 ** (-gammas / 10.0),
                           rho_s=1.0).tolist()
    assert set(caps) == {0, 1}
    assert caps == sorted(caps)  # non-decreasing in SINR


def test_capacity_series_matches_scalar_path():
    cfg = scc(tx_power_dbm=35.0, pl_model="uma-nlos", rx_calibration_db=86.3)
    rng = make_rng(3, "caps")
    alphas = sample_fading(cfg, rng, size=500)
    dist = np.full(500, 100.0)
    vec = capacity_series(cfg, dist, alphas, rho_s=1.0)
    for t in (0, 17, 123, 499):
        assert vec[t] == capacity_reference(cfg, 100.0, alphas[t], rho_s=1.0)


def test_flat_channel_constant_capacity():
    cfg = scc(sigma2=0.0, pl_model="fixed", pl_fixed_db=15.0)
    caps = capacity_series(cfg, np.full(100, 50.0), np.ones(100), rho_s=1.0)
    assert len(set(caps.tolist())) == 1


def test_carrier_validation():
    with pytest.raises(ValueError):
        CarrierConfig(kind="foo")
    with pytest.raises(ValueError):
        CarrierConfig(kind="scc", rho=0.0)
    with pytest.raises(ValueError):
        CarrierConfig(kind="scc", sigma2=-1.0)
    with pytest.raises(ValueError):
        CarrierConfig(kind="scc", fading_family="rice")
