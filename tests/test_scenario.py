import numpy as np
import pytest

from casplit import scenario as sc
from casplit.scenario import (
    ConfigError,
    OutAndBackTrajectory,
    RunMode,
    ScenarioConfig,
    StaticTrajectory,
    build_caps,
    build_run,
    default_mobile_scenario,
    default_static_scenario,
)


def test_static_trajectory_constant():
    traj = StaticTrajectory(100.0)
    for t in (0, 500, 99_999):
        assert traj.distance(t, 1e-3) == 100.0


def test_out_and_back_distances():
    traj = OutAndBackTrajectory(d0_m=100.0, speed_mps=10.0, turn_time_s=10.0)
    assert traj.distance(5_000, 1e-3) == pytest.approx(150.0)
    assert traj.distance(10_000, 1e-3) == pytest.approx(200.0)
    assert traj.distance(20_000, 1e-3) == pytest.approx(100.0)
    assert traj.distance(25_000, 1e-3) == pytest.approx(100.0)


def test_trajectory_continuity():
    traj = OutAndBackTrajectory(d0_m=70.0, speed_mps=10.0, turn_time_s=10.0)
    d = traj.distances(25_000, 1e-3)
    assert np.max(np.abs(np.diff(d))) <= 10.0 * 1e-3 + 1e-9


def test_vectorized_trajectory_matches_scalar():
    traj = OutAndBackTrajectory(d0_m=70.0)
    d = traj.distances(21_000, 1e-3)
    for t in (0, 9_999, 10_000, 15_000, 20_000, 20_999):
        assert d[t] == pytest.approx(traj.distance(t, 1e-3))


def test_forced_modes_emit_fixed_actions():
    cfg = default_static_scenario(2).copy(l=50, max_slots=300)
    for mode, expected in ((RunMode.PCC_ONLY, (1, 0)), (RunMode.SCC_ONLY, (0, 1))):
        result = build_run(cfg, mode, seed=5, max_slots=200).run()
        assert set(result.a_p.tolist()) == {expected[0]}
        assert set(result.a_s.tolist()) == {expected[1]}


def test_bwa_ca_equal_bandwidth_alternates():
    cfg = default_static_scenario(1).copy(policy="bwa", l=40, max_slots=400)
    result = build_run(cfg, RunMode.CA, seed=2).run()
    a = result.a_p[:20].tolist()
    assert a == [0, 1] * 10


def test_common_random_numbers_across_modes():
    cfg = default_static_scenario(3).copy(l=100, max_slots=500)
    caps_a = build_caps(cfg, seed=9)
    caps_b = build_caps(cfg, seed=9)
    assert np.array_equal(caps_a, caps_b)


def test_validation_messages_name_fields():
    with pytest.raises(ConfigError, match="n_scc"):
        default_static_scenario(3).copy(n_scc=0)
    with pytest.raises(ConfigError, match="policy"):
        default_static_scenario(3).copy(policy="nope")
    cfg = default_static_scenario(2)
    with pytest.raises(ConfigError, match="scc"):
        cfg.copy(n_scc=3)  # carrier sections no longer match
    with pytest.raises(ConfigError, match="rho"):
        bad = default_static_scenario(1)
        bad.carriers[0].rho = 0.5  # below the SCC rho
        bad.validate()


def test_config_round_trip_identical_run(tmp_path):
    cfg = default_static_scenario(2).copy(l=200, max_slots=2_000, seed=7,
                                          policy_params={"b_target": -6.0})
    path = tmp_path / "scenario.ini"
    sc.to_file(cfg, path)
    loaded = sc.from_file(path)
    assert loaded.l == cfg.l
    assert loaded.policy_params["b_target"] == -6.0
    assert [c.name for c in loaded.carriers] == [c.name for c in cfg.carriers]
    r1 = build_run(cfg, RunMode.CA).run()
    r2 = build_run(loaded, RunMode.CA).run()
    assert np.array_equal(r1.delivered, r2.delivered)
    assert np.array_equal(r1.b, r2.b)


def test_config_round_trip_mobile(tmp_path):
    cfg = default_mobile_scenario(3)
    path = tmp_path / "mobile.ini"
    sc.to_file(cfg, path)
    loaded = sc.from_file(path)
    assert isinstance(loaded.trajectory, OutAndBackTrajectory)
    assert loaded.trajectory.d0_m == cfg.trajectory.d0_m
    assert loaded.n == 32
    assert loaded.policy_params["t_i"] == (-0.02, -0.08, 0.1, 0.05)


def test_missing_section_is_config_error(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[workload]\nl = 10\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="channel"):
        sc.from_file(path)


def test_metadata_rows_survive_round_trip(tmp_path):
    cfg = default_static_scenario(1)
    path = tmp_path / "meta.ini"
    sc.to_file(cfg, path)
    loaded = sc.from_file(path)
    assert loaded.metadata["tcp_congestion_control"] == "NewReno"
    assert loaded.metadata["xn_link_data_rate"] == "1Gbps"
