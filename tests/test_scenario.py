import configparser
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from casplit import scenario as sc
from casplit.channel import CarrierConfig
from casplit.fuzzy_pid import FuzzyConfig
from casplit.scenario import (
    ConfigError,
    RunMode,
    ScenarioConfig,
    Trajectory,
    build_caps,
    build_run,
    default_mobile_scenario,
    default_static_scenario,
)

from reference import distance_reference


def test_static_trajectory_constant():
    """At speed 0 the UE is parked: every distance is ``d0_m``, bit for bit."""
    for d0 in (1.0, 70.0, 100.0, 123.456):
        d = Trajectory(d0_m=d0).distances(100_000, 1e-3)
        assert d.dtype == np.float64 and d.shape == (100_000,)
        assert (d == d0).all()


def test_out_and_back_distances():
    traj = Trajectory(d0_m=100.0, speed_mps=10.0, turn_time_s=10.0)
    d = traj.distances(25_001, 1e-3)
    assert d[5_000] == pytest.approx(150.0)
    assert d[10_000] == pytest.approx(200.0)
    assert d[20_000] == pytest.approx(100.0)
    assert d[25_000] == pytest.approx(100.0)


def test_trajectory_continuity():
    traj = Trajectory(d0_m=70.0, speed_mps=10.0, turn_time_s=10.0)
    d = traj.distances(25_000, 1e-3)
    assert np.max(np.abs(np.diff(d))) <= 10.0 * 1e-3 + 1e-9


def test_vectorized_trajectory_matches_scalar():
    for traj in (Trajectory(d0_m=70.0, speed_mps=10.0), Trajectory(d0_m=100.0)):
        d = traj.distances(21_000, 1e-3)
        for t in (0, 9_999, 10_000, 15_000, 20_000, 20_999):
            assert d[t] == pytest.approx(distance_reference(traj, t, 1e-3))


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
    for key in ("speed_mps", "turn_time_s"):
        traj = Trajectory(**{key: -1.0})
        with pytest.raises(ConfigError, match=f"trajectory.{key}"):
            default_mobile_scenario(1).copy(trajectory=traj)
    with pytest.raises(ConfigError, match="trajectory.d0_m must be >= 1"):
        default_static_scenario(1).copy(trajectory=Trajectory(d0_m=0.5))
    for changes, key in (({"max_slots": 2.5}, "run.max_slots"), ({"l": True}, "workload.l"),
                         ({"n": 16.0}, "controller.n"), ({"name": 3}, "run.name"),
                         ({"trajectory": Trajectory("100")}, "trajectory.d0_m")):
        with pytest.raises(ConfigError, match=rf"{key}: expected"):
            default_static_scenario(1).copy(**changes)
    bad = default_static_scenario(1)
    bad.carriers[0].rho = "2.0"
    with pytest.raises(ConfigError, match=r"carriers\.pcc\.rho: expected"):
        bad.validate()


@pytest.mark.parametrize("preset", [default_static_scenario, default_mobile_scenario])
def test_copy_owns_its_mutable_parts(preset):
    """A copy gets its own trajectory, carriers and policy parameters:
    changing them in place leaves the original as it was."""
    a = preset(2)
    before = repr(a)
    b = a.copy(seed=2)
    assert b.trajectory == a.trajectory and b.trajectory is not a.trajectory
    b.trajectory.speed_mps = 20.0
    b.trajectory.d0_m = 85.0
    b.carriers[1].rho = 3.0
    b.policy_params["kp"] = 0.9
    assert repr(a) == before
    traj = Trajectory(d0_m=90.0, speed_mps=5.0)
    assert a.copy(trajectory=traj).trajectory is traj


@pytest.mark.parametrize("traj", ["far", 100.0, None, {"d0_m": 100.0}],
                         ids=["str", "float", "None", "dict"])
def test_validate_refuses_a_trajectory_of_another_kind(traj):
    """Only a ``Trajectory`` passes; anything else is refused naming
    ``trajectory`` before a run could fail on it in ``build_caps``."""
    with pytest.raises(ConfigError, match=r"^trajectory: expected a Trajectory"):
        default_static_scenario(1).copy(trajectory=traj)


@pytest.mark.parametrize("key", [k for k, kind in sc._KINDS[CarrierConfig].items()
                                 if kind is float])
def test_carrier_checks_kinds_before_values(key):
    """A numeric carrier field given a string is refused by the carrier
    itself with the error ``ScenarioConfig.validate`` gives for it, not a
    ``TypeError`` from comparing it."""
    cfg = default_static_scenario(1)
    with pytest.raises(ConfigError) as direct:
        dataclasses.replace(cfg.carriers[0], **{key: "2"})
    setattr(cfg.carriers[0], key, "2")
    with pytest.raises(ConfigError) as validated:
        cfg.validate()
    assert type(direct.value) is type(validated.value)
    assert str(direct.value) == str(validated.value) == (
        f"carriers.pcc.{key}: expected a finite number, got '2'")


def test_to_file_writes_every_field(tmp_path):
    """Every scalar field of the config, of its carriers and of its
    trajectory is a key of the written file, so none can be left out of it."""
    def names(cls, *skip):
        return {f.name for f in dataclasses.fields(cls)} - set(skip)
    for cfg in (default_static_scenario(2), default_mobile_scenario(2)):
        path = tmp_path / "scenario.ini"
        sc.to_file(cfg, path)
        parser = configparser.ConfigParser()
        parser.read(path)
        scalars = {k for s in ("workload", "channel", "controller", "run") for k in parser[s]}
        assert names(ScenarioConfig, "policy_params", "carriers", "trajectory") <= scalars
        assert names(Trajectory) == set(parser["trajectory"])
        for carrier in cfg.carriers:
            assert names(CarrierConfig, "name") <= set(parser[f"carriers.{carrier.name}"])


_DECLARED_VALUES = {
    int: st.integers(1, 200),
    float: st.floats(0.0, 1.0, exclude_min=True),
    sc.TABLE: st.tuples(*[st.floats(-1.0, 1.0)] * 4),
}


@st.composite
def declared_params(draw):
    """A policy and a subset of the ``[controller]`` keys it declares."""
    policy = draw(st.sampled_from(sc.POLICIES))
    takes = sc.POLICY_PARAMS[policy]
    keys = draw(st.lists(st.sampled_from(sorted(takes)), unique=True)) if takes else []
    params = {key: draw(_DECLARED_VALUES[takes[key]]) for key in keys}
    # The fuzzy policies refuse a gain range whose bounds are inverted.
    assume(params.get("gain_min", FuzzyConfig.gain_min)
           <= params.get("gain_max", FuzzyConfig.gain_max))
    return policy, params


@settings(max_examples=40, deadline=None)
@example(("fuzzy_pid", {"ki": 0.02}))  # finishes in 804 slots, not 788
@given(declared_params())
def test_config_round_trip_identical_run(tmp_path_factory, drawn):
    policy, params = drawn
    cfg = default_static_scenario(2).copy(l=200, max_slots=2_000, seed=7,
                                          policy=policy, policy_params=params)
    path = tmp_path_factory.mktemp("round-trip") / "scenario.ini"
    sc.to_file(cfg, path)
    loaded = sc.from_file(path)
    assert loaded == cfg
    r1 = build_run(cfg, RunMode.CA).run()
    r2 = build_run(loaded, RunMode.CA).run()
    assert np.array_equal(r1.delivered, r2.delivered)
    assert np.array_equal(r1.b, r2.b)


def test_config_round_trip_mobile(tmp_path):
    cfg = default_mobile_scenario(3)
    path = tmp_path / "mobile.ini"
    sc.to_file(cfg, path)
    loaded = sc.from_file(path)
    assert loaded.trajectory == cfg.trajectory == Trajectory(d0_m=70.0, speed_mps=10.0)
    assert loaded.n == 32
    assert loaded.policy_params["t_i"] == (-0.02, -0.08, 0.1, 0.05)


@pytest.mark.parametrize("preset, d0_m, speed_mps", [
    (default_static_scenario, "100.0", "0.0"), (default_mobile_scenario, "70.0", "10.0")])
def test_config_round_trip_presets(tmp_path, preset, d0_m, speed_mps):
    """The static preset parks the UE at 100 m and the mobile one walks it
    out from 70 m at 10 m/s and back.  Both write ``[trajectory]`` as
    ``d0_m``, ``speed_mps`` and ``turn_time_s`` and load back to the same
    config and capacities."""
    cfg = preset(2).copy(max_slots=3000)
    path = tmp_path / "preset.ini"
    sc.to_file(cfg, path)
    parser = configparser.ConfigParser()
    parser.read(path)
    assert dict(parser["trajectory"]) == {"d0_m": d0_m, "speed_mps": speed_mps,
                                          "turn_time_s": "10.0"}
    assert set(parser["channel"]) == {"d_xn"}
    loaded = sc.from_file(path)
    assert loaded == cfg
    assert np.array_equal(build_caps(loaded, seed=4), build_caps(cfg, seed=4))


def test_missing_section_is_config_error(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[workload]\nl = 10\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="channel"):
        sc.from_file(path)


def test_old_metadata_section_is_ignored(tmp_path):
    """``to_file`` writes no ``[metadata]`` section, and a file from before
    that still has one loads to the same config as the file without it."""
    cfg = default_static_scenario(1)
    path = tmp_path / "scenario.ini"
    sc.to_file(cfg, path)
    text = path.read_text(encoding="utf-8")
    assert "[metadata]" not in text
    old = tmp_path / "old.ini"
    old.write_text(text + "[metadata]\ntcp_congestion_control = NewReno\n"
                   "xn_link_data_rate = 1Gbps\n", encoding="utf-8")
    assert sc.from_file(old) == sc.from_file(path) == cfg


def test_config_round_trip_orders_sccs_numerically(tmp_path):
    cfg = default_static_scenario(11).copy(max_slots=200)
    path = tmp_path / "wide.ini"
    sc.to_file(cfg, path)
    loaded = sc.from_file(path)
    assert [c.name for c in loaded.sccs] == [f"scc{i}" for i in range(1, 12)]
    assert loaded == cfg
    assert np.array_equal(build_caps(loaded, seed=3), build_caps(cfg, seed=3))


@pytest.mark.parametrize("policy, params, key", [
    ("fuzzy_pid", {"escape_divisor": 16}, "controller.escape_divisor"),
    ("ltr", {"t_i": (-0.02, -0.08, 0.1, 0.05)}, "controller.t_i"),
    ("fuzzy_pid", {"t_p": ((-0.1, -0.5), (0.3, 0.2))}, "controller.t_p"),
    ("stationary_k", {"k": True}, "controller.k"),
    ("qlearning", {"epsilon": 2.0}, "controller.epsilon"),
    ("fuzzy_pid", {"kp": float("nan")}, "controller.kp"),
    ("fuzzy_pid", {"t_p": (0.1, float("inf"), 0.3, 0.2)}, "controller.t_p"),
    ("qlearning", {"discount": 5.0}, "controller.discount"),
    ("qlearning", {"discount": 1.0}, "controller.discount"),
    ("qlearning", {"learn_rate": -2.0}, "controller.learn_rate"),
    ("qlearning", {"learn_rate": 1.5}, "controller.learn_rate"),
])
def test_validate_names_rejected_controller_key(policy, params, key):
    with pytest.raises(ConfigError, match=key):
        default_static_scenario(1).copy(policy=policy, policy_params=params)


def test_make_controller_hands_each_policy_its_declared_keys():
    cfg = default_mobile_scenario(3).copy(policy_params={
        "b_max": 40, "t_i": (-0.02, -0.08, 0.1, 0.05), "kp": 0.3})
    fuzzy = sc.make_controller(cfg)
    assert fuzzy.cfg.b_max == 40 and fuzzy.gains.kp == 0.3
    assert fuzzy.cfg.t_i == ((-0.02, -0.08), (0.1, 0.05))
    assert sc.make_controller(cfg, policy="qlearning").table.b_max == 40
    ltr = sc.make_controller(cfg, policy="ltr")
    assert (ltr.eps_rate, ltr.smoothing) == (0.05, 0.05)
    assert sc.make_controller(default_static_scenario(1)).cfg.b_max == \
        default_static_scenario(1).default_b_max()
