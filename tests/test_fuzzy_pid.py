from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casplit.core import make_rng
from casplit.fuzzy_pid import (
    ACTIVE_BOTH,
    FuzzyConfig,
    FuzzyPidController,
    NoFuzzyController,
    PidGains,
    SplitAction,
    compute_k,
    fuzzify,
    pid_increment,
    schedule_action,
    update_gains,
)

from reference import compute_k_reference, update_gains_reference

P = SplitAction(1, 0)
S = SplitAction(0, 1)


# -- pure operations ----------------------------------------------------------

def test_compute_k_fill_window():
    history = [ACTIVE_BOTH] * 8
    assert compute_k(history, n_scc=2) == 2  # floor(16/8)


def test_compute_k_mixed():
    history = [P] * 2 + [S] * 6
    assert compute_k(history, n_scc=3) == 9  # floor(18/2)


def test_compute_k_zero_denominator_clamped():
    history = [S] * 8
    assert compute_k(history, n_scc=2) == 16  # floor(16 / max(1, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (0, 0), "both"]), min_size=1,
                max_size=80), st.integers(1, 40), st.integers(1, 8))
def test_compute_k_matches_generator_form(actions, maxlen, n_scc):
    """``compute_k`` counts a history of fresh ``SplitAction`` objects, none
    shared, and ``ACTIVE_BOTH`` as the generator expressions count it, in a
    bounded deque as the controller keeps it."""
    history = deque((ACTIVE_BOTH if a == "both" else SplitAction(*a) for a in actions),
                    maxlen=maxlen)
    assert compute_k(history, n_scc) == compute_k_reference(history, n_scc)


def test_pid_increment_examples():
    g = PidGains(0.5, 0.2, 0.1)
    assert pid_increment(g, (6, 4, 2)) == pytest.approx(2.2)
    assert pid_increment(PidGains(3.3, 1.1, 7.7), (0, 0, 0)) == 0.0
    assert pid_increment(g, (6, 4, -2)) == pytest.approx(1.8)


def test_schedule_action_examples():
    assert schedule_action(4, 12, 2, 3.0) == P  # r=4=2*2, i=2<=3
    assert schedule_action(5, 12, 2, 3.0) == S  # no i*2 = 5
    assert schedule_action(9, 12, 2, 3.0) == P  # second branch, 9 = 3*(k+1)


def test_schedule_action_rounds_and_clamps():
    assert schedule_action(4, 12, 2, 2.6) == P  # round(2.6)=3
    assert schedule_action(4, 12, 2, -5.0) == S  # clamp to 0: second segment
    # G above (n-1)//k clamps down without error
    assert schedule_action(2, 12, 2, 99.0) == P


def test_schedule_slot_zero_goes_to_scc():
    for k in (1, 2, 5):
        for g in (0.0, 3.0, 15.0):
            assert schedule_action(0, 16, k, g) == S


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 48), st.integers(1, 16), st.floats(-40, 40))
def test_schedule_impulse_count_property(n, k, g):
    """The first segment holds exactly the clamped impulse count: one pulse
    per k-grid point, and the clamp keeps the segment inside the window."""
    k = min(k, n - 1)
    g_int = min(max(int(round(g)), 0), (n - 1) // k)
    segment_end = g_int * k
    assert segment_end <= n - 1
    pulses = sum(schedule_action(r, n, k, g).a_p for r in range(segment_end + 1))
    assert pulses == min(g_int, segment_end // k)


def test_fuzzify_examples():
    cfg = FuzzyConfig(b_max=10, membership_width=1.0, membership_width_change=1.0)
    d_b, _ = fuzzify(0, 0, cfg)
    assert d_b == 1.0
    d_b, _ = fuzzify(10, 0, cfg)
    assert d_b == 0.0
    _, d_e = fuzzify(10, 0, cfg)  # change of exactly b_max -> M(0.5)
    assert d_e == 0.5


def test_fuzzify_clamps_out_of_range():
    cfg = FuzzyConfig(b_max=10, membership_width=1.0, membership_width_change=1.0)
    d_b, d_e = fuzzify(-50, 50, cfg)
    assert d_b == 0.0 and d_e == 0.0


WIDE = dict(gain_min=-100.0, gain_max=100.0)


def test_update_gains_corner_selects_first_entry():
    cfg = FuzzyConfig(b_max=10, t_p=((0.3, 0.1), (-0.1, -0.3)), **WIDE)
    out = update_gains(PidGains(0, 0, 0), 1.0, 1.0, cfg)
    assert out.kp == pytest.approx(0.3)


def test_update_gains_opposite_corner():
    cfg = FuzzyConfig(b_max=10, t_p=((0.3, 0.1), (-0.1, -0.3)), **WIDE)
    out = update_gains(PidGains(0, 0, 0), 0.0, 0.0, cfg)
    assert out.kp == pytest.approx(-0.3)


def test_update_gains_uniform_half_memberships():
    ones = ((1.0, 1.0), (1.0, 1.0))
    cfg = FuzzyConfig(b_max=10, t_p=ones, t_i=ones, t_d=ones, **WIDE)
    out = update_gains(PidGains(0, 0, 0), 0.5, 0.5, cfg)
    assert out.kp == pytest.approx(0.25)


def test_update_gains_clamped():
    cfg = FuzzyConfig(b_max=10, t_p=((9.0, 9.0), (9.0, 9.0)), gain_min=0.0, gain_max=5.0)
    out = update_gains(PidGains(4.9, 0.1, 0.1), 1.0, 1.0, cfg)
    assert out.kp == 5.0


TABLES = st.tuples(*[st.tuples(*[st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))] * 2)] * 3)


@settings(max_examples=150, deadline=None)
@given(TABLES, st.floats(-1.0, 1.0), st.floats(0.0, 2.0), st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       st.integers(0, 2**32 - 1))
def test_update_gains_matches_table_sum_bit_for_bit(tables, gain_min, width, gains, seed):
    """Over 200 chained updates from random gains, tables and gain ranges,
    with memberships at 0, at 1 and between (a third of each, drawn from
    ``seed``), the straight-line update gives the table sum's gains bit for
    bit, signed zeros included."""
    cfg = FuzzyConfig(t_p=tables[0], t_i=tables[1], t_d=tables[2], gain_min=gain_min,
                      gain_max=gain_min + width)
    rng = np.random.default_rng(seed)
    memberships = np.where(rng.integers(0, 3, (200, 2)) == 2, rng.random((200, 2)),
                           rng.integers(0, 2, (200, 2))).tolist()
    got = want = PidGains(*gains)
    for d_b, d_e in memberships:
        got = update_gains(got, d_b, d_e, cfg)
        want = update_gains_reference(want, d_b, d_e, cfg)
        assert [x.hex() for x in (got.kp, got.ki, got.kd)] == \
            [x.hex() for x in (want.kp, want.ki, want.kd)], (d_b, d_e)


def test_update_gains_keeps_the_sign_of_a_zero_sum():
    """Tables of -0.0 give four -0.0 terms, which sum to +0.0 from the
    integer start, as ``sum`` adds them, so a gain of -0.0 becomes +0.0
    inside the clamp range."""
    zeros = ((-0.0, -0.0), (-0.0, -0.0))
    cfg = FuzzyConfig(t_p=zeros, t_i=zeros, t_d=zeros, gain_min=-1.0, gain_max=1.0)
    for d_b, d_e in ((0.0, 0.0), (1.0, 1.0), (0.5, 0.25)):
        got = update_gains(PidGains(-0.0, -0.0, -0.0), d_b, d_e, cfg)
        want = update_gains_reference(PidGains(-0.0, -0.0, -0.0), d_b, d_e, cfg)
        assert [x.hex() for x in (got.kp, got.ki, got.kd)] == ["0x0.0p+0"] * 3
        assert [x.hex() for x in (want.kp, want.ki, want.kd)] == ["0x0.0p+0"] * 3


def test_update_gains_rejects_bad_membership():
    with pytest.raises(ValueError):
        update_gains(PidGains(0, 0, 0), 1.5, 0.0, FuzzyConfig())


# -- controller ---------------------------------------------------------------

def fresh(n=8, n_scc=2, **cfg_overrides):
    cfg = FuzzyConfig(b_max=96, **cfg_overrides)
    return FuzzyPidController(n=n, n_scc=n_scc, cfg=cfg)


def test_stage_one_both_active():
    c = fresh(n=8)
    assert c.decide(3, 55) == ACTIVE_BOTH
    assert c.mode == "init"


def test_stage_one_regardless_of_buffer():
    c = fresh(n=8)
    for t, b in enumerate([0, 5, -40, 90, -90, 3, 0, 7, 1]):
        assert c.decide(t, b) == ACTIVE_BOTH


def test_static_mode_repeats_previous_action():
    c = fresh(n=8)
    for t in range(9):
        c.decide(t, 0)
    c.decide(9, -1)  # bootstrap replan
    c.history.append(P)
    c._b_prev, c._b_prev2 = 2, 1
    action = c.decide(10, 4)  # product 8 > 0, |4| below escape band
    assert action == P
    assert c.mode == "static"


def test_sign_change_triggers_dynamic_replan():
    c = fresh(n=8)
    for t in range(9):
        c.decide(t, 0)
    c._b_prev, c._b_prev2 = 3, 3
    action = c.decide(11, -1)
    assert c.mode == "dynamic"
    expected = schedule_action(11, 8, c.k, -c.g)
    assert action == expected


def test_complementarity_after_stage_one():
    c = fresh(n=8)
    rng = make_rng(17, "fuzzy-walk")
    for t in range(400):
        b = int(rng.integers(-60, 8))
        action = c.decide(t, b)
        if t > 8:
            assert action.a_s == 1 - action.a_p


def test_gain_update_cadence_only_window_boundaries():
    cfg = FuzzyConfig(b_max=96)
    c = FuzzyPidController(n=8, n_scc=2, cfg=cfg)
    rng = make_rng(3, "cadence")
    gains = c.gains
    for t in range(600):
        c.decide(t, int(rng.integers(-50, 6)))
        if c.gains != gains:
            assert t % 8 == 0, f"gain change off-cadence at t={t}"
            gains = c.gains


def test_nofuzzy_gains_frozen_and_stage_one_identical():
    cfg = FuzzyConfig(b_max=96)
    a = FuzzyPidController(n=8, n_scc=2, cfg=cfg)
    b = NoFuzzyController(n=8, n_scc=2, cfg=cfg)
    start = b.gains
    rng = make_rng(4, "frozen")
    for t in range(300):
        x = int(rng.integers(-60, 6))
        act_a, act_b = a.decide(t, x), b.decide(t, x)
        if t <= 8:
            assert act_a == act_b == ACTIVE_BOTH
    assert b.gains == start


def test_flat_channel_windowed_ratio_converges():
    """On a dead-flat zero-buffer channel the action ratio settles within
    two windows of the fill stage and stays there."""
    from casplit.experiments import flat_scenario
    from casplit.scenario import RunMode, build_run

    for n_scc in (2, 3):
        cfg = flat_scenario(n_scc, n=16)
        result = build_run(cfg, RunMode.CA).run()
        ratios = result.windowed_action_ratio(16)
        steady = ratios[-1]
        assert steady != float("inf")
        for w, ratio in enumerate(ratios):
            if w * 16 >= 16 + 2 * 16:
                assert abs(ratio - steady) <= 0.1 * abs(steady)
