from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casplit import baselines
from casplit.baselines import (
    BwaController,
    ForcedController,
    LtrController,
    QLearningController,
    QTable,
    StationaryKController,
)
from casplit.core import make_rng
from casplit.engine import Simulation
from casplit.fuzzy_pid import SplitAction
from casplit.stack import CountStack

P = SplitAction(1, 0)
S = SplitAction(0, 1)


def test_bwa_equal_split_alternates():
    c = BwaController(100.0, [100.0])
    actions = [c.decide(t, 0).a_p for t in range(8)]
    assert actions == [0, 1, 0, 1, 0, 1, 0, 1]
    assert sum(actions) == 4


def test_bwa_quarter_share():
    c = BwaController(100.0, [100.0, 100.0, 100.0])
    share = sum(c.decide(t, 0).a_p for t in range(1000)) / 1000
    assert share == pytest.approx(0.25, abs=1e-3)


def test_bwa_zero_pcc_bandwidth():
    c = BwaController(0.0, [100.0])
    assert all(c.decide(t, 0) == S for t in range(50))


def test_bwa_window_deviation_below_one_slot():
    c = BwaController(70.0, [100.0, 30.0])
    share = 70.0 / 200.0
    acts = [c.decide(t, 0).a_p for t in range(500)]
    for start in range(0, 400, 7):
        for width in (16, 33):
            count = sum(acts[start:start + width])
            assert abs(count - width * share) < 1.0


@pytest.mark.parametrize("pcc_bw, scc_bws", [
    (0.0, [100.0]), (100.0, [100.0]), (100.0, [100.0] * 3), (70.0, [130.0]),
    (70.0, [100.0, 30.0]),
])
def test_bwa_schedule_equals_decide(pcc_bw, scc_bws):
    c = BwaController(pcc_bw, scc_bws)
    n = 60_000
    a_p, a_s = c.schedule(n)
    want = [c.decide(t, 0) for t in range(n)]
    assert a_p.dtype == a_s.dtype == np.int8
    assert a_p.tolist() == [a.a_p for a in want]
    assert a_s.tolist() == [a.a_s for a in want]


def test_bwa_complementary():
    c = BwaController(100.0, [100.0, 100.0])
    assert all(a.a_s == 1 - a.a_p for a in (c.decide(t, 0) for t in range(64)))


def test_ltr_prefers_lowest_delay():
    c = LtrController(n_scc=2, d_xn=2, smoothing=0.0)  # rates stay 1.0
    c.observe(0, [0, 0, 0], -7, CountStack(2, 2, preseed_rlc=[3, 5, 5]))
    assert c.rates == [1.0, 1.0, 1.0]
    assert c.decide(1, 0) == P  # 3 < 5+2


def test_ltr_tie_goes_to_pcc():
    c = LtrController(n_scc=1, d_xn=0, smoothing=0.0)
    assert c.decide(0, 0) == P  # no feedback yet: every queue empty
    c.observe(0, [0, 0], 0, CountStack(1, 0, preseed_rlc=[2, 2]))
    assert c.decide(1, 0) == P


def test_ltr_pcc_outage_pushes_to_scc():
    c = LtrController(n_scc=1, d_xn=0, eps_rate=0.05, smoothing=1.0)
    c.observe(0, [0, 1], 3, CountStack(1, 0, preseed_rlc=[4, 1]))
    assert c.rates == [0.0, 1.0]  # PCC service collapsed
    assert c.decide(1, 0) == S


def test_ltr_counts_xn_inflight_packets():
    """SCC packets still on the Xn link count toward the SCC's backlog."""
    stack = CountStack(1, 3, preseed_rlc=[2, 0])
    stack.pdcp_ingest(3)
    for t in range(3):
        stack.pdcp_dispatch(0, 1, t)
    assert stack.xn_inflight() == [3]
    c = LtrController(n_scc=1, d_xn=0, smoothing=0.0)
    c.observe(0, [0, 0], stack.buffer_difference(), stack)
    assert c.decide(1, 0) == P  # 2 < 0 + 3


def test_ltr_rate_tracking():
    c = LtrController(n_scc=1, d_xn=0, smoothing=0.5)
    stack = CountStack(1, 0)
    c.observe(0, [2, 0], 0, stack)
    c.observe(1, [2, 0], 0, stack)
    assert c.rates[0] > 1.0 and c.rates[1] < 1.0


def test_qtable_update_arithmetic():
    """``decide`` in state 3 plays action 0 (the zero table's tie), and
    ``observe`` of a slot that delivered one packet, next state 4, sets
    Q[3, 0] to the reward."""
    table = QTable(epsilon=0.0, learn_rate=1.0, discount=0.0)
    c = QLearningController(table, make_rng(0, "q"))
    assert (table.bucket(-60), table.bucket(-48)) == (3, 4)
    assert c.decide(0, -60) == P
    stack = CountStack(1, 0)
    stack.received = 1
    c.observe(0, [1, 0], -48, stack)
    assert table.values[3, 0] == 1.0


def test_qlearning_zero_table_tie_break_is_pcc():
    table = QTable(epsilon=0.0)
    c = QLearningController(table, make_rng(0, "q"))
    assert c.decide(0, 0) == P


def test_qlearning_decide_takes_the_observed_state_once():
    """After ``observe``, the next ``decide`` takes the state bucketed from
    the ``b`` that ``observe`` got; a ``decide`` with no ``observe`` before
    it buckets its own ``b``."""
    table = QTable(n_bins=2, b_max=1, epsilon=0.0, learn_rate=0.1, discount=0.9)
    table.values[1, 1] = 1.0  # state 1 prefers the SCC group
    c = QLearningController(table, make_rng(0, "q"))
    assert c.decide(0, -1) == P  # state 0, an all-zero row: ties go to the PCC
    c.observe(0, [0, 0], 1, CountStack(1, 0, preseed_rlc=[1, 0]))  # b = 1: state 1
    assert table.values[0, 0] > 0  # the update read state 1's best value
    assert c.decide(1, -1) == S  # the observed state 1, not the bucket of -1
    assert c.decide(2, -1) == P  # no observe since: state 0 from b


def test_qlearning_values_bounded():
    table = QTable(epsilon=0.2, learn_rate=0.5, discount=0.9)
    c = QLearningController(table, make_rng(1, "q"))
    rng = make_rng(2, "env")
    stack = CountStack(2, 0)
    r_max = 5.0
    for t in range(5000):
        c.decide(t, int(rng.integers(-96, 97)))
        delivered = [int(rng.integers(0, 3)), int(rng.integers(0, 2)),
                     int(rng.integers(0, 2))]
        stack.rlc[:] = [int(rng.integers(0, 9)) for _ in range(3)]
        stack.received = sum(delivered)  # the reward, as ``step`` leaves it
        c.observe(t, delivered, stack.buffer_difference(), stack)
    assert np.max(np.abs(table.values)) <= r_max / (1 - table.discount) + 1e-9


def test_qlearning_bucket_clamps():
    table = QTable(n_bins=16, b_max=96)
    assert table.bucket(-10_000) == 0
    assert table.bucket(10_000) == 15
    assert 0 <= table.bucket(0) < 16


@pytest.mark.parametrize("field, value", [
    ("n_bins", 0), ("b_max", 0), ("epsilon", -0.1), ("epsilon", 1.5),
])
def test_qtable_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        QTable(**{field: value})


def test_qtable_owns_zero_values_the_controller_updates():
    """A new table holds the values as writeable C-contiguous float64 zeros
    of shape ``(n_bins, 2)``, the flat native doubles the controller reads
    and writes, and an update by ``observe`` lands in them."""
    table = QTable(n_bins=5, epsilon=0.0, learn_rate=1.0, discount=0.0)
    v = table.values
    assert v.shape == (5, 2) and v.dtype == np.float64 and not v.any()
    assert v.flags.c_contiguous and v.flags.writeable
    with pytest.raises(TypeError):
        QTable(values=np.ones((16, 2)))
    c = QLearningController(table, make_rng(0, "q"))
    s = table.bucket(0)
    assert c.decide(0, 0) == P
    stack = CountStack(1, 0)
    stack.received = 2
    c.observe(0, [2, 0], 0, stack)
    assert table.values is v and v[s, 0] == 2.0 and np.count_nonzero(v) == 1


class _NumpyScalarQLearning(QLearningController):
    """The controller's arithmetic before it read the Q row as Python floats:
    per-slot ``rng.random()`` and ``rng.integers(2)`` draws, ``np.argmax``
    and ``np.max`` on the row, and an in-place element update that
    ``observe`` calls.  It steps every slot: its ``hold`` refuses every
    window, since the inherited one reads buffered words, which this
    ``decide`` never fills."""

    def hold(self, t, action, n, window):
        return 0

    def decide(self, t, b):
        s = self.table.bucket(b)
        if self.table.epsilon > 0 and self.rng.random() < self.table.epsilon:
            a = int(self.rng.integers(2))
        else:
            a = int(np.argmax(self.table.values[s]))
        self._pending = (s, a)
        return P if a == 0 else S

    def observe(self, t, served, b, stack):
        if self._pending is None:
            return
        s, a = self._pending
        self.update(s, a, sum(served), self.table.bucket(b))
        self._pending = None

    def update(self, s, a, reward, s_next):
        q = self.table.values
        target = reward + self.table.discount * float(np.max(q[s_next]))
        q[s, a] += self.table.learn_rate * (target - q[s, a])


@pytest.mark.parametrize("epsilon, learn_rate, discount", [
    (0.0, 0.1, 0.9), (0.1, 0.1, 0.9), (0.3, 0.5, 0.99), (1.0, 0.05, 0.0),
])
def test_qlearning_float_arithmetic_is_bit_identical(epsilon, learn_rate, discount):
    """The Python-float row reads and single element store give the same
    actions and bit-identical final values as the numpy scalar arithmetic."""
    rng = make_rng(3, "q-caps")
    slots, n_scc = 5000, 3
    caps = np.vstack([rng.integers(0, 3, slots)]
                     + [rng.integers(0, 2, slots) * rng.integers(0, 4, slots)
                        for _ in range(n_scc)]).astype(np.int64)
    runs = []
    for cls in (QLearningController, _NumpyScalarQLearning):
        table = QTable(epsilon=epsilon, learn_rate=learn_rate, discount=discount, b_max=32)
        sim = Simulation(l=1, arrival_mode="per_slot", arrival_rate=n_scc + 2, n_scc=n_scc,
                         d_xn=1, caps=caps, controller=cls(table, make_rng(4, "q")),
                         max_slots=slots, stop_on_complete=False)
        runs.append((sim.run(), table.values))
    (new, new_q), (old, old_q) = runs
    assert np.array_equal(new.a_p, old.a_p) and np.array_equal(new.b, old.b)
    assert new_q.dtype == old_q.dtype and new_q.tobytes() == old_q.tobytes()
    assert np.count_nonzero(new_q) > 0


def _q_rng(buffered):
    """A fresh qlearning generator, or one whose last draw left a 32-bit
    half buffered for its next ``integers(2)``."""
    rng = make_rng(4, "q")
    if buffered:
        rng.integers(2)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("chunk", [1, 2, 7, 1024])
@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1.0])
def test_qlearning_draws_are_the_per_slot_draws(epsilon, chunk, buffered):
    """The raw words the controller takes ``DRAW_CHUNK`` at a time give the
    actions and Q table of per-slot ``rng.random()`` and ``rng.integers(2)``
    draws across chunk boundaries, a half the generator had buffered used
    first.  Building the controller draws nothing, with ``epsilon`` 0 a run
    leaves the generator as it was, and otherwise the generator stands less
    than one chunk ahead of the per-slot draws."""
    rng = make_rng(3, "q-caps")
    slots, n_scc = 400, 2
    caps = np.vstack([rng.integers(0, 3, slots)]
                     + [rng.integers(0, 4, slots) for _ in range(n_scc)]).astype(np.int64)
    runs = []
    for cls in (QLearningController, _NumpyScalarQLearning):
        table = QTable(epsilon=epsilon, b_max=8)
        gen = _q_rng(buffered)
        before = gen.bit_generator.state
        controller = cls(table, gen)
        assert gen.bit_generator.state == before
        sim = Simulation(l=1, arrival_mode="per_slot", arrival_rate=n_scc + 1, n_scc=n_scc,
                         d_xn=1, caps=caps, controller=controller, max_slots=slots,
                         stop_on_complete=False)
        with mock.patch.object(baselines, "DRAW_CHUNK", chunk):
            runs.append((sim.run(), table.values, gen, before))
    (new, new_q, gen, before), (old, old_q, ref_gen, _) = runs
    assert new.a_p.tolist() == old.a_p.tolist() and np.array_equal(new.b, old.b)
    assert new_q.tobytes() == old_q.tobytes()
    if epsilon == 0:
        assert gen.bit_generator.state == before
        return
    assert 0 < np.count_nonzero(new.a_p) < slots
    ahead = np.random.PCG64()
    ahead.state = ref_gen.bit_generator.state
    for _ in range(chunk):
        if ahead.state["state"] == gen.bit_generator.state["state"]:
            break
        ahead.advance(1)
    else:
        pytest.fail(f"the generator is not within {chunk} words of the per-slot draws")


def test_qlearning_refuses_a_generator_it_cannot_reproduce():
    with pytest.raises(ValueError, match="^rng "):
        QLearningController(QTable(), np.random.Generator(np.random.MT19937(0)))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
def test_qlearning_explores_below_epsilon(epsilon, word):
    """A word explores exactly when ``random()``, its top 53 bits over 2**53,
    falls below epsilon: checked at a random word and at the two words on
    either side of the threshold."""
    below = QLearningController(QTable(epsilon=epsilon), make_rng(0, "q"))._explore_below
    for w in (word, below - 1, below):
        if 0 <= w < 2**64:
            assert (w < below) == ((w >> 11) * 2**-53 < epsilon), (w, below)


def _window_throughput(controller, caps, n_scc, slots):
    sim = Simulation(l=1, arrival_mode="per_slot", arrival_rate=n_scc + 2,
                     n_scc=n_scc, d_xn=0, caps=caps, controller=controller,
                     max_slots=slots, stop_on_complete=False)
    return sim.run().total_delivered


def test_qlearning_greedy_approaches_best_stationary():
    """After training on a deterministic periodic channel, the greedy policy
    is close to the best stationary split found by enumeration."""
    slots = 4000
    scc_caps = np.tile(np.array([1, 0, 0]), slots // 3 + 1)[:slots]
    caps = np.vstack([np.ones(slots, dtype=np.int64), scc_caps.astype(np.int64)])
    best = max(
        _window_throughput(StationaryKController(k), caps, 1, slots)
        for k in range(0, 5)
    )
    table = QTable(epsilon=0.1, learn_rate=0.1, discount=0.9, b_max=32)
    trainer = QLearningController(table, make_rng(11, "q-train"))
    _window_throughput(trainer, caps, 1, slots)
    frozen = QTable(epsilon=0.0, b_max=32)
    frozen.values[:] = table.values
    greedy = QLearningController(frozen, make_rng(12, "q-eval"))
    achieved = _window_throughput(greedy, caps, 1, slots)
    assert achieved >= 0.85 * best


def test_every_baseline_emits_complementary_actions():
    controllers = [
        BwaController(100.0, [100.0, 100.0]),
        LtrController(n_scc=2, d_xn=2),
        QLearningController(QTable(), make_rng(5, "q")),
        StationaryKController(3),
        ForcedController(P),
    ]
    rng = make_rng(6, "walk")
    for c in controllers:
        for t in range(100):
            action = c.decide(t, int(rng.integers(-50, 50)))
            assert action.a_s == 1 - action.a_p
