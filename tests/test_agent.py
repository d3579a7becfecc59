import copy
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sensorq
from sensorq import nn
from sensorq.agent import (
    AgentHyperParams,
    Batch,
    ReplayPool,
    decay_epsilon,
    select_action,
    td_loss,
    train,
)

from oracles import eager_select_action, fd_gradient, naive_bellman, naive_td_loss, replay_pool_rows
from toy_mdp import GAMMA, OPTIMAL, Q_STAR, ToyMdpEnv


def make_transition(obs_dim, rng, done=False):
    return SimpleNamespace(
        s=rng.normal(size=obs_dim), a=int(rng.integers(2)), r=float(rng.normal()),
        s2=rng.normal(size=obs_dim), done=done,
    )


def to_batch(transitions):
    return Batch(
        np.array([t.s for t in transitions]),
        np.array([t.a for t in transitions]),
        np.array([t.r for t in transitions]),
        np.array([t.s2 for t in transitions]),
        np.array([t.done for t in transitions]),
    )


def constant_net(*q_values):
    """A one-layer network of input width 1 whose output is q_values for
    every input."""
    return nn.NetworkParams([(np.zeros((len(q_values), 1)), np.array(q_values, dtype=float))])


def one_transition_loss(q, r, gamma, q_next, done):
    """td_loss of one transition taking action 0 where Q(s, 0) = q and the
    target network gives q_next at s2: (q - y)^2 for the Bellman target y."""
    batch = Batch(np.zeros((1, 1)), np.array([0]), np.array([r]), np.zeros((1, 1)), np.array([done]))
    loss, _ = td_loss(batch, constant_net(q), constant_net(*q_next), gamma)
    return loss


class TestBellmanTarget:
    """The targets td_loss regresses on: r when terminal, else
    r + gamma * max(q_next)."""

    def test_terminal_ignores_next_values(self):
        assert one_transition_loss(0.0, 1.0, 0.9, [100.0, -5.0], True) == 1.0

    def test_zero_discount(self):
        assert one_transition_loss(0.7, 0.7, 0.0, [3.0, 9.0], False) == 0.0

    def test_hand_value(self):
        assert abs(one_transition_loss(0.5, 1.0, 0.9, [2.0, 3.0], False) - (0.5 - 3.7) ** 2) < 1e-12


class TestTdLoss:
    def test_zero_residual_gives_zero_loss_and_gradient(self):
        rng = np.random.default_rng(1)
        online = nn.init_network([4, 8, 3], rng)
        transitions = []
        for _ in range(6):
            t = make_transition(4, rng)
            t.a = int(rng.integers(3))
            t.r = float(nn.forward_batch(online, t.s[None])[0, t.a])  # y == Q exactly at gamma=0...
            t.done = True
            transitions.append(t)
        loss, grads = td_loss(to_batch(transitions), online, online.copy(), 0.9)
        assert loss < 1e-25
        for gw, gb in grads.layers:
            np.testing.assert_allclose(gw, 0.0, atol=1e-12)
            np.testing.assert_allclose(gb, 0.0, atol=1e-12)

    def test_single_transition_hand_loss(self):
        rng = np.random.default_rng(2)
        online = nn.init_network([3, 5, 2], rng)
        target = nn.init_network([3, 5, 2], rng)
        t = make_transition(3, rng)
        t.a = 1
        y = naive_bellman(t.r, 0.9, nn.forward_batch(target, t.s2[None])[0].tolist(), t.done)
        q = nn.forward_batch(online, t.s[None])[0, 1]
        loss, _ = td_loss(to_batch([t]), online, target, 0.9)
        assert abs(loss - (y - q) ** 2) < 1e-12

    def test_duplicated_batch_keeps_loss(self):
        rng = np.random.default_rng(3)
        online = nn.init_network([3, 6, 2], rng)
        target = nn.init_network([3, 6, 2], rng)
        transitions = [make_transition(3, rng) for _ in range(5)]
        loss_a, _ = td_loss(to_batch(transitions), online, target, 0.9)
        loss_b, _ = td_loss(to_batch(transitions * 2), online, target, 0.9)
        assert abs(loss_a - loss_b) < 1e-12

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(4)
        online = nn.init_network([3, 4, 2], rng)
        target = nn.init_network([3, 4, 2], rng)
        transitions = [make_transition(3, rng, done=bool(rng.integers(2))) for _ in range(8)]
        loss, _ = td_loss(to_batch(transitions), online, target, 0.87)
        naive = naive_td_loss(
            [(t.s.tolist(), t.a, t.r, t.s2.tolist(), t.done) for t in transitions],
            [(w.tolist(), b.tolist()) for w, b in online.layers],
            [(w.tolist(), b.tolist()) for w, b in target.layers],
            0.87,
        )
        assert abs(loss - naive) < 1e-12

    def test_targets_act_as_constants(self):
        # same loss and gradient whether theta- comes from the target net
        # or as precomputed constants fed through terminal rewards
        rng = np.random.default_rng(5)
        online = nn.init_network([3, 5, 2], rng)
        target = nn.init_network([3, 5, 2], rng)
        transitions = [make_transition(3, rng) for _ in range(6)]
        batch = to_batch(transitions)
        loss_a, grads_a = td_loss(batch, online, target, 0.9)
        q_next = nn.forward_batch(target, batch.s2)
        y = batch.r + 0.9 * q_next.max(axis=1)
        const_batch = Batch(batch.s, batch.a, y, batch.s2, np.ones(6, dtype=bool))
        other_target = nn.init_network([3, 5, 2], np.random.default_rng(999))
        loss_b, grads_b = td_loss(const_batch, online, other_target, 0.9)
        assert abs(loss_a - loss_b) < 1e-12
        for (aw, ab), (bw, bb) in zip(grads_a.layers, grads_b.layers):
            np.testing.assert_allclose(aw, bw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ab, bb, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        online = nn.init_network([2, 4, 2], rng)
        target = nn.init_network([2, 4, 2], rng)
        transitions = [make_transition(2, rng) for _ in range(4)]
        batch = to_batch(transitions)

        def flatten(params):
            return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params.layers])

        def unflatten(flat):
            layers, i = [], 0
            for w, b in online.layers:
                layers.append(
                    (np.array(flat[i : i + w.size]).reshape(w.shape),
                     np.array(flat[i + w.size : i + w.size + b.size]))
                )
                i += w.size + b.size
            return nn.NetworkParams(layers)

        def scalar(flat):
            loss, _ = td_loss(batch, unflatten(flat), target, 0.9)
            return loss

        _, grads = td_loss(batch, online, target, 0.9)
        numeric = np.array(fd_gradient(scalar, flatten(online).tolist(), h=1e-6))
        analytic = flatten(grads)
        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_empty_batch_rejected(self):
        online = nn.init_network([2, 3, 2], np.random.default_rng(0))
        empty = Batch(np.zeros((0, 2)), np.zeros(0, int), np.zeros(0), np.zeros((0, 2)), np.zeros(0, bool))
        with pytest.raises(ValueError):
            td_loss(empty, online, online.copy(), 0.9)


def decide(q, mask, epsilon, rng):
    """select_action over a fixed Q matrix, returning (actions, how many
    times Q was computed)."""
    calls = []

    def q_fn():
        calls.append(1)
        return q

    return select_action(q_fn, mask, epsilon, q.shape[1], rng), len(calls)


def decide_all(rows, epsilon, rng):
    """select_action with every sensor deciding, for a Q matrix of `rows`."""
    q = np.array(rows, dtype=float)
    return decide(q, np.ones(len(q), dtype=bool), epsilon, rng)[0]


class TestSelectAction:
    def test_greedy_when_epsilon_zero(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for _ in range(100):
            assert decide_all([[0.1, 0.9, 0.3], [0.7, 0.2, 0.1]], 0.0, rng) == [1, 0]
        assert rng.bit_generator.state == state  # eps = 0 draws nothing

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(0)
        assert decide_all([[0.5, 0.5, 0.2], [0.1, 0.4, 0.4]], 0.0, rng) == [0, 1]

    def test_uniform_when_epsilon_one(self):
        rng = np.random.default_rng(7)
        actions = decide_all(np.tile([9.0, 0.0, 0.0, 0.0], (100_000, 1)), 1.0, rng)
        freqs = np.bincount(actions, minlength=4) / len(actions)
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_mixture_probability_closed_form(self):
        rng = np.random.default_rng(8)
        actions = decide_all(np.tile([0.2, 0.8], (100_000, 1)), 0.2, rng)
        assert abs(actions.count(1) / 100_000 - 0.9) < 0.01

    def test_draws_per_deciding_sensor_in_order(self):
        # each deciding sensor, left to right, draws random() and, only when
        # it explores, integers(num_actions); masked sensors draw nothing
        q = np.array([[0.3, 0.1, 0.2], [0.0, 0.5, 0.1], [0.2, 0.2, 0.9], [0.4, 0.0, 0.0]])
        mask = np.array([True, False, True, True])
        for seed in range(20):
            clone = np.random.default_rng(seed)
            expected = []
            for row, decides in zip(q, mask):
                if not decides:
                    expected.append(None)
                elif clone.random() < 0.6:
                    expected.append(int(clone.integers(3)))
                else:
                    expected.append(int(np.argmax(row)))
            rng = np.random.default_rng(seed)
            assert decide(q, mask, 0.6, rng)[0] == expected
            assert rng.bit_generator.state == clone.bit_generator.state

    def test_no_q_when_every_sensor_explores_or_none_decides(self):
        rng = np.random.default_rng(0)
        q = np.zeros((3, 2))
        assert decide(q, np.ones(3, dtype=bool), 1.0, rng)[1] == 0
        assert decide(q, np.zeros(3, dtype=bool), 0.0, rng) == ([None] * 3, 0)
        assert decide(q, np.ones(3, dtype=bool), 0.0, rng) == ([0, 0, 0], 1)

    def test_invalid_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            decide(np.zeros((1, 0)), np.array([True]), 0.0, rng)
        with pytest.raises(ValueError):
            decide(np.array([[1.0]]), np.array([True]), 1.5, rng)
        with pytest.raises(ValueError):  # q() must give one row per sensor
            select_action(lambda: np.array([0.2, 0.8]), np.array([True]), 0.0, 2, rng)
        with pytest.raises(ValueError):
            decide(np.array([[0.2, 0.8]]), np.array([True, True]), 0.0, rng)
        with pytest.raises(ValueError):
            decide(np.array([[0.2, 0.8]]), np.array([[True]]), 0.0, rng)


@st.composite
def selection_cases(draw):
    """(q, mask, epsilon, seed): 1-6 sensors, 1-4 actions, Q values from a
    small grid so rows hold ties, any mask, and eps 0, 1 or in (0, 1)."""
    sensors, actions = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = st.sampled_from([-1.0, 0.0, 0.25, 0.5])
    q = np.array(draw(st.lists(st.lists(values, min_size=actions, max_size=actions),
                               min_size=sensors, max_size=sensors)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=sensors, max_size=sensors)))
    epsilon = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                             st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    return q, mask, epsilon, draw(st.integers(0, 2**32 - 1))


@given(selection_cases())
def test_select_action_matches_eager_oracle(case):
    q, mask, epsilon, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    actions, q_calls = decide(q, mask, epsilon, rng)
    assert actions == eager_select_action(q, mask, epsilon, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # replay the coins: Q is needed exactly when a deciding sensor exploits
    coins = np.random.default_rng(seed)
    exploits = False
    for decides in mask.tolist():
        if decides and epsilon > 0.0 and coins.random() < epsilon:
            coins.integers(q.shape[1])
        elif decides:
            exploits = True
    assert q_calls == int(exploits)


class TestDecayEpsilon:
    def test_floor_is_fixed_point(self):
        assert decay_epsilon(0.05, 0.995, 0.05) == 0.05

    def test_single_multiply(self):
        assert abs(decay_epsilon(1.0, 0.995, 0.05) - 0.995) < 1e-15

    def test_closed_form_after_k_episodes(self):
        eps = 0.8
        for _ in range(50):
            eps = decay_epsilon(eps, 0.97, 0.1)
        assert abs(eps - max(0.1, 0.8 * 0.97**50)) < 1e-12


class TestReplayPool:
    def test_fifo_eviction(self):
        pool = ReplayPool(2, 1)
        rng = np.random.default_rng(0)
        for r in (1.0, 2.0, 3.0):
            pool.push(np.zeros(1), 0, r, np.zeros(1), False)
        assert len(pool) == 2
        assert [r for _, _, r, _, _ in replay_pool_rows(pool)] == [2.0, 3.0]

    def test_sample_returns_requested_count_from_pool(self):
        pool = ReplayPool(16, 2)
        rng = np.random.default_rng(1)
        for r in range(8):
            pool.push(np.full(2, r), r % 2, float(r), np.zeros(2), False)
        batch = pool.sample(5, rng)
        assert len(batch) == 5
        assert all(0 <= r <= 7 for r in batch.r)

    def test_undersized_pool_not_ready(self):
        pool = ReplayPool(8, 1)
        pool.push(np.zeros(1), 0, 0.0, np.zeros(1), False)
        assert pool.sample(2, np.random.default_rng(0)) is None

    def test_sampling_is_uniform(self):
        pool = ReplayPool(4, 1)
        rng = np.random.default_rng(2)
        for r in range(4):
            pool.push(np.zeros(1), 0, float(r), np.zeros(1), False)
        counts = np.zeros(4)
        for _ in range(100_000):
            counts[int(pool.sample(1, rng).r[0])] += 1
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_never_exceeds_capacity_and_keeps_newest(self):
        pool = ReplayPool(5, 1)
        for r in range(12):
            pool.push(np.zeros(1), 0, float(r), np.zeros(1), False)
        assert len(pool) == 5
        assert [r for _, _, r, _, _ in replay_pool_rows(pool)] == [7.0, 8.0, 9.0, 10.0, 11.0]

    def test_sample_reads_only_written_rows(self):
        # the ring starts as np.empty: poison every row not yet pushed, and
        # the sampled rows must still be exactly the pushed ones that a
        # clone of the rng picks, before and after the ring wraps
        pool = ReplayPool(10, 3)
        rng = np.random.default_rng(11)
        pushes = 0
        for target in (4, 7, 10, 13, 26):
            while pushes < target:
                pool.push(np.full(3, pushes), pushes % 2, float(pushes),
                          np.full(3, -pushes), pushes % 3 == 0)
                pushes += 1
            size = len(pool)
            for col in (pool._s, pool._r, pool._s2):
                col[size:] = np.nan
            pool._a[size:] = -1
            rows = replay_pool_rows(pool)
            start = pool._head if size == pool.capacity else 0
            for batch_size in (1, 4):
                clone = copy.deepcopy(rng)
                idx = clone.integers(0, size, size=batch_size)
                batch = pool.sample(batch_size, rng)
                expected = [rows[(j - start) % pool.capacity] for j in idx]
                np.testing.assert_array_equal(batch.s, [s for s, _, _, _, _ in expected])
                assert batch.a.tolist() == [a for _, a, _, _, _ in expected]
                assert batch.r.tolist() == [r for _, _, r, _, _ in expected]
                np.testing.assert_array_equal(batch.s2, [s2 for _, _, _, s2, _ in expected])
                assert batch.done.tolist() == [d for _, _, _, _, d in expected]
                assert not np.isnan(batch.s).any() and not np.isnan(batch.r).any()

    def test_next_sample_overwrites_the_batch(self):
        pool = ReplayPool(8, 1)
        for r in range(8):
            pool.push(np.zeros(1), 0, float(r), np.zeros(1), False)
        rng = np.random.default_rng(3)
        first = pool.sample(4, rng)
        kept = first.r.copy()
        assert pool.sample(4, rng) is first
        assert first.r.tolist() != kept.tolist()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
                    reason="probes glibc's heap reuse through the Linux peak RSS")
def test_repeated_training_keeps_peak_rss_flat():
    # With freed heap always reused (no trim, no mmap), a ring from np.zeros
    # (calloc) memsets the reused pages and makes the whole 8.8 MB ring
    # resident on the second train call; np.empty leaves unpushed rows
    # untouched. The child reads VmHWM, its own peak RSS: its ru_maxrss
    # would start at the RSS of the process that forked it.
    script = (
        "from sensorq.agent import AgentHyperParams\n"
        "from sensorq.env import EnvConfig\n"
        "from sensorq.experiments import train_dqn\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(next(ln for ln in fh if ln.startswith('VmHWM:')).split()[1])\n"
        "peaks = []\n"
        "for seed in range(1, 5):\n"
        "    train_dqn(EnvConfig(), AgentHyperParams(), 1, seed)\n"
        "    peaks.append(peak_kb())\n"
        "print(peaks[-1] - peaks[0])\n"
    )
    src = str(Path(sensorq.__file__).resolve().parents[1])
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="16777216", MALLOC_TRIM_THRESHOLD_="1000000000",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert int(out.stdout) < 2048, f"peak RSS grew {int(out.stdout)} KB after the first call"


def toy_hypers(**overrides):
    base = dict(
        gamma=GAMMA, tau=0.01, eps_start=1.0, eps_min=0.2, eps_decay=0.99,
        batch_size=32, replay_capacity=5000, warmup=64, lr=3e-3, hidden=(32, 32),
    )
    base.update(overrides)
    return AgentHyperParams(**base)


class TestTrain:
    def test_zero_episodes_returns_initialization(self):
        env = ToyMdpEnv()
        result = train(env, toy_hypers(), 0, seed=5)
        init_ss = np.random.SeedSequence(5).spawn(3)[0]
        expected = nn.init_network([2, 32, 32, 2], np.random.default_rng(init_ss))
        for (w, b), (w2, b2) in zip(result.params.layers, expected.layers):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)
        assert result.curve == []

    def test_training_is_deterministic(self):
        a = train(ToyMdpEnv(), toy_hypers(), 30, seed=9)
        b = train(ToyMdpEnv(), toy_hypers(), 30, seed=9)
        assert a.curve == b.curve
        for (w, _), (w2, _) in zip(a.params.layers, b.params.layers):
            np.testing.assert_array_equal(w, w2)

    def test_epsilon_floor_respected(self):
        result = train(ToyMdpEnv(), toy_hypers(eps_decay=0.5, eps_min=0.3), 20, seed=1)
        eps = [row[3] for row in result.curve]
        assert min(eps) >= 0.3 - 1e-12

    def test_learns_toy_mdp_policy(self):
        result = train(ToyMdpEnv(), toy_hypers(), 250, seed=3)
        for state in (0, 1):
            obs = np.zeros(2)
            obs[state] = 1.0
            q = nn.forward_batch(result.params, obs[None])[0]
            assert int(np.argmax(q)) == OPTIMAL[state]

    def test_train_on_interval_mode_env(self):
        from sensorq.env import EnvConfig, SensorEnv

        cfg = EnvConfig(sensors=["temperature"], epochs=24, action_mode="interval")
        hp = toy_hypers(batch_size=8, warmup=8, hidden=(8,))
        result = train(SensorEnv(cfg), hp, 4, seed=6)
        assert len(result.curve) == 4
        # returns accrue all epochs, including dormant idle penalties
        assert all(np.isfinite(row[1]) for row in result.curve)

    @pytest.mark.parametrize("epsilon", [1.0, 0.0], ids=["explore", "exploit"])
    def test_q_forward_only_when_a_sensor_exploits(self, monkeypatch, epsilon):
        # eps = 1: every sensor explores, so the only forwards are td_loss's
        # batch_size-row target passes; eps = 0: one num_sensors-row forward
        # per epoch. Either way the run equals one through the eager oracle.
        import sensorq.agent as agent_mod
        from sensorq.env import EnvConfig, SensorEnv

        cfg = EnvConfig(sensors=["temperature", "humidity", "voltage"], epochs=12)
        hp = toy_hypers(eps_start=epsilon, eps_min=epsilon, batch_size=8, warmup=8, hidden=(8,))
        rows = []
        forward = nn.forward_batch

        def counting_forward(params, x):
            rows.append(len(x))
            return forward(params, x)

        monkeypatch.setattr(nn, "forward_batch", counting_forward)
        lazy = agent_mod.train(SensorEnv(cfg), hp, 3, seed=4)
        train_steps = 3 * 12 - 3  # training starts at the 4th epoch, when the pool first holds 8
        if epsilon == 1.0:
            assert rows == [8] * train_steps
        else:
            assert sorted(rows) == [3] * (3 * 12) + [8] * train_steps

        def eager(q, mask, eps, num_actions, rng):
            return eager_select_action(q(), mask, eps, rng)

        monkeypatch.setattr(agent_mod, "select_action", eager)
        oracle = agent_mod.train(SensorEnv(cfg), hp, 3, seed=4)
        assert lazy.curve == oracle.curve
        assert lazy.params.flat.tobytes() == oracle.params.flat.tobytes()

    def test_interval_transitions_accumulate_sleep_rewards(self, monkeypatch):
        # every epoch's reward lands in exactly one pending transition, so
        # the pushed rewards must sum to the episode return
        import sensorq.agent as agent_mod
        from sensorq.env import EnvConfig, SensorEnv

        pushed = []

        class RecordingPool(ReplayPool):
            def push(self, s, a, r, s2, done):
                pushed.append(r)
                super().push(s, a, r, s2, done)

        monkeypatch.setattr(agent_mod, "ReplayPool", RecordingPool)
        cfg = EnvConfig(sensors=["temperature", "voltage"], epochs=12, action_mode="interval")
        hp = toy_hypers(warmup=10_000)  # collect only, never update
        result = agent_mod.train(SensorEnv(cfg), hp, 1, seed=6)
        assert abs(sum(pushed) - result.curve[0][1]) < 1e-12
