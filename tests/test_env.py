import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorq import metrics
from sensorq.env import (
    INTERVAL_SLEEPS,
    OBS_BATTERY,
    OBS_DIM,
    OBS_KIND,
    OBS_TIME,
    OBS_VALUE,
    SKIP,
    SAMPLE,
    EnvConfig,
    RewardWeights,
    SensorEnv,
    config_from_dict,
)
from sensorq.errors import ConfigError
from sensorq.signals import KINDS, SignalParams, synth_track


def small_config(**overrides):
    base = dict(
        sensors=["temperature", "humidity"],
        epochs=12,
        battery_mj=50.0,
        eta=0.0,
    )
    base.update(overrides)
    return EnvConfig(**base)


def last_terms(env):
    """(gain, cost, duplicate) of each sensor in the last step, from the CSV rows."""
    return [row[5:8] for row in env._rows[-env.num_sensors:]]


class TestReset:
    def test_batteries_full_and_shapes(self):
        env = SensorEnv(small_config(sensors=["temperature", "light", "voltage"]))
        obs = env.reset(3)
        assert obs.shape == (3, OBS_DIM)
        assert np.all(obs[:, OBS_BATTERY] == 1.0)
        assert np.all(obs[:, OBS_KIND : OBS_KIND + 4].sum(axis=1) == 1.0)

    def test_reset_is_deterministic(self):
        env_a = SensorEnv(small_config())
        env_b = SensorEnv(small_config())
        assert np.array_equal(env_a.reset(11), env_b.reset(11))

    def test_distinct_seeds_give_distinct_signals(self):
        env = SensorEnv(small_config())
        env.reset(1)
        a = [t.copy() for t in env._truth]
        env.reset(2)
        assert not any(np.array_equal(x, y) for x, y in zip(a, env._truth))


class TestStep:
    def test_all_skip_adds_no_samples_and_pays_idle(self):
        cfg = small_config()
        env = SensorEnv(cfg)
        env.reset(0)
        rewards, obs, done, truncated = env.step([SKIP, SKIP])
        assert not done and not truncated
        assert rewards.dtype == np.float64 and rewards.shape == (2,)
        assert env._samples == [[], []]
        np.testing.assert_allclose(env._battery, cfg.battery_mj - cfg.idle_cost)
        for gain, cost, duplicate in last_terms(env):
            assert gain == 0.0 and duplicate == 0.0
            assert cost == cfg.idle_cost / cfg.max_action_cost

    def test_battery_boundary_sample_records_and_hits_zero(self):
        cfg = small_config(sensors=["temperature"], battery_mj=1.0)  # cost exactly 1.0
        env = SensorEnv(cfg)
        env.reset(0)
        env.step([SAMPLE])
        assert env._battery[0] == 0.0
        assert len(env._samples[0]) == 1
        # empty sensor is now masked out and non-skip actions are rejected
        assert not env.decision_mask[0]
        with pytest.raises(ValueError):
            env.step([SAMPLE])
        env.step([SKIP])  # forced skip accepted, draws nothing
        assert env._battery[0] == 0.0

    def test_rejected_step_changes_nothing(self):
        cfg = small_config(sensors=["temperature", "voltage"], battery_mj=3.0)
        env = SensorEnv(cfg)
        env.reset(0)
        while env.decision_mask[1]:  # voltage samples its battery empty
            env.step([SKIP, SAMPLE])
        battery, ledger = env._battery.copy(), env._ledger.copy()
        samples, epoch = [list(s) for s in env._samples], env.epoch
        with pytest.raises(ValueError):
            env.step([SAMPLE, SAMPLE])  # temperature is checked and valid; voltage is not
        np.testing.assert_array_equal(env._battery, battery)
        np.testing.assert_array_equal(env._ledger, ledger)
        assert env._samples == samples and env.epoch == epoch
        env.step([SAMPLE, SKIP])
        np.testing.assert_allclose(cfg.battery_mj - env._battery, env._ledger.sum(axis=1), atol=1e-12)

    def test_episode_runs_exactly_t_steps(self):
        cfg = small_config(epochs=7)
        env = SensorEnv(cfg)
        env.reset(5)
        steps = 0
        done = False
        while not done:
            _, _, done, _ = env.step([SKIP, SKIP])
            steps += 1
        assert steps == 7
        with pytest.raises(ValueError):
            env.step([SKIP, SKIP])

    def test_scripted_sequence_matches_hand_trace(self):
        # Independent bookkeeping of the documented transition rules, eta=0.
        cfg = small_config(sensors=["temperature"], epochs=6)
        env = SensorEnv(cfg)
        env.reset(9)
        truth = synth_track(
            "temperature", 6, 9 * 1_000_003 + 0, cfg.signal, cfg.ranges["temperature"]
        ).values
        script = [SAMPLE, SKIP, SAMPLE, SAMPLE, SKIP]
        expected_samples = []
        expected_battery = cfg.battery_mj
        for e, a in enumerate(script):
            env.step([a])
            if a == SAMPLE:
                expected_samples.append((e, truth[e]))
                expected_battery -= cfg.sample_costs["temperature"]
            else:
                expected_battery -= cfg.idle_cost
        got = env._samples[0]
        assert [e for e, _ in got] == [e for e, _ in expected_samples]
        np.testing.assert_allclose([v for _, v in got], [v for _, v in expected_samples])
        assert abs(env._battery[0] - expected_battery) < 1e-12

    def test_noiseless_kept_values_equal_truth(self):
        cfg = small_config(eta=0.0)
        env = SensorEnv(cfg)
        env.reset(4)
        done = False
        while not done:
            _, _, done, _ = env.step([SAMPLE, SAMPLE])
        for i in range(2):
            for e, v in env._samples[i]:
                assert v == env._truth[i][e]

    def test_battery_monotone_non_increasing(self):
        cfg = small_config(epochs=20)
        env = SensorEnv(cfg)
        env.reset(8)
        rng = np.random.default_rng(0)
        prev = env._battery.copy()
        done = False
        while not done:
            acts = [int(rng.integers(2)) if m else SKIP for m in env.decision_mask]
            _, _, done, _ = env.step(acts)
            assert np.all(env._battery <= prev + 1e-15)
            assert np.all(env._battery >= 0.0)
            prev = env._battery.copy()


class TestReward:
    def test_skip_reward_is_pure_energy_term(self):
        cfg = small_config(weights=RewardWeights(1.0, 0.7, 0.3))
        env = SensorEnv(cfg)
        env.reset(0)
        rewards, *_ = env.step([SKIP, SKIP])
        for r, (_, cost, _) in zip(rewards, last_terms(env)):
            assert r == -0.7 * cost

    def test_duplicate_sample_penalty(self):
        # constant signal: second sample deviates by 0 < delta_red * span
        cfg = small_config(
            sensors=["temperature"],
            signal=SignalParams(sin_amp=0.0, walk_sigma=0.0, event_amp=0.0, n_events=0),
            weights=RewardWeights(1.0, 0.5, 0.25),
        )
        env = SensorEnv(cfg)
        env.reset(0)
        env.step([SAMPLE])
        rewards, *_ = env.step([SAMPLE])
        [(gain, cost, duplicate)] = last_terms(env)
        assert gain == 0.0 and duplicate == 1.0
        assert rewards[0] == -0.5 * cost - 0.25

    def test_first_sample_gain_is_maximal(self):
        env = SensorEnv(small_config())
        env.reset(2)
        env.step([SAMPLE, SKIP])
        assert last_terms(env)[0][0] == 1.0

    def test_recomposition_is_exact(self):
        cfg = small_config(epochs=15, weights=RewardWeights(0.37, 0.41, 0.22))
        env = SensorEnv(cfg)
        env.reset(6)
        rng = np.random.default_rng(1)
        done = False
        while not done:
            acts = [int(rng.integers(2)) if m else SKIP for m in env.decision_mask]
            rewards, _, done, _ = env.step(acts)
            for r, (gain, cost, duplicate) in zip(rewards.tolist(), last_terms(env)):
                assert r == 0.37 * gain - 0.41 * cost - 0.22 * duplicate
            assert [row[8] for row in env._rows[-2:]] == rewards.tolist()

    def test_reward_scales_linearly_with_weights(self):
        script_rng = np.random.default_rng(2)
        script = [[int(script_rng.integers(2)) for _ in range(2)] for _ in range(12)]
        totals = {}
        for scale in (1.0, 2.0):
            w = RewardWeights(0.5 * scale, 0.3 * scale, 0.2 * scale)
            env = SensorEnv(small_config(weights=w))
            env.reset(3)
            acc = []
            for acts in script:
                rewards, _, done, _ = env.step(acts)
                acc.extend(rewards.tolist())
                if done:
                    break
            totals[scale] = np.array(acc)
        np.testing.assert_allclose(totals[2.0], 2.0 * totals[1.0], rtol=0, atol=1e-12)


class TestIntervalMode:
    def test_sleep_masks_decisions(self):
        cfg = small_config(sensors=["temperature"], action_mode="interval", epochs=10)
        env = SensorEnv(cfg)
        env.reset(0)
        assert env.num_actions == 4
        env.step([2])  # sample then sleep 4 epochs
        assert len(env._samples[0]) == 1
        for _ in range(3):
            assert not env.decision_mask[0]
            with pytest.raises(ValueError):
                env.step([1])
            env.step([None])
        assert env.decision_mask[0]

    def test_dormant_epochs_pay_idle(self):
        cfg = small_config(sensors=["temperature"], action_mode="interval", epochs=10)
        env = SensorEnv(cfg)
        env.reset(0)
        env.step([1])  # sample, sleep 2
        env.step([None])
        spent = cfg.battery_mj - env._battery[0]
        assert abs(spent - (cfg.sample_costs["temperature"] + cfg.idle_cost)) < 1e-12


class TestEpisodeLog:
    def test_log_matches_env_bookkeeping(self):
        cfg = small_config(epochs=10)
        env = SensorEnv(cfg)
        env.reset(12)
        rng = np.random.default_rng(5)
        done = False
        while not done:
            acts = [int(rng.integers(2)) for _ in range(2)]
            _, _, done, _ = env.step(acts)
        log = env.episode_log()
        assert log.epochs == 10
        for i, s in enumerate(log.sensors):
            assert s.samples == env._samples[i]
            np.testing.assert_array_equal(s.energy, env._ledger[i])
            assert len(s.energy) == 10

    def test_log_requires_finished_episode(self):
        env = SensorEnv(small_config())
        env.reset(0)
        with pytest.raises(ValueError):
            env.episode_log()

    def test_episode_csv_round_trips(self, tmp_path):
        env = SensorEnv(small_config(epochs=5))
        env.reset(1)
        done = False
        while not done:
            _, _, done, _ = env.step([SAMPLE, SKIP])
        path = tmp_path / "episode.csv"
        env.write_episode_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,sensor,action")
        assert len(lines) == 1 + 5 * 2


class TestConfig:
    def test_from_dict_round_trip(self):
        cfg = config_from_dict(
            {
                "sensors": ["light"],
                "epochs": 30,
                "weights": {"info": 0.6, "energy": 0.2, "redundancy": 0.2},
                "signal": {"period": 24, "n_events": 2},
            }
        )
        assert cfg.sensors == ["light"]
        assert cfg.weights.info == 0.6
        assert cfg.signal.period == 24

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sensores": ["light"]})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"epochs": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"eta": 2.0})
        with pytest.raises(ConfigError):
            config_from_dict({"weights": {"info": 0, "energy": 0, "redundancy": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({"sensors": ["plutonium"]})


@given(
    mode=st.sampled_from(["binary", "interval"]),
    eta=st.sampled_from([0.0, 0.5]),
    battery=st.sampled_from([0.5, 1.0, 2.3, 6.0]),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    epochs=st.integers(2, 16),
    seed=st.integers(0, 2**16),
)
def test_invariants_under_random_legal_actions(mode, eta, battery, kinds, epochs, seed):
    """Battery never goes negative and every mJ drawn is in the ledger; the
    mask is False exactly for sleeping or empty sensors, and acting on a
    masked sensor is rejected."""
    cfg = EnvConfig(sensors=kinds, epochs=epochs, battery_mj=battery, eta=eta, action_mode=mode)
    env = SensorEnv(cfg)
    env.reset(seed)
    rng = np.random.default_rng(seed)
    awake_at = np.zeros(len(kinds), dtype=int)
    done = False
    while not done:
        e, mask = env.epoch, env.decision_mask.copy()
        np.testing.assert_array_equal(mask, (awake_at <= e) & (env._battery > 0.0))
        actions = [int(rng.integers(env.num_actions)) if m else None for m in mask]
        for j in np.flatnonzero(~mask):
            bad = list(actions)
            bad[j] = SAMPLE
            with pytest.raises(ValueError):
                env.step(bad)
        _, _, done, _ = env.step(actions)
        assert np.all(env._battery >= 0.0)
        for i, a in enumerate(actions):
            if a is not None and mode == "interval":
                awake_at[i] = e + INTERVAL_SLEEPS[a]
    np.testing.assert_allclose(battery - env._battery, env._ledger.sum(axis=1), rtol=0, atol=1e-9)
