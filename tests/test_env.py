import csv
import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorq import ingest, metrics
from sensorq.env import (
    INTERVAL_SLEEPS,
    OBS_BATTERY,
    OBS_DIM,
    OBS_KIND,
    OBS_TIME,
    OBS_VALUE,
    IDLE,
    SKIP,
    SAMPLE,
    EnvConfig,
    EpisodeInputs,
    ReplayConfig,
    RewardWeights,
    SensorEnv,
    config_from_dict,
)
from sensorq.agent import AgentHyperParams
from sensorq.errors import ConfigError, from_json
from sensorq.signals import KINDS, SignalParams, synth_track

from oracles import usable_windows


def small_config(**overrides):
    base = dict(
        sensors=["temperature", "humidity"],
        epochs=12,
        battery_mj=50.0,
        eta=0.0,
    )
    base.update(overrides)
    return EnvConfig(**base)


def terms_at(env, e):
    """(gain, cost, duplicate) of each sensor at step e, from reward_terms()
    once the episode is finished with skips (binary mode)."""
    while env.epoch < env.config.epochs:
        env.step([SKIP] * env.num_sensors)
    gain, cost, duplicate, _ = env.reward_terms()
    return list(zip(gain[:, e].tolist(), cost[:, e].tolist(), duplicate[:, e].tolist()))


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
        assert not env._kept.any()
        np.testing.assert_allclose(env._battery, cfg.battery_mj - cfg.idle_cost)
        for gain, cost, duplicate in terms_at(env, 0):
            assert gain == 0.0 and duplicate == 0.0
            assert cost == cfg.idle_cost / cfg.max_action_cost

    def test_battery_boundary_sample_records_and_hits_zero(self):
        cfg = small_config(sensors=["temperature"], battery_mj=1.0)  # cost exactly 1.0
        env = SensorEnv(cfg)
        env.reset(0)
        env.step([SAMPLE])
        assert env._battery[0] == 0.0
        assert env._kept[0].sum() == 1
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
        for bad in ([0.9, True], [1.5, 1], [SKIP, True], [np.int64(1), SKIP]):  # not truncated to an int
            with pytest.raises(ValueError):
                env.step(bad)
        assert env.epoch == 0 and not env._kept.any() and not env._ledger.any()
        while env.decision_mask[1]:  # voltage samples its battery empty
            env.step([SKIP, SAMPLE])
        battery, ledger = env._battery.copy(), env._ledger.copy()
        kept, values, epoch = env._kept.copy(), env._values.copy(), env.epoch
        # [SAMPLE, SAMPLE]: temperature is checked and valid; voltage is not
        for bad in ([SAMPLE, SAMPLE], [0.9, True], [1.5, 1], [SKIP, False], [SKIP, 0.0],
                    [np.int64(1), SKIP]):
            with pytest.raises(ValueError):
                env.step(bad)
            np.testing.assert_array_equal(env._battery, battery)
            np.testing.assert_array_equal(env._ledger, ledger)
            np.testing.assert_array_equal(env._kept, kept)
            np.testing.assert_array_equal(env._values, values)
            assert env.epoch == epoch
        env.step([SAMPLE, SKIP])
        np.testing.assert_allclose(cfg.battery_mj - np.asarray(env._battery), env._ledger.sum(axis=1),
                                   atol=1e-12)

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
        assert np.flatnonzero(env._kept[0]).tolist() == [e for e, _ in expected_samples]
        np.testing.assert_allclose(env._values[0][env._kept[0]], [v for _, v in expected_samples])
        assert abs(env._battery[0] - expected_battery) < 1e-12

    def test_noiseless_kept_values_equal_truth(self):
        cfg = small_config(eta=0.0)
        env = SensorEnv(cfg)
        env.reset(4)
        done = False
        while not done:
            _, _, done, _ = env.step([SAMPLE, SAMPLE])
        assert env._kept.all()
        np.testing.assert_array_equal(env._values, env._truth)

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
            assert np.all(np.asarray(env._battery) <= np.asarray(prev) + 1e-15)
            assert np.all(np.asarray(env._battery) >= 0.0)
            prev = env._battery.copy()


class TestReward:
    def test_skip_reward_is_pure_energy_term(self):
        cfg = small_config(weights=RewardWeights(1.0, 0.7, 0.3))
        env = SensorEnv(cfg)
        env.reset(0)
        rewards, *_ = env.step([SKIP, SKIP])
        for r, (_, cost, _) in zip(rewards, terms_at(env, 0)):
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
        [(gain, cost, duplicate)] = terms_at(env, 1)
        assert gain == 0.0 and duplicate == 1.0
        assert rewards[0] == -0.5 * cost - 0.25

    def test_first_sample_gain_is_maximal(self):
        env = SensorEnv(small_config())
        env.reset(2)
        env.step([SAMPLE, SKIP])
        assert terms_at(env, 0)[0][0] == 1.0

    def test_recomposition_is_exact(self):
        cfg = small_config(epochs=15, weights=RewardWeights(0.37, 0.41, 0.22))
        env = SensorEnv(cfg)
        env.reset(6)
        rng = np.random.default_rng(1)
        stepped = []
        done = False
        while not done:
            acts = [int(rng.integers(2)) if m else SKIP for m in env.decision_mask]
            rewards, _, done, _ = env.step(acts)
            stepped.append(rewards.tolist())
        gain, cost, duplicate, reward = (a.T.tolist() for a in env.reward_terms())
        assert reward == stepped
        for e, rewards in enumerate(stepped):
            for r, g, c, d in zip(rewards, gain[e], cost[e], duplicate[e]):
                assert r == 0.37 * g - 0.41 * c - 0.22 * d

    @pytest.mark.parametrize("action_mode, labels", [("binary", {"skip", "sample", "idle"}),
                                                     ("interval", {"sample", "idle"})])
    def test_rebuilt_rewards_equal_the_stepped_ones(self, tmp_path, action_mode, labels):
        """Whole episodes with dropped samples (eta > 0) and sensors that run
        empty: reward_terms()[3] is the step rewards, stacked, bit for bit."""
        cfg = small_config(sensors=["temperature", "light", "voltage"], epochs=40, battery_mj=9.0,
                           eta=0.6, drop_prob=0.5, action_mode=action_mode,
                           weights=RewardWeights(0.37, 0.41, 0.22), delta_red=0.2)
        env = SensorEnv(cfg)
        rng = np.random.default_rng(7)
        for seed in range(3):
            env.reset(seed)
            stepped, done = [], False
            while not done:
                acts = [int(rng.integers(env.num_actions)) if m else None for m in env.decision_mask]
                rewards, _, done, _ = env.step(acts)
                stepped.append(rewards)
            gain, cost, duplicate, reward = env.reward_terms()
            assert reward.dtype == np.float64 and reward.shape == (3, 40)
            assert reward.tobytes() == np.stack(stepped, axis=1).tobytes()
            assert (env._labels == SAMPLE).sum() > env._kept.sum() > 0  # some samples dropped
            assert (env._labels == IDLE).any() and duplicate.any()
            assert np.array_equal(gain > 0, env._kept)
            env.write_episode_csv(tmp_path / "episode.csv")
            with open(tmp_path / "episode.csv", newline="") as fh:
                assert {row["action"] for row in csv.DictReader(fh)} == labels

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
        assert env._kept[0].sum() == 1
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
        assert log.kept is env._kept and log.values is env._values
        assert log.truth is env._truth and log.energy is env._ledger
        assert log.kept.shape == log.energy.shape == (2, 10)
        assert log.events == env._events
        np.testing.assert_array_equal(log.spans, env._spans)

    @pytest.mark.parametrize("shared", [False, True])
    def test_truth_is_read_only(self, shared):
        cfg = small_config(epochs=4)
        env = SensorEnv(cfg, EpisodeInputs(cfg) if shared else None)
        env.reset(2)
        for _ in range(4):
            env.step([SAMPLE, SKIP])
        with pytest.raises(ValueError):
            env.episode_log().truth[0, 0] = 1.0

    def test_log_requires_finished_episode(self, tmp_path):
        env = SensorEnv(small_config())
        for _ in ("never reset", "mid-episode"):
            with pytest.raises(ValueError):
                env.episode_log()
            with pytest.raises(ValueError):
                env.write_episode_csv(tmp_path / "episode.csv")
            with pytest.raises(ValueError):
                env.reward_terms()
            env.reset(0)
            env.step([SAMPLE, SKIP])

    def test_log_survives_the_next_episode(self):
        env = SensorEnv(small_config(eta=0.5))
        rng = np.random.default_rng(3)

        def episode(seed):
            env.reset(seed)
            done = False
            while not done:
                _, _, done, _ = env.step([int(rng.integers(2)) for _ in range(2)])
            return env.episode_log()

        log = episode(4)
        before = dataclasses.astuple(log)  # a deep copy
        episode(5)
        for want, got in zip(before, dataclasses.astuple(log)):
            np.testing.assert_array_equal(got, want)

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

    def test_reader_follows_the_type_hints(self):
        cfg = config_from_dict({"sensors": ["light"], "idle_cost": 0, "ranges": {"light": [0, 5]},
                                "sample_costs": {"light": 2},
                                "replay": {"sensors": [[1, "light"]], "delta_t": 30}})
        assert repr((cfg.idle_cost, cfg.ranges, cfg.sample_costs)) == \
            "(0.0, {'light': (0.0, 5.0)}, {'light': 2.0})"
        assert repr((cfg.replay.sensors, cfg.replay.delta_t, cfg.replay.end_slot)) == \
            "([(1, 'light')], 30.0, None)"
        assert from_json(AgentHyperParams, {"hidden": [3, 4]}, "agent").hidden == (3, 4)
        # a fixed-length tuple comes only from a list of that length: never truncated
        assert from_json(EnvConfig, {"ranges": {"light": [1, 2, 3]}}, "env").ranges == \
            {"light": [1, 2, 3]}
        with pytest.raises(ConfigError, match="unknown env.replay config key 'paths'"):
            config_from_dict({"replay": {"paths": "trace.txt"}})
        with pytest.raises(ConfigError, match="config section env.weights must be a JSON object"):
            config_from_dict({"weights": None})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sensores": ["light"]})

    def test_env_validates_its_config_once(self, monkeypatch):
        """Built alone, the env's config is validated once, by its own
        EpisodeInputs; with shared inputs the env still validates it, since
        eta and the weights, which the inputs never read, may differ."""
        calls, validate = [], EnvConfig.validate
        monkeypatch.setattr(EnvConfig, "validate", lambda cfg: calls.append(cfg) or validate(cfg))
        cfg = EnvConfig(epochs=5)
        SensorEnv(cfg)
        assert len(calls) == 1
        inputs = EpisodeInputs(cfg)
        calls.clear()
        SensorEnv(dataclasses.replace(cfg, eta=0.5), inputs)
        assert len(calls) == 1
        with pytest.raises(ConfigError, match="eta"):
            SensorEnv(dataclasses.replace(cfg, eta=2.0), inputs)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"epochs": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"eta": 2.0})
        with pytest.raises(ConfigError):
            config_from_dict({"weights": {"info": 0, "energy": 0, "redundancy": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({"sensors": ["plutonium"]})
        for costs in ([1.0], 5, {"temperature": "1"}):
            with pytest.raises(ConfigError, match="sample_costs"):
                config_from_dict({"sample_costs": costs})


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
        np.testing.assert_array_equal(mask, (awake_at <= e) & (np.asarray(env._battery) > 0.0))
        actions = [int(rng.integers(env.num_actions)) if m else None for m in mask]
        for j in np.flatnonzero(~mask):
            bad = list(actions)
            bad[j] = SAMPLE
            with pytest.raises(ValueError):
                env.step(bad)
        _, _, done, _ = env.step(actions)
        assert np.all(np.asarray(env._battery) >= 0.0)
        for i, a in enumerate(actions):
            if a is not None and mode == "interval":
                awake_at[i] = e + INTERVAL_SLEEPS[a]
    np.testing.assert_allclose(battery - np.asarray(env._battery), env._ledger.sum(axis=1), rtol=0, atol=1e-9)


def write_gapped_trace(path, rng, n_slots, gaps):
    """A one-minute-slot trace where mote m misses each slot with
    probability gaps[m]; mote 1 holds the first and last slot, so the grid
    spans n_slots, and every mote holds at least one. Returns the
    {mote: presence} grid it wrote."""
    presence = {m: rng.random(n_slots) >= gap for m, gap in gaps.items()}
    presence[1][[0, -1]] = True
    for present in presence.values():
        present[rng.integers(n_slots)] = True
    start, lines = datetime(2004, 3, 1), []
    for m, present in presence.items():
        for slot in np.flatnonzero(present).tolist():
            stamp = (start + timedelta(minutes=slot)).strftime("%Y-%m-%d %H:%M:%S.0")
            temp, hum, light = 20 + 5 * rng.random(), 40 + 9 * rng.random(), 900 * rng.random()
            lines.append(f"{stamp} {slot} {m} {temp:.4f} {hum:.4f} {light:.4f} 2.7\n")
    path.write_text("".join(lines))
    return presence


class TestReplayWindows:
    """EpisodeInputs' window starts against the one-sensor-at-a-time oracle."""

    @pytest.mark.parametrize("seed", range(16))
    def test_windows_match_the_oracle(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_slots = int(rng.integers(20, 90))
        presence = write_gapped_trace(tmp_path / "trace.txt", rng, n_slots, {1: 0.1, 2: 0.5, 3: 0.3})
        sensors = [(1, "temperature"), (2, "humidity"), (3, "light"), (1, "voltage")]  # mote 1 twice
        sensors = [sensors[i] for i in rng.permutation(4)[: int(rng.integers(2, 5))]]
        epochs = int(rng.integers(2, 9))
        start_slot = int(rng.integers(0, 12)) if seed % 2 else 0
        end_slot = None if seed % 3 == 0 else start_slot + int(rng.integers(1, n_slots + 8))
        min_presence = [0.0, 1.0, 0.5, float(rng.random())][seed % 4]
        cfg = EnvConfig(epochs=epochs, mode="replay", replay=ReplayConfig(
            sensors=sensors, path=str(tmp_path / "trace.txt"), min_presence=min_presence,
            start_slot=start_slot, end_slot=end_slot))
        expected = usable_windows(presence, sensors, epochs, start_slot, end_slot, min_presence)
        last = n_slots if end_slot is None else min(n_slots, end_slot)
        if last - start_slot < epochs:
            with pytest.raises(ConfigError, match="shorter than one episode"):
                EpisodeInputs(cfg)
        elif not expected:
            with pytest.raises(ConfigError, match="no usable episode windows"):
                EpisodeInputs(cfg)
        else:
            assert EpisodeInputs(cfg).windows == expected

    @pytest.mark.parametrize("min_presence, expected", [(0.0, [0, 5, 10]), (0.3, [0, 5]), (0.5, [5])])
    def test_every_sensor_must_be_present(self, tmp_path, min_presence, expected):
        """Mote 1 misses slots 0-2, mote 2 slots 11-14; the 16th slot fits no
        window of 5."""
        lines = [f"2004-03-01 00:{s:02d}:00.0 {s} {m} 20.0 40.0 100.0 2.7\n"
                 for m, gaps in [(1, range(3)), (2, range(11, 15))] for s in range(16) if s not in gaps]
        (tmp_path / "trace.txt").write_text("".join(lines))
        cfg = EnvConfig(epochs=5, mode="replay", replay=ReplayConfig(
            sensors=[(1, "temperature"), (2, "temperature")], path=str(tmp_path / "trace.txt"),
            min_presence=min_presence))
        assert EpisodeInputs(cfg).windows == expected

    def test_truth_is_a_read_only_view_of_the_configured_series(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_gapped_trace(path, np.random.default_rng(7), 60, {1: 0.2, 2: 0.3, 3: 0.1, 4: 0.4})
        sensors = [(2, "humidity"), (1, "temperature"), (2, "light")]  # motes 3 and 4 unread
        inputs = EpisodeInputs(EnvConfig(epochs=6, mode="replay", replay=ReplayConfig(
            sensors=sensors, path=str(path), min_presence=0.0)))
        trace, _ = ingest.load_trace(path)
        assert inputs.series.shape == (len(sensors), 60) and not inputs.series.flags.writeable
        for row, (mote, kind) in zip(inputs.series, sensors):
            k = trace.motes.index(mote)
            assert not trace.present[k].all()  # a gap to hold over
            held = metrics.zoh_hold(trace.present[k], trace.values[k, KINDS.index(kind)])
            np.testing.assert_array_equal(row, held)
        assert inputs.windows == list(range(0, 60, 6))
        for seed, start in enumerate(inputs.windows):
            truth, _ = inputs.episode(seed)
            assert np.shares_memory(truth, inputs.series) and not truth.flags.writeable
            np.testing.assert_array_equal(truth, inputs.series[:, start : start + 6])
            assert inputs.episode(seed + len(inputs.windows))[0] is truth  # the memo
