import contextlib
import csv
import hashlib
import io
import json
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorq import env as env_mod
from sensorq import ingest, metrics, nn
from sensorq.agent import AgentHyperParams
from sensorq.baselines import FixedPolicy, GreedyQPolicy, RandomPolicy, ThresholdPolicy
from sensorq.env import OBS_DIM, EnvConfig, EpisodeInputs, ReplayConfig, RewardWeights, SensorEnv
from sensorq.errors import CheckFailure, ConfigError
from sensorq.experiments import (
    EVAL_BASE,
    EVAL_STRIDE,
    EXPERIMENT_KEYS,
    ExperimentSpec,
    check_interference,
    check_weight_sweep,
    emit_plotdata,
    evaluate_policy,
    make_baseline,
    matched_random_rate,
    resolved_config,
    run_compare,
    run_episode,
    run_interference_sweep,
    run_train,
    run_weight_sweep,
    spec_from_file,
    train_dqn,
    write_manifest,
)
from sensorq import cli
from sensorq.signals import KINDS, SignalParams


def tiny_env(**overrides):
    base = dict(sensors=["temperature"], epochs=10, eta=0.0)
    base.update(overrides)
    return EnvConfig(**base)


def tiny_hypers():
    return AgentHyperParams(
        batch_size=8, replay_capacity=500, warmup=8, hidden=(8,), eps_decay=0.9
    )


def tiny_spec(tmp_path, **overrides):
    base = dict(
        env=tiny_env(),
        hypers=tiny_hypers(),
        seeds=[1, 2],
        out_dir=tmp_path,
        policies=["fixed(1)", "dqn"],
        train_episodes=3,
        eval_episodes=2,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


CONFIG_JSON = {
    "env": {"sensors": ["temperature"], "epochs": 10},
    "agent": {"batch_size": 8, "warmup": 8, "hidden": [8]},
    "experiment": {
        "policies": ["fixed(1)", "random(0.5)"],
        "seeds": [4, 5],
        "train_episodes": 2,
        "eval_episodes": 2,
    },
}


class TestSpec:
    def test_spec_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG_JSON))
        spec = spec_from_file(path, tmp_path / "out")
        assert spec.env.sensors == ["temperature"]
        assert spec.hypers.batch_size == 8
        assert spec.seeds == [4, 5]
        assert spec.policies == ["fixed(1)", "random(0.5)"]

    def test_seed_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG_JSON))
        spec = spec_from_file(path, tmp_path, seeds=[9])
        assert spec.seeds == [9]

    def test_readme_config_example_is_valid(self, tmp_path):
        """The JSON block under README's "Config file" heading reads as a
        spec and passes every experiment's checks."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Config file\n", 1)[1]
        path = tmp_path / "config.json"
        path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
        spec = spec_from_file(path, tmp_path / "out")
        for kind in ("train", "compare", "weight-sweep", "interference-sweep"):
            spec.validate(kind)

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            spec_from_file(path, tmp_path)

    @pytest.mark.parametrize("mode", ["synthetic", "replay"])
    def test_manifest_reads_back_to_the_same_spec(self, tmp_path, mode):
        env = {"sensors": ["temperature"], "epochs": 10, "battery_mj": 12,
               "weights": {"info": 1, "energy": 0, "redundancy": 0},
               "ranges": {"temperature": [0, 50]}}
        if mode == "replay":
            env.update(mode="replay", replay={"path": "trace.txt", "delta_t": 30,
                                              "sensors": [[3, "light"]], "end_slot": 40})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG_JSON, env=env)))
        spec = spec_from_file(path, tmp_path, seeds=[7, 2])
        write_manifest(spec, "compare", tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        config = manifest["config"]
        assert manifest["experiment"] == "compare" and manifest["checkpoint"] is None
        assert manifest["config_sha256"] == hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest()
        assert config["experiment"]["seeds"] == [7, 2]
        assert (config["env"]["replay"] is None) == (mode == "synthetic")
        back = spec_from_file(tmp_path / "manifest.json", tmp_path)
        assert back.env == spec.env and back.hypers == spec.hypers
        assert all(getattr(back, k) == getattr(spec, k) for k in EXPERIMENT_KEYS)
        assert resolved_config(back) == resolved_config(spec)

    def test_int_and_float_spellings_give_one_manifest(self, tmp_path):
        """A float field written as a JSON int reads as that float, so the
        manifest and its config_sha256 depend on the values alone."""
        def manifest(num):
            config = {
                "env": {"sensors": ["temperature"], "epochs": 10, "battery_mj": num(12),
                        "idle_cost": num(0), "sample_costs": {"temperature": num(1)},
                        "weights": {"info": num(1), "energy": num(0), "redundancy": num(0)},
                        "signal": {"sin_amp": num(0)}, "ranges": {"temperature": [num(0), num(50)]},
                        "replay": {"sensors": [[1, "temperature"]], "delta_t": num(30)}},
                "agent": {"lr": num(1), "gamma": num(1)},
                "experiment": {"weight_triples": [[num(1), num(0), num(0)], [num(0), num(1), num(0)]],
                               "eta_grid": [num(0), num(1)]},
            }
            (tmp_path / "config.json").write_text(json.dumps(config))
            write_manifest(spec_from_file(tmp_path / "config.json", tmp_path), "compare", tmp_path)
            return (tmp_path / "manifest.json").read_bytes()

        assert manifest(int) == manifest(float)
        assert b'"battery_mj": 12.0' in manifest(int)

    def test_manifest_run_fields_are_not_read(self, tmp_path):
        """Of the run record only `checkpoint` is read back: `experiment` and
        `version` are not, whatever they say."""
        path = tmp_path / "manifest.json"
        record = {"config": CONFIG_JSON, "experiment": "train", "version": "other"}
        for checkpoint in ("missing.txt", None):
            path.write_text(json.dumps(dict(record, checkpoint=checkpoint)))
            spec = spec_from_file(path, tmp_path)
            assert spec.seeds == [4, 5] and spec.checkpoint == checkpoint
        for bad in (5, ["net.txt"], {"path": "net.txt"}):
            path.write_text(json.dumps(dict(record, checkpoint=bad)))
            with pytest.raises(ConfigError, match="checkpoint"):
                spec_from_file(path, tmp_path)

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_spec(tmp_path, seeds=[]).validate("compare")
        with pytest.raises(ConfigError):
            tiny_spec(tmp_path, weight_triples=[(1, 0, 0)]).validate("weight-sweep")
        with pytest.raises(ConfigError):
            tiny_spec(tmp_path, eta_grid=[0.5]).validate("interference-sweep")
        with pytest.raises(ConfigError):
            tiny_spec(tmp_path, eta_grid=[0.0, 1.5]).validate("interference-sweep")


class TestRollout:
    def test_run_episode_deterministic(self):
        cfg = tiny_env()
        log_a = run_episode(SensorEnv(cfg), FixedPolicy(2), 77)
        log_b = run_episode(SensorEnv(cfg), FixedPolicy(2), 77)
        np.testing.assert_array_equal(log_a.kept, log_b.kept)
        np.testing.assert_array_equal(log_a.values, log_b.values)

    def test_evaluate_policy_row(self):
        cfg = tiny_env()
        row = evaluate_policy(cfg, FixedPolicy(1), 3, episodes=2, label="fixed(1)")
        assert row.policy == "fixed(1)"
        assert row.quality == 1.0  # noiseless, sampled every epoch
        assert abs(row.energy_mj - 10 * cfg.sample_costs["temperature"]) < 1e-12

    def test_greedy_q_ties_pick_action_0_as_python_ints(self):
        params = nn.init_network([OBS_DIM, 4, 2], np.random.default_rng(0))
        params.flat[:] = 0.0  # every Q-value is 0
        env = SensorEnv(tiny_env(sensors=["temperature", "light", "voltage"]))
        obs = env.reset(0)
        actions = GreedyQPolicy(params).act(obs, env.epoch)
        assert actions == [0, 0, 0] and all(type(a) is int for a in actions)

    def test_every_policy_returns_python_ints(self):
        env = SensorEnv(tiny_env(sensors=["temperature", "light"], epochs=30))
        policies = [FixedPolicy(3), RandomPolicy(0.5), ThresholdPolicy(0.05, 30),
                    GreedyQPolicy(nn.init_network([OBS_DIM, 4, 2], np.random.default_rng(1)))]
        for policy in policies:
            obs = env.reset(5)
            policy.reset(np.random.default_rng(5))
            done = False
            while not done:
                actions = policy.act(obs, env.epoch)
                assert len(actions) == env.num_sensors
                assert all(type(a) is int for a in actions), (policy, actions)
                mask = env.decision_mask.tolist()  # as run_episode masks them
                _, obs, done, _ = env.step([a if m else None for a, m in zip(actions, mask)])

    def test_make_baseline_parsing(self):
        assert make_baseline("fixed(4)", 100).period == 4
        assert make_baseline("random(0.25)", 100).q == 0.25
        assert make_baseline("threshold(0.2)", 100).threshold == 0.2
        with pytest.raises(ConfigError):
            make_baseline("dueling(2)", 100)

    def test_matched_random_rate(self):
        cfg = tiny_env()
        q = matched_random_rate(cfg, energy_mj=10 * cfg.sample_costs["temperature"])
        assert abs(q - 1.0) < 1e-12
        q = matched_random_rate(cfg, energy_mj=10 * cfg.idle_cost)
        assert abs(q) < 1e-12


class TestCompare:
    def test_fixed_row_forced_values_and_files(self, tmp_path):
        spec = tiny_spec(tmp_path, policies=["fixed(1)"])
        reports = run_compare(spec)
        assert len(reports) == 1
        r = reports[0]
        assert r.quality == 1.0
        assert abs(r.energy_mj - 10 * spec.env.sample_costs["temperature"]) < 1e-12
        assert (tmp_path / "compare.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_two_seeds_aggregate_hand_average(self, tmp_path):
        spec = tiny_spec(tmp_path, policies=["random(0.5)"], seeds=[1, 2])
        reports = run_compare(spec)
        rows = [
            evaluate_policy(spec.env, make_baseline("random(0.5)", 10), s, 2, "random(0.5)")
            for s in (1, 2)
        ]
        expected = 0.5 * (rows[0].quality + rows[1].quality)
        assert abs(reports[0].quality - expected) < 1e-12
        assert reports[0].quality_std > 0.0 or rows[0].quality == rows[1].quality

    def test_dqn_trains_and_writes_checkpoints(self, tmp_path):
        spec = tiny_spec(tmp_path)
        reports = run_compare(spec)
        assert {r.policy for r in reports} == {"fixed(1)", "dqn"}
        assert (tmp_path / "dqn_seed1.txt").exists()
        assert (tmp_path / "curve_seed2.csv").exists()

    def test_checkpoint_reuse(self, tmp_path):
        result = train_dqn(tiny_env(), tiny_hypers(), 2, seed=1)
        ckpt = tmp_path / "net.txt"
        nn.save_network(result.params, ckpt)
        spec = tiny_spec(
            tmp_path / "out", policies=["dqn"], checkpoint=str(ckpt), train_missing=False
        )
        reports = run_compare(spec)
        assert reports[0].policy == "dqn"

    def test_missing_checkpoint_without_train_flag(self, tmp_path):
        spec = tiny_spec(tmp_path, train_missing=False)
        with pytest.raises(ConfigError):
            run_compare(spec)

    def test_checkpoint_manifest_reruns_with_no_flags(self, tmp_path, monkeypatch):
        """A `compare --checkpoint` manifest names its snapshot, so a rerun
        from it alone evaluates that snapshot again; --checkpoint overrides."""
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(dict(
            CONFIG_JSON, experiment=dict(CONFIG_JSON["experiment"], policies=["fixed(1)", "dqn"]))))
        assert cli.main(["compare", "--config", "config.json", "--out", "train", "--train"]) == 0
        assert cli.main(["compare", "--config", "config.json", "--out", "reuse",
                         "--checkpoint", "train/dqn_seed4.txt"]) == 0
        assert cli.main(["compare", "--config", "reuse/manifest.json", "--out", "again"]) == 0
        for name in ("compare.csv", "manifest.json"):
            assert Path("reuse", name).read_bytes() == Path("again", name).read_bytes(), name
        assert cli.main(["compare", "--config", "reuse/manifest.json", "--out", "other",
                         "--checkpoint", "train/dqn_seed5.txt"]) == 0
        manifest = json.loads(Path("other/manifest.json").read_text())
        assert manifest["checkpoint"] == "train/dqn_seed5.txt"
        assert Path("other/compare.csv").read_bytes() != Path("reuse/compare.csv").read_bytes()
        # train uses no snapshot, so its manifest names none
        assert cli.main(["train", "--config", "reuse/manifest.json", "--out", "trained"]) == 0
        assert json.loads(Path("trained/manifest.json").read_text())["checkpoint"] is None

    def test_window_past_the_episode_covers_the_rest_of_it(self, tmp_path):
        """A detection_window past int64 scores like one as long as the episode."""
        policies = ["fixed(3)", "random(0.3)", "threshold(0.15)"]
        for name, window in (("long", 10**30), ("episode", 10)):
            run_compare(tiny_spec(tmp_path / name, env=tiny_env(detection_window=window),
                                  policies=policies))
        assert (tmp_path / "long" / "compare.csv").read_bytes() == \
            (tmp_path / "episode" / "compare.csv").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        spec_a = tiny_spec(tmp_path / "a")
        spec_b = tiny_spec(tmp_path / "b")
        run_compare(spec_a)
        run_compare(spec_b)
        for name in ("compare.csv", "manifest.json", "dqn_seed1.txt", "curve_seed1.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def counting(monkeypatch, module, name):
    """Count the calls made through `module.name` (the name callers look up)."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "runner", [run_compare, run_weight_sweep, run_interference_sweep, run_train]
)
def test_replay_trace_read_once_per_experiment(tmp_path, monkeypatch, runner):
    trace = tmp_path / "trace.txt"
    trace.write_text(
        "".join(f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + i % 9}.0 40.0 100.0 2.7\n" for i in range(12))
    )
    calls = counting(monkeypatch, ingest, "load_trace")
    env = tiny_env(epochs=12, mode="replay",
                   replay=ReplayConfig(sensors=[(1, "temperature")], path=str(trace)))
    spec = tiny_spec(tmp_path / "out", env=env, seeds=[1, 2], policies=["fixed(1)", "dqn"],
                     train_episodes=2, weight_triples=[(0.6, 0.2, 0.2), (0.2, 0.5, 0.3)],
                     eta_grid=[0.0, 0.5])
    runner(spec)
    assert len(calls) == 1


def replay_env(tmp_path):
    """A replay config over a 36-slot, one-mote trace: three 12-epoch windows."""
    trace = tmp_path / "trace.txt"
    trace.write_text("".join(
        f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + i % 9}.0 {40 + i % 5}.0 100.0 2.7\n"
        for i in range(36)
    ))
    replay = ReplayConfig(sensors=[(1, "temperature"), (1, "humidity")], path=str(trace))
    return tiny_env(epochs=12, mode="replay", replay=replay)


class TestSharedEpisodeInputs:
    def test_sweep_builds_each_track_once(self, tmp_path, monkeypatch):
        calls = counting(monkeypatch, env_mod, "synth_track")
        spec = tiny_spec(tmp_path, env=tiny_env(sensors=list(KINDS)), seeds=[1],
                         policies=["fixed(1)", "random(0.5)"], eta_grid=[0.0, 0.5, 1.0],
                         eval_episodes=3)
        for _ in range(2):  # nothing outlives the call: the second run builds them all again
            calls.clear()
            run_interference_sweep(spec)
            assert len(calls) == 3 * len(KINDS)  # not 2 policies x 3 etas x 3 x 4

    def test_replay_compare_detects_events_once_per_window(self, tmp_path, monkeypatch):
        calls = counting(monkeypatch, env_mod, "detect_events")
        spec = tiny_spec(tmp_path / "out", env=replay_env(tmp_path), seeds=[1, 2],
                         policies=["fixed(1)", "random(0.5)", "threshold(0.1)"], eval_episodes=3)
        run_compare(spec)
        windows = {(s * EVAL_STRIDE + EVAL_BASE + e) % 3 for s in (1, 2) for e in range(3)}
        assert len(windows) > 1
        assert len(calls) == len(windows) * 2

    def test_training_builds_every_episode_and_keeps_no_memo(self, monkeypatch):
        calls = counting(monkeypatch, env_mod, "synth_track")
        cfg = tiny_env(sensors=["temperature", "light"])
        inputs = EpisodeInputs(cfg)
        train_dqn(cfg, tiny_hypers(), 3, 1, inputs)
        assert len(calls) == 3 * 2
        assert inputs.memo == {}

    @pytest.mark.parametrize("mode", ["synthetic", "replay"])
    def test_every_cell_equals_its_evaluation_alone(self, tmp_path, mode):
        cfg = tiny_env(sensors=["temperature", "light"]) if mode == "synthetic" else replay_env(tmp_path)
        inputs = EpisodeInputs(cfg)
        cells = [(text, eta, weights)
                 for weights in [(0.6, 0.2, 0.2), (0.2, 0.5, 0.3)]
                 for eta in [1.0, 0.0, 0.5]
                 for text in ["random(0.5)", "fixed(2)", "threshold(0.1)"]]
        for text, eta, weights in cells:
            cell = replace(cfg, eta=eta, weights=RewardWeights(*weights))
            for seed in (2, 1):
                shared = evaluate_policy(cell, make_baseline(text, 12), seed, 3, text, inputs)
                alone = evaluate_policy(cell, make_baseline(text, 12), seed, 3, text)
                assert shared == alone, (text, eta, weights, seed)
        assert inputs.memo

    def test_eta_and_weights_reuse_the_memo(self, monkeypatch):
        calls = counting(monkeypatch, env_mod, "synth_track")
        cfg = tiny_env()
        inputs = EpisodeInputs(cfg)
        first = SensorEnv(cfg, inputs)
        first.reset(7)
        other = SensorEnv(replace(cfg, eta=0.5, weights=RewardWeights(0.2, 0.5, 0.3)), inputs)
        other.reset(7)
        assert len(calls) == 1 and other._truth is first._truth

    @pytest.mark.parametrize("change", [
        {"ranges": {"temperature": (0.0, 30.0)}},
        {"epochs": 11},
        {"signal": SignalParams(walk_sigma=0.05)},
        {"sensors": ["light"]},
        {"replay": ReplayConfig(sensors=[(1, "temperature")])},
    ])
    def test_another_config_never_reuses_an_entry(self, change):
        cfg = tiny_env()
        inputs = EpisodeInputs(cfg)
        evaluate_policy(cfg, FixedPolicy(1), 1, 2, "fixed(1)", inputs)
        memo = dict(inputs.memo)
        with pytest.raises(ConfigError, match="another config"):
            evaluate_policy(replace(cfg, **change), FixedPolicy(1), 1, 2, "fixed(1)", inputs)
        assert inputs.memo.keys() == memo.keys()
        assert all(inputs.memo[k] is v for k, v in memo.items())


class TestWeightSweep:
    def test_rows_and_duplicate_triples(self, tmp_path):
        triples = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.6, 0.2, 0.2)]
        spec = tiny_spec(tmp_path, weight_triples=triples, policies=["dqn"], seeds=[1])
        cells = run_weight_sweep(spec)
        assert len(cells) == 3
        a, _, c = cells
        assert a["report"] == c["report"]  # identical triple, identical rows
        with open(tmp_path / "weight_sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3

    def test_check_logic(self, tmp_path):
        spec = tiny_spec(tmp_path, weight_triples=[(0.6, 0.2, 0.2), (0.2, 0.5, 0.3)])

        def cell(triple, energy, quality):
            return {
                "triple": triple,
                "report": metrics.MetricsReport(
                    "dqn", [1], quality, energy, 0.0, 0.0
                ),
            }

        good = [cell((0.6, 0.2, 0.2), 50.0, 0.9), cell((0.2, 0.5, 0.3), 10.0, 0.4)]
        check_weight_sweep(spec, good)
        bad = [cell((0.6, 0.2, 0.2), 5.0, 0.9), cell((0.2, 0.5, 0.3), 10.0, 0.4)]
        with pytest.raises(CheckFailure):
            check_weight_sweep(spec, bad)


class TestInterferenceSweep:
    def test_grid_rows_and_eta_zero_consistency(self, tmp_path):
        spec = tiny_spec(
            tmp_path, policies=["fixed(1)", "random(0.5)"], eta_grid=[0.0, 1.0], seeds=[1]
        )
        cells = run_interference_sweep(spec)
        assert len(cells) == 4
        by = {(c["policy"], c["eta"]): c for c in cells}
        compare_row = evaluate_policy(spec.env, FixedPolicy(1), 1, 2, "fixed(1)")
        assert abs(by[("fixed(1)", 0.0)]["quality"] - compare_row.quality) < 1e-12
        assert by[("fixed(1)", 1.0)]["quality"] <= by[("fixed(1)", 0.0)]["quality"]

    def test_check_logic(self, tmp_path):
        spec = tiny_spec(tmp_path)

        def cells(dqn_drop, fixed_drop, wiggle=0.0):
            out = []
            for eta, frac in [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]:
                out.append({"policy": "dqn", "eta": eta, "quality": 0.8 - dqn_drop * frac})
                q = 1.0 - fixed_drop * frac + (wiggle if eta == 0.5 else 0.0)
                out.append({"policy": "fixed(1)", "eta": eta, "quality": q})
            return out

        check_interference(spec, cells(0.05, 0.2))
        with pytest.raises(CheckFailure):
            check_interference(spec, cells(0.3, 0.2))  # dqn drops more
        with pytest.raises(CheckFailure):
            check_interference(spec, cells(0.05, 0.2, wiggle=0.5))  # non-monotone


class TestPlotData:
    def test_round_trip_recovers_values(self, tmp_path):
        src = tmp_path / "sweep.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["policy", "eta", "quality"])
            writer.writerow(["fixed(1)", "0.5", "0.75"])
            writer.writerow(["dqn", "1", "0.9"])
        dat = tmp_path / "sweep.dat"
        emit_plotdata(src, dat)
        lines = dat.read_text().splitlines()
        assert lines[0] == "# policy eta quality"
        parsed = [ln.split() for ln in lines[1:]]
        assert parsed == [["fixed(1)", "0.5", "0.75"], ["dqn", "1", "0.9"]]

    def test_header_only_for_empty_sweep(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("policy,eta,quality\n")
        dat = tmp_path / "empty.dat"
        emit_plotdata(src, dat)
        assert dat.read_text() == "# policy eta quality\n"

    def test_sweep_csv_round_trips(self, tmp_path):
        spec = tiny_spec(tmp_path, policies=["fixed(2)"], eta_grid=[0.0, 0.5], seeds=[1, 2])
        run_interference_sweep(spec)
        src = tmp_path / "interference_sweep.csv"
        dat = tmp_path / "interference_sweep.dat"
        emit_plotdata(src, dat)
        with open(src, newline="") as fh:
            rows = list(csv.reader(fh))
        lines = dat.read_text().splitlines()
        assert lines[0] == "# " + " ".join(rows[0])
        for csv_row, dat_line in zip(rows[1:], lines[1:]):
            assert dat_line.split() == csv_row


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG_JSON))
        return path

    def test_compare_command(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        code = cli.main(
            ["compare", "--config", str(config), "--out", str(tmp_path / "out"),
             "--seeds", "1,2", "--train", "--plotdata"]
        )
        assert code == 0
        assert (tmp_path / "out" / "compare.csv").exists()
        assert (tmp_path / "out" / "compare.dat").exists()
        assert "fixed(1)" in capsys.readouterr().out

    def test_train_command(self, tmp_path):
        config = self.write_config(tmp_path)
        code = cli.main(
            ["train", "--config", str(config), "--out", str(tmp_path / "out"), "--seeds", "7"]
        )
        assert code == 0
        assert (tmp_path / "out" / "dqn_seed7.txt").exists()

    def test_sweep_interference_command(self, tmp_path):
        config = self.write_config(tmp_path)
        code = cli.main(
            ["sweep-interference", "--config", str(config),
             "--out", str(tmp_path / "out"), "--seeds", "1"]
        )
        assert code == 0
        assert (tmp_path / "out" / "interference_sweep.csv").exists()

    def test_ingest_command(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7\n"
            "2004-03-01 00:01:00.0 1 1 21.0 40.0 100.0 2.7\n"
            "bad line\n"
        )
        code = cli.main(
            ["ingest", "--trace", str(trace), "--out", str(tmp_path / "out"), "--dump"]
        )
        assert code == 0
        assert (tmp_path / "out" / "ingest_report.csv").exists()
        assert (tmp_path / "out" / "aligned.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"env": {"epochs": 1}}))
        code = cli.main(
            ["compare", "--config", str(bad), "--out", str(tmp_path / "out"), "--train"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "raw",
        [
            {"agent": {"learning_rate": 0.01}},
            {"env": {"signal": {"period": 1}}},
            {"agent": {"batch_size": 0}},
            {"experiment": {"train_episodes": "x"}},
            {"env": {"weights": {"info": "a"}}},
            {"env": {"epochs": "abc"}},
            {"env": {"noise_beta": -1, "eta": 0.5}},
            {"experiment": {"weight_triples": [[0.4, 0.2, 0.2, 0.2], [0.6, 0.2, 0.2]]}},
            {"env": {"drop_prob": -3}},
            {"env": {"detection_window": -5}},
            {"env": {"mode": "replay", "replay": {"path": "trace.txt"}}},
            # each of these ended in a traceback or ran silently wrong
            {"agent": {"lr": -1}},
            {"agent": {"hidden": [-1]}},
            {"agent": {"eps_start": 2, "eps_min": 0.1}},
            {"agent": {"batch_size": 8.5, "warmup": 0}},
            {"agent": {"train_per_step": 1.5, "warmup": 0}},
            {"agent": {"replay_capacity": 2.5, "warmup": 0}},
            {"env": {"signal": {"n_events": 1.5}}},
            {"env": {"signal": {"min_event_epoch": 3.5}}},
            {"experiment": {"seeds": [-1]}},
            {"env": {"idle_cost": float("nan")}},
            {"env": {"battery_mj": float("inf")}, "agent": {"warmup": 10**6},
             "experiment": {"train_episodes": 1, "seeds": [1]}},
            {"env": {"detection_window": True}},
            {"env": {"mode": "replay",
                     "replay": {"path": "trace.txt", "sensors": [[1, "temperature"]],
                                "start_slot": True}}},
            {"experiment": {"seeds": [True]}},
            {"experiment": {"train_epsiodes": 1}},
            {"env": {"ranges": {"light": [0, 100]}}},
            {"env": {"ranges": [1]}},
            {"env": {"ranges": {"temperature": [1, 2, 3]}}},
            {"env": {"mode": "replay", "ranges": [1],
                     "replay": {"path": "trace.txt", "sensors": [[1, "temperature"]]}}},
            {"env": {"weights": {"infos": 1.0}}},
            {"agnet": {"lr": 0.01}},
            {"experiment": {"policies": ["fixed(1-)"]}},
            {"experiment": {"policies": ["fixed(2.5)"]}},
            {"agent": {"replay_capacity": 10}},
            {"agent": {"replay_capacity": 0}},
            {"agent": {"hard_copy_every": 5}},
            {"env": {"action_mode": "binary"}},
            {"agent": {"replay_capacity": 100_000_000_000_000}},  # 7.11 PiB: malloc fails at once
            {"agent": {"hidden": [100_000_000_000]}},  # 8 TB of first-layer weights: malloc fails at once
            {"agent": {"replay_capacity": 10**19}},  # past int64: numpy refuses the shape
            {"agent": {"hidden": [10**19]}},
            # each of these ended in a traceback or named no field
            {"env": {"ranges": {"temperature": [40, 10]}}},
            *({"env": {"mode": "replay", "replay": {"path": "trace.txt", "sensors": bad}}}
              for bad in ([[1]], [1], "x", {"1": "light"}, None)),
            {"agent": {"hidden": 5}},
            {"agent": {"hidden": None}},
            {"experiment": {"weight_triples": [1]}},
            {"experiment": {"weight_triples": 3}},
            {"experiment": {"eta_grid": 5}},
            # each of these ran out of memory, ended in a traceback or printed quality=nan
            {"env": {"epochs": 10**15}},  # a 7.11 PiB clock: malloc fails at once
            {"env": {"epochs": 10**19}},  # past int64: numpy refuses the shape
            {"env": {"signal": {"period": 10**400}}},  # an integer past the float range
            {"env": {"sensors": ["temperature"],
                     "ranges": {"temperature": [-1e308, 1e308]}}},  # high - low overflows
        ],
        ids=["unknown-agent-key", "signal-period-1", "batch-size-0", "train-episodes-str",
             "weight-str", "epochs-str", "noise-beta-negative", "four-weights",
             "drop-prob-negative", "detection-window-negative", "replay-without-sensors",
             "lr-negative", "hidden-negative", "eps-start-2", "batch-size-fraction",
             "train-per-step-fraction", "replay-capacity-fraction", "n-events-fraction",
             "min-event-epoch-fraction", "seed-negative", "idle-cost-nan", "battery-inf",
             "detection-window-true", "start-slot-true", "seed-true", "experiment-key-typo",
             "ranges-missing-kind", "ranges-list", "ranges-triple",
             "ranges-list-replay", "unknown-weights-key", "unknown-section",
             "policy-bad-number", "fixed-period-fraction", "replay-capacity-below-batch",
             "replay-capacity-0", "hard-copy-every-removed", "action-mode-removed",
             "capacity-huge", "hidden-huge", "capacity-past-int64", "hidden-past-int64",
             "ranges-inverted", "sensors-short-pair", "sensors-flat", "sensors-str", "sensors-object",
             "sensors-null", "hidden-int", "hidden-null", "triples-flat", "triples-int", "eta-grid-int",
             "epochs-huge", "epochs-past-int64", "period-huge", "ranges-span-inf"],
    )
    def test_bad_config_is_one_line_exit_1(self, tmp_path, capsys, request, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        if "ranges" in raw.get("env", {}):
            assert "ranges" in err
        prefix = request.node.callspec.id.split("-")[0]
        field = {"sensors": "sensors", "hidden": "hidden", "triples": "weight_triples",
                 "four": "weight_triples", "eta": "eta_grid",
                 "capacity": "replay_capacity", "epochs": "epochs", "period": "period",
                 "ranges": "ranges", "action": "action_mode"}.get(prefix)
        assert field is None or field in err, (field, err)

    def test_negative_seed_argument_is_one_line_exit_1(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["train", "--config", str(config), "--out", str(out), "--seeds", "-3"])
        assert code == 1
        assert capsys.readouterr().err == "configuration error: seeds must be a list of integers >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, message",
        [({"train_episodes": -5}, "bad episode counts"), ({"seeds": []}, "need at least one seed"),
         ({"seeds": [1, 1]}, "seeds must be distinct")],
        ids=["negative-episodes", "no-seeds", "duplicate-seeds"],
    )
    def test_train_validates_spec_first(self, tmp_path, capsys, experiment, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG_JSON, experiment=experiment)))
        out = tmp_path / "out"
        code = cli.main(["train", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, env, code",
        [("train", {"epochs": 10**15}, 1),
         ("compare", {"epochs": 8, "mode": "replay",
                      "replay": {"path": "no-such-trace.txt", "sensors": [[1, "temperature"]]}}, 2)],
        ids=["epochs-too-many", "replay-trace-missing"],
    )
    def test_failed_inputs_leave_no_output_directory(self, tmp_path, capsys, command, env, code):
        """A run whose episode inputs cannot be built creates nothing."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"env": env, "experiment": {"policies": ["fixed(1)"]}}))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "sweep-interference"])
    def test_no_policies_is_one_line_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG_JSON, experiment={"policies": []})))
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "configuration error: need at least one policy\n"
        assert not out.exists()

    def test_ingest_undecodable_byte_is_a_skip(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_bytes(
            b"2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7\n"
            b"2004-03-01 00:01:00.0 1 1 \xff21.0 40.0 100.0 2.7\n"
        )
        code = cli.main(["ingest", "--trace", str(trace), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "kept 1, skipped 1" in capsys.readouterr().out
        report = (tmp_path / "out" / "ingest_report.csv").read_bytes()
        assert report == b"reason,count\r\nkept,1\r\nunparseable_value,1\r\n"

    @pytest.mark.parametrize("delta_t", ["0", "nan", "-60", "inf"])
    def test_ingest_bad_delta_t_is_one_line_exit_1(self, tmp_path, capsys, delta_t):
        trace = tmp_path / "trace.txt"
        trace.write_text("2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7\n")
        out = tmp_path / "out"
        code = cli.main(["ingest", "--trace", str(trace), "--out", str(out),
                         f"--delta-t={delta_t}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: delta_t must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("delta_t", ["1e-300", "5e-324", "1e-12"])
    def test_ingest_tiny_delta_t_is_one_line_exit_1(self, tmp_path, capsys, delta_t):
        """Far too many slots for the grid: rejected before anything is
        allocated, never a traceback."""
        out = tmp_path / "out"
        code = cli.main(["ingest", "--trace", str(self.three_line_trace(tmp_path)),
                         "--out", str(out), f"--delta-t={delta_t}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"configuration error: delta_t {float(delta_t)!r} needs ")
        assert err.endswith(f" > {ingest.MAX_GRID_CELLS} cells\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("delta_t", [1e-300, 5e-324, 1e-12])
    def test_replay_tiny_delta_t_is_one_line_exit_1(self, tmp_path, capsys, delta_t):
        replay = {"path": str(self.three_line_trace(tmp_path)), "sensors": [[1, "temperature"]],
                  "delta_t": delta_t}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"env": {"epochs": 2, "mode": "replay", "replay": replay},
                                    "experiment": {"policies": ["fixed(1)"]}}))
        code = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"configuration error: delta_t {delta_t!r} needs ")
        assert err.count("\n") == 1

    @staticmethod
    def three_line_trace(tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7\n"
                         "2004-03-01 00:01:00.0 1 1 21.0 40.0 100.0 2.7\n"
                         "2004-03-01 00:02:00.0 2 2 22.0 40.0 100.0 2.7\n")
        return trace

    @pytest.mark.parametrize("delta_t", [0, -60, "NaN"])
    def test_replay_bad_delta_t_is_one_line_exit_1(self, tmp_path, capsys, delta_t):
        trace = tmp_path / "trace.txt"
        trace.write_text("2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7\n")
        replay = {"path": str(trace), "sensors": [[1, "temperature"]], "delta_t": delta_t}
        raw = {"env": {"epochs": 12, "mode": "replay", "replay": replay},
               "experiment": {"policies": ["fixed(1)"], "eval_episodes": 2}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "configuration error: replay delta_t must be a finite number > 0\n"
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"start_slot": -5}, "replay start_slot must be an integer >= 0"),
            ({"start_slot": 2.5}, "replay start_slot must be an integer >= 0"),
            ({"start_slot": True}, "replay start_slot must be an integer >= 0"),
            ({"start_slot": 4, "end_slot": 4}, "replay end_slot must be null or an integer > start_slot"),
            ({"end_slot": 9.5}, "replay end_slot must be null or an integer > start_slot"),
            ({"min_presence": -1}, "replay min_presence must be a number in [0, 1]"),
            ({"min_presence": 1.5}, "replay min_presence must be a number in [0, 1]"),
            ({"min_presence": float("nan")}, "replay min_presence must be a number in [0, 1]"),
        ],
        ids=["start-negative", "start-fraction", "start-true", "end-not-after-start", "end-fraction",
             "presence-negative", "presence-above-1", "presence-nan"],
    )
    def test_replay_bad_slots_are_one_line_exit_1(self, tmp_path, capsys, fields, message):
        trace = tmp_path / "trace.txt"
        trace.write_text("2004-03-01 00:00:00.0 0 1 20.0 40.0 100.0 2.7\n")
        replay = dict({"path": str(trace), "sensors": [[1, "temperature"]]}, **fields)
        raw = {"env": {"epochs": 8, "mode": "replay", "replay": replay},
               "experiment": {"policies": ["fixed(1)"], "eval_episodes": 2}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_replay_end_slot_past_trace_end(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "".join(f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + i % 9}.0 40.0 100.0 2.7\n"
                    for i in range(10))
        )
        replay = {"path": str(trace), "sensors": [[1, "temperature"]], "end_slot": 16}
        raw = {"env": {"epochs": 8, "mode": "replay", "replay": replay},
               "experiment": {"policies": ["fixed(1)"], "eval_episodes": 2}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = cli.main(
            ["compare", "--config", str(path), "--out", str(tmp_path / "out"), "--seeds", "1,2"]
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["compare", "sweep-interference"])
    def test_bad_policy_fails_before_training(self, tmp_path, capsys, command):
        # padded strings once passed validation, ran, and failed only at --plotdata;
        # a non-ASCII digit ran as a second spelling of the same policy
        for bad in ["bogus(1)", " fixed(1)", "random(0.5) ", "fixed(1)\n", "fixed(\u0661)"]:
            path = tmp_path / "config.json"
            raw = dict(CONFIG_JSON)
            raw["experiment"] = dict(raw["experiment"], policies=["dqn", bad])
            path.write_text(json.dumps(raw))
            argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--plotdata"]
            code = cli.main(argv + (["--train"] if command == "compare" else []))
            err = capsys.readouterr().err
            assert code == 1
            assert err == f"configuration error: cannot parse policy {bad!r}\n"
            assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("dqn_seed*.txt"))

    @pytest.mark.filterwarnings("error")  # overflow warnings would print more lines
    def test_divergence_is_one_line_exit_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        raw = dict(CONFIG_JSON, agent={"lr": 1e150, "warmup": 64})
        raw["experiment"] = dict(raw["experiment"], train_episodes=30)
        path.write_text(json.dumps(raw))
        code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out"), "--seeds", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.match(
            r"configuration error: training diverged at seed 3, episode \d+, train step \d+: ", err
        )

    @pytest.mark.parametrize("damage", ["truncated", "wrong-tag", "wrong-shape"])
    def test_bad_checkpoint_is_one_line_exit_1(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "net.txt"
        if damage == "wrong-shape":
            nn.save_network(nn.init_network([3, 2], np.random.default_rng(1)), ckpt)
        else:
            nn.save_network(nn.init_network([10, 8, 2], np.random.default_rng(1)), ckpt)
            lines = ckpt.read_text().splitlines()
            if damage == "truncated":
                lines = lines[:5]
            else:
                lines[0] = "sensorq-net 2"
            ckpt.write_text("\n".join(lines) + "\n")
        path = tmp_path / "config.json"
        raw = dict(CONFIG_JSON)
        raw["experiment"] = dict(raw["experiment"], policies=["dqn"])
        path.write_text(json.dumps(raw))
        code = cli.main(
            ["compare", "--config", str(path), "--out", str(tmp_path / "out"),
             "--checkpoint", str(ckpt)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"configuration error: checkpoint {ckpt}: ") and err.count("\n") == 1

    def test_plotdata_only_on_experiments(self, tmp_path):
        config = self.write_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["train", "--config", str(config), "--out", str(tmp_path), "--plotdata"])

    def test_io_error_exit_code(self, tmp_path):
        code = cli.main(
            ["ingest", "--trace", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_check_failure_exit_code(self, tmp_path):
        config = self.write_config(tmp_path)  # policies lack dqn -> check must fail
        code = cli.main(
            ["compare", "--config", str(config), "--out", str(tmp_path / "out"),
             "--seeds", "1", "--train", "--check"]
        )
        assert code == 3

    def test_missing_checkpoint_exit_code(self, tmp_path):
        path = tmp_path / "config.json"
        raw = dict(CONFIG_JSON)
        raw["experiment"] = dict(raw["experiment"], policies=["dqn"])
        path.write_text(json.dumps(raw))
        code = cli.main(
            ["compare", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 1

    def test_mode_override_without_replay_section(self, tmp_path):
        config = self.write_config(tmp_path)
        code = cli.main(
            ["compare", "--config", str(config), "--out", str(tmp_path / "out"),
             "--mode", "replay", "--train"]
        )
        assert code == 1

    def test_fixed_on_noiseless_replay_scores_perfect(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "".join(
                f"2004-03-01 00:{i:02d}:00.0 {i} 1 {20 + i % 9}.0 40.0 100.0 2.7\n"
                for i in range(12)
            )
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "env": {
                        "epochs": 12,
                        "mode": "replay",
                        "eta": 0.0,
                        "replay": {"path": str(trace), "sensors": [[1, "temperature"]]},
                    },
                    "experiment": {"policies": ["fixed(1)"], "eval_episodes": 2},
                }
            )
        )
        out = tmp_path / "out"
        code = cli.main(
            ["compare", "--config", str(config), "--out", str(out), "--seeds", "1"]
        )
        assert code == 0
        with open(out / "compare.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        record = dict(zip(header, row))
        assert float(record["data_quality"]) == 1.0
        assert abs(float(record["energy_mj"]) - 12 * 1.0) < 1e-9


FUZZ_BASE = {
    "env": {"sensors": ["temperature"], "epochs": 10, "weights": {}, "signal": {},
            "replay": {"path": "trace.txt", "sensors": [[1, "temperature"]]}},
    "agent": {"batch_size": 4, "warmup": 4, "replay_capacity": 16, "hidden": [4]},
    "experiment": {"seeds": [1], "train_episodes": 1, "eval_episodes": 1},
}
FUZZ_FIELDS = (
    [("env", f.name) for f in fields(EnvConfig)]
    + [("env.weights", f.name) for f in fields(RewardWeights)]
    + [("env.signal", f.name) for f in fields(SignalParams)]
    + [("env.replay", f.name) for f in fields(ReplayConfig)]
    + [("agent", f.name) for f in fields(AgentHyperParams)]
    + [("experiment", key) for key in EXPERIMENT_KEYS]
)
# the last three reach the config reader's tuple, list and dict branches with the wrong shape
FUZZ_VALUES = [True, False, None, float("nan"), float("inf"), float("-inf"), -1, 0, 2.5, "x", [], {},
               [1, 2, 3], [[1, 2]], {"x": [1]}]


@settings(max_examples=len(FUZZ_FIELDS) * len(FUZZ_VALUES))  # about every pair
@given(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES))
def test_fuzzed_config_exits_with_a_code_and_at_most_one_line(field, value):
    """One field of the tiny base config replaced by a hostile value: the run
    ends in a documented exit code, never a traceback, and a run that exits 0
    leaves a manifest whose config reads back to itself. The replay section
    is validated but never read, since the base mode stays synthetic."""
    raw = json.loads(json.dumps(FUZZ_BASE))
    section = raw
    for name in field[0].split("."):
        section = section[name]
    section[field[1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["train", "--config", str(path), "--out", str(Path(tmp) / "out")])
        if code == 0:  # the manifest is a config that reads back to itself
            manifest = json.loads((Path(tmp) / "out" / "manifest.json").read_text())
            back = spec_from_file(Path(tmp) / "out" / "manifest.json", tmp)
            assert json.loads(json.dumps(resolved_config(back))) == manifest["config"]
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
