"""Golden outputs: the sha256 of every file the program writes for a small
fixed spec.

`test_11_manifest_determinism` only shows that a rerun from a manifest
agrees with its run in one process; these hashes also catch a change that
moves a number for good. They hold for one numpy build and BLAS (float64
matmul results may differ in the last bit elsewhere), so the test skips on
any other. Each manifest.json holds the resolved config and names the
version and that build, so its hash moves with any of them, a config
default included.

All paths handed to the program are relative to the run directory, since
the replay trace path and the checkpoint path are written into the
manifest.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sensorq import cli, nn
from sensorq.baselines import GreedyQPolicy, ThresholdPolicy
from sensorq.env import EnvConfig, SensorEnv, config_from_dict
from sensorq.experiments import numpy_build, run_episode

PINNED_ON = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

GOLDEN = {
    "compare/compare.csv": "af76eccf6d1923318bc4ce72e94e0470514896175b15929f57aad07cc346f07e",
    "compare/compare.dat": "2c6c17f8c7e53baed92a62effd01756c7f97036fec36f73c09bd431b99c67108",
    "compare/curve_seed1.csv": "7f9763452bc00aaaa3a4b69609f97c64055b4712220228f5995204511833c67b",
    "compare/curve_seed2.csv": "0d2e985e46d0eecc95624a32c6174a8321d77bb865b5ce950ce7a8481f4d6de4",
    "compare/dqn_seed1.txt": "fd9b90f10da8fe4a23c389a0f241f00bf346bbeac5581d0aec9ebb8c0258df11",
    "compare/dqn_seed2.txt": "a8c60c5378876035238872020f61c774e64d8749af7c23cb5b5b108bece55ff0",
    "compare/manifest.json": "c69f1c7d8ffa87801ace536b626e06ae8e7348986988ea180e2e55bfe377b30e",
    "reuse/compare.csv": "dca8093e21c37a9618f2cf581e318af05e9d5ab37590782adc011af581dbd958",
    "reuse/manifest.json": "608f61701debe017718f1a09741dc5ea6a7fef365506a30d0774ebe0c1f0cbe9",
    "sweep/curve_seed1.csv": "7f9763452bc00aaaa3a4b69609f97c64055b4712220228f5995204511833c67b",
    "sweep/curve_seed2.csv": "0d2e985e46d0eecc95624a32c6174a8321d77bb865b5ce950ce7a8481f4d6de4",
    "sweep/dqn_seed1.txt": "fd9b90f10da8fe4a23c389a0f241f00bf346bbeac5581d0aec9ebb8c0258df11",
    "sweep/dqn_seed2.txt": "a8c60c5378876035238872020f61c774e64d8749af7c23cb5b5b108bece55ff0",
    "sweep/interference_sweep.csv": "22454f57e425c061f9fd5e430dd92e2e5c1536b404361e906c34d9034d1dac93",
    "sweep/interference_sweep.dat": "926c3516271312624e3d266736a861ae7a841bf0d14212783b05a93fc38e066b",
    "sweep/manifest.json": "e4f1983c69ea7cc29dbbdd854e5a95c2c45615c8ded3593772063da241e23a1b",
    "weights/manifest.json": "006ee849dc8620f78e0931bf797f04e0524da3fb4af9ab60c8363ffed469dc5c",
    "weights/weight_sweep.csv": "9c1a401e0eecf96448d79154c8caf3bfa00203414eaefa7d45c4ce1286ec2c90",
    "weights/weight_sweep.dat": "c2dea73ec0bc979fe2466001ae4c4a365bd3efa2ec8208cff4e8a996a9d06e32",
    "train/curve_seed1.csv": "7f9763452bc00aaaa3a4b69609f97c64055b4712220228f5995204511833c67b",
    "train/curve_seed2.csv": "0d2e985e46d0eecc95624a32c6174a8321d77bb865b5ce950ce7a8481f4d6de4",
    "train/dqn_seed1.txt": "fd9b90f10da8fe4a23c389a0f241f00bf346bbeac5581d0aec9ebb8c0258df11",
    "train/dqn_seed2.txt": "a8c60c5378876035238872020f61c774e64d8749af7c23cb5b5b108bece55ff0",
    "train/manifest.json": "b59ef05f6896e8b12c45a6f7763d18489ccd016297b76c67c2c5f15fef4394ac",
    "ingest/aligned.csv": "76e7d189fbfd2f364c55fe68e74333a578d3b848c89ff71a3281199f31924e77",
    "ingest/ingest_report.csv": "37914e9c72276b959ba213202b4e430a7bc6793e0e11aa30ae455c3fe7a13168",
    "replay/compare.csv": "83924283448191691ff59e78cd3165d482ea3fd539d18737ca586aa676c2acfa",
    "replay/manifest.json": "a612ddcf247911d01f0d55192900ae78bbfc83fba3a565d366c95942fcfd4189",
    "episode/episode.csv": "7384112ed7091e601ca287e0a76459a604f64e99677c45aa72869f1f7627a37c",
    "interval/curve_seed1.csv": "a9660d7426b1d962e6f0aada38e9033de6af52859acc74c85a5e19cc1400aace",
    "interval/dqn_seed1.txt": "62ca3f52962ab786f8bdc1c01fde1ebaf2144e34a828d0911a052b7635a8b226",
    "interval/episode.csv": "2cdfd49c90b6ba3c67c1c89e5e15cdc0fb24eb1b576a7108573f053e8b02d6ae",
    "interval/manifest.json": "9c10db426ff11b6d50930c72119eaf3bafeb2eb8ce35983291ca81d3761c41e6",
    # everything the commands above print, in order
    "stdout": "728ce28d94e22347cd65c7995764c9996c4bfa49551a82408e6c587248ea979d",
}


SYNTHETIC = {
    "env": {"sensors": ["temperature", "light"], "epochs": 30},
    "agent": {"batch_size": 16, "warmup": 32, "hidden": [16, 16]},
    "experiment": {
        "policies": ["fixed(1)", "random(0.25)", "threshold(0.15)", "dqn"],
        "train_episodes": 8,
        "eval_episodes": 3,
        "eta_grid": [0.0, 0.5, 1.0],
    },
}

# Interval mode: a pending transition spans the epochs a sensor sleeps,
# and the small battery leaves sensors idle (empty) for part of the episode.
INTERVAL = {
    "env": {"sensors": ["temperature", "light"], "epochs": 30, "battery_mj": 12,
            "action_mode": "interval"},
    "agent": SYNTHETIC["agent"],
    "experiment": {"train_episodes": 6},
}

EPOCHS = 30  # replay episode length in slots
WINDOWS = 5
THIN = 1  # this window keeps one slot in four and fails min_presence


def _trace_lines() -> list[str]:
    """Two motes on 60 s slots, sub-slot offsets, one thinned window and
    one bad line of each skip reason."""
    lines = []
    for slot in range(WINDOWS * EPOCHS):
        if slot // EPOCHS == THIN and slot % 4:
            continue
        for mote in (1, 2):
            sec = 60 * slot + (0 if slot == 0 else 7 * mote + slot % 13)
            clock = f"{sec // 3600:02d}:{sec // 60 % 60:02d}:{sec % 60:02d}"
            if slot % 3:
                clock += f".{(slot * 37 + mote) % 1000:03d}"
            temp = 20.0 + 3.0 * np.sin(slot / 6.0) + (4.0 if slot >= 85 else 0.0) + mote
            hum = 40.0 - 5.0 * np.cos(slot / 9.0) + 0.1 * (slot % 5)
            light = 300.0 + 200.0 * np.sin(slot / 11.0) + (450.0 if slot >= 145 else 0.0)
            volt = 2.7 - 0.001 * slot
            lines.append(f"2004-03-01 {clock} {slot} {mote} {temp:.4f} {hum:.4f} "
                         f"{light:.4f} {volt:.4f}")
    lines.insert(5, "2004-03-01 00:03:00 3 1 20.0 40.0")
    lines.insert(9, "2004-03-01 00:04:00 4 1 20.0 forty 100.0 2.7")
    lines.insert(14, "2004-03-01 00:05:00 5 2 20.0 40.0 -3.0 2.7")
    return lines


def _hashes(out: Path) -> dict:
    return {
        p.relative_to(out.parent).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _run(argv: list[str]) -> None:
    assert cli.main(argv) == 0, argv


def test_golden_outputs(tmp_path, monkeypatch, capsys):
    if numpy_build() != PINNED_ON:
        pytest.skip(f"hashes pinned on {PINNED_ON}, this build is {numpy_build()}")
    monkeypatch.chdir(tmp_path)
    Path("synthetic.json").write_text(json.dumps(SYNTHETIC))
    Path("trace.txt").write_text("\n".join(_trace_lines()) + "\n")
    Path("replay.json").write_text(json.dumps({
        "env": {"mode": "replay", "epochs": EPOCHS,
                "replay": {"path": "trace.txt", "sensors": [[1, "temperature"], [2, "light"]]}},
        "experiment": {"policies": ["fixed(2)", "random(0.5)", "threshold(0.1)"],
                       "eval_episodes": 3},
    }))

    _run(["compare", "--config", "synthetic.json", "--out", "compare", "--seeds", "1,2",
          "--train", "--plotdata"])
    _run(["compare", "--config", "synthetic.json", "--out", "reuse", "--seeds", "1,2",
          "--checkpoint", "compare/dqn_seed1.txt"])
    _run(["sweep-interference", "--config", "synthetic.json", "--out", "sweep",
          "--seeds", "1,2", "--plotdata"])
    _run(["sweep-weights", "--config", "synthetic.json", "--out", "weights",
          "--seeds", "1,2", "--plotdata"])
    _run(["train", "--config", "synthetic.json", "--out", "train", "--seeds", "1,2"])
    _run(["ingest", "--trace", "trace.txt", "--out", "ingest", "--dump"])
    _run(["compare", "--config", "replay.json", "--out", "replay", "--seeds", "1,2,3"])

    Path("interval.json").write_text(json.dumps(INTERVAL))
    _run(["train", "--config", "interval.json", "--out", "interval", "--seeds", "1"])
    env = SensorEnv(config_from_dict(INTERVAL["env"]))
    run_episode(env, GreedyQPolicy(nn.load_network("interval/dqn_seed1.txt")), 5)
    env.write_episode_csv(Path("interval") / "episode.csv")

    env = SensorEnv(EnvConfig(epochs=25, eta=0.4))
    run_episode(env, ThresholdPolicy(0.1, horizon=25), 5)
    Path("episode").mkdir()
    env.write_episode_csv(Path("episode") / "episode.csv")

    got = {}
    for out in ("compare", "reuse", "sweep", "weights", "train", "ingest", "replay", "episode",
                "interval"):
        got.update(_hashes(tmp_path / out))
    got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN
