"""Golden outputs: the sha256 of every file the program writes for a small
fixed spec.

`test_11_manifest_determinism` only shows that two runs in one process
agree; these hashes also catch a change that moves a number for good. They
hold for one numpy build and BLAS (float64 matmul results may differ in the
last bit elsewhere), so the test skips on any other build.

All paths handed to the program are relative to the run directory, since
the replay trace path and the checkpoint path enter the manifest hash.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sensorq import cli
from sensorq.baselines import ThresholdPolicy
from sensorq.env import EnvConfig, SensorEnv
from sensorq.experiments import run_episode

PINNED_ON = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

GOLDEN = {
    "compare/compare.csv": "af76eccf6d1923318bc4ce72e94e0470514896175b15929f57aad07cc346f07e",
    "compare/compare.dat": "2c6c17f8c7e53baed92a62effd01756c7f97036fec36f73c09bd431b99c67108",
    "compare/curve_seed1.csv": "7f9763452bc00aaaa3a4b69609f97c64055b4712220228f5995204511833c67b",
    "compare/curve_seed2.csv": "0d2e985e46d0eecc95624a32c6174a8321d77bb865b5ce950ce7a8481f4d6de4",
    "compare/dqn_seed1.txt": "fd9b90f10da8fe4a23c389a0f241f00bf346bbeac5581d0aec9ebb8c0258df11",
    "compare/dqn_seed2.txt": "a8c60c5378876035238872020f61c774e64d8749af7c23cb5b5b108bece55ff0",
    "compare/manifest.json": "03ff52522575ca2c6dba8ee8e3c98e1fe72437ee739a61af70622a72d61fb8ac",
    "reuse/compare.csv": "dca8093e21c37a9618f2cf581e318af05e9d5ab37590782adc011af581dbd958",
    "reuse/manifest.json": "dd92ba5c272518cb3fbcf896dc8f8805ef022216da3d3fac0e8e7343a5883d61",
    "sweep/curve_seed1.csv": "7f9763452bc00aaaa3a4b69609f97c64055b4712220228f5995204511833c67b",
    "sweep/curve_seed2.csv": "0d2e985e46d0eecc95624a32c6174a8321d77bb865b5ce950ce7a8481f4d6de4",
    "sweep/dqn_seed1.txt": "fd9b90f10da8fe4a23c389a0f241f00bf346bbeac5581d0aec9ebb8c0258df11",
    "sweep/dqn_seed2.txt": "a8c60c5378876035238872020f61c774e64d8749af7c23cb5b5b108bece55ff0",
    "sweep/interference_sweep.csv": "22454f57e425c061f9fd5e430dd92e2e5c1536b404361e906c34d9034d1dac93",
    "sweep/interference_sweep.dat": "926c3516271312624e3d266736a861ae7a841bf0d14212783b05a93fc38e066b",
    "sweep/manifest.json": "49ff4b3de73b38d36379ca216e6a872947dd6e42064115524af4886c94093c28",
    "ingest/aligned.csv": "76e7d189fbfd2f364c55fe68e74333a578d3b848c89ff71a3281199f31924e77",
    "ingest/ingest_report.csv": "37914e9c72276b959ba213202b4e430a7bc6793e0e11aa30ae455c3fe7a13168",
    "replay/compare.csv": "83924283448191691ff59e78cd3165d482ea3fd539d18737ca586aa676c2acfa",
    "replay/manifest.json": "8cc37a548e62fe2035eefe3658599c5d565c6d512a3e51aeee9f34aaf771e97b",
    "episode/episode.csv": "7384112ed7091e601ca287e0a76459a604f64e99677c45aa72869f1f7627a37c",
}


def _build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except Exception:  # numpy too old to report its build as a dict
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


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


def test_golden_outputs(tmp_path, monkeypatch):
    if _build() != PINNED_ON:
        pytest.skip(f"hashes pinned on {PINNED_ON}, this build is {_build()}")
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
    _run(["ingest", "--trace", "trace.txt", "--out", "ingest", "--dump"])
    _run(["compare", "--config", "replay.json", "--out", "replay", "--seeds", "1,2,3"])

    env = SensorEnv(EnvConfig(epochs=25, eta=0.4))
    run_episode(env, ThresholdPolicy(0.1, horizon=25), 5)
    Path("episode").mkdir()
    env.write_episode_csv(Path("episode") / "episode.csv")

    got = {}
    for out in ("compare", "reuse", "sweep", "ingest", "replay", "episode"):
        got.update(_hashes(tmp_path / out))
    assert got == GOLDEN
