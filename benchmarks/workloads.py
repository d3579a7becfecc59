"""The three benchmark workloads: seeded inputs, one timed unit, output checks.

A workload makes its inputs (config files, a trace, a snapshot) from the
workload seed, sets the program up from those files, and then runs one
fixed unit of work per repetition. Every unit of one run does the same
work with the same seed, so its output files must hash the same each time.

All calls go through module attributes (`experiments.train_dqn`, not a
name bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from sensorq import agent, baselines, experiments, ingest, nn
from sensorq.env import EnvConfig

BASELINES = ["fixed(1)", "random(0.25)", "threshold(0.15)"]

TRAIN_UNIT_EPISODES = 20
SNAPSHOT_EPISODES = 10
SWEEP_EVAL_EPISODES = 10
SWEEP_ETA_GRID = [0.0, 0.5, 1.0]  # fixed, so the amount of work does not depend on the seed
# five episodes per evaluation: the first of each re-reads the trace, so one
# episode in five (above the 10% tail) carries a trace read and sets the p90
REPLAY_EVAL_EPISODES = 5
REPLAY_MOTES = [(1, "temperature"), (2, "humidity"), (3, "light"), (4, "voltage")]
REPLAY_WINDOWS = 10  # episode windows of EnvConfig().epochs slots each
REPLAY_GAPPED = 3  # windows thinned below min_presence
TRACE_START = datetime(2004, 3, 1)  # no daylight-saving switch within two days


class Checks:
    """Counts output checks; failed labels are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def in_range(self, value, lo, hi, label: str) -> None:
        self.expect(math.isfinite(value) and lo <= value <= hi, f"{label}={value!r} outside [{lo}, {hi}]")


def digest(out_dir: Path) -> str:
    """sha256 over (name, bytes) of every output file, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _write_config(path: Path, raw: dict) -> None:
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class Workload:
    """Base: `work` holds inputs and outputs; paths stay relative to the
    checkout root so manifests hash the same in every checkout."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = self.inputs / "config.json"

    def load_spec(self):
        return experiments.spec_from_file(self.config, self.out)

    def clear_out(self) -> None:
        for path in self.out.iterdir():
            path.unlink()


class Train(Workload):
    name = "train"

    def make_inputs(self) -> None:
        _write_config(self.config, {
            "env": {}, "agent": {},
            "experiment": {"seeds": [self.seed], "train_episodes": TRAIN_UNIT_EPISODES},
        })

    def setup(self) -> None:
        self.spec = self.load_spec()
        experiments.train_dqn(self.spec.env, self.spec.hypers, 1, self.seed)

    def unit(self):
        spec = self.spec
        result = experiments.train_dqn(spec.env, spec.hypers, spec.train_episodes, self.seed)
        nn.save_network(result.params, self.out / f"dqn_seed{self.seed}.txt")
        agent.write_curve_csv(result, self.out / f"curve_seed{self.seed}.csv")
        return result

    def check(self, result, checks: Checks) -> None:
        hp = self.spec.hypers
        curve = result.curve
        checks.expect(len(curve) == self.spec.train_episodes, "curve length")
        checks.expect(all(math.isfinite(r) and math.isfinite(l) for _, r, l, _ in curve),
                      "curve returns and losses finite")
        eps = [e for *_, e in curve]
        checks.expect(all(hp.eps_min <= e <= hp.eps_start for e in eps), "epsilon within bounds")
        checks.expect(all(b <= a for a, b in zip(eps, eps[1:])), "epsilon non-increasing")
        back = nn.load_network(self.out / f"dqn_seed{self.seed}.txt")
        checks.expect(
            all(np.array_equal(w, w2) and np.array_equal(b, b2)
                for (w, b), (w2, b2) in zip(result.params.layers, back.layers)),
            "snapshot round trip exact",
        )
        rows = _rows(self.out / f"curve_seed{self.seed}.csv")
        checks.expect(len(rows) == len(curve) + 1, "curve csv rows")


class EvalSweep(Workload):
    name = "eval_sweep"

    def make_inputs(self) -> None:
        snapshot = self.inputs / "dqn_snapshot.txt"
        trained = experiments.train_dqn(EnvConfig(), agent.AgentHyperParams(), SNAPSHOT_EPISODES, self.seed)
        nn.save_network(trained.params, snapshot)
        _write_config(self.config, {
            "env": {},
            "experiment": {"seeds": [self.seed], "policies": BASELINES + ["dqn"],
                           "eta_grid": SWEEP_ETA_GRID, "eval_episodes": SWEEP_EVAL_EPISODES},
        })
        self.snapshot = snapshot

    def setup(self) -> None:
        self.spec = self.load_spec()
        self.spec.checkpoint = self.snapshot.as_posix()
        params = nn.load_network(self.spec.checkpoint)
        experiments.evaluate_policy(self.spec.env, baselines.GreedyQPolicy(params), self.seed, 1, "dqn")

    def unit(self):
        return experiments.run_interference_sweep(self.spec)

    def check(self, cells, checks: Checks) -> None:
        spec = self.spec
        checks.expect(len(cells) == len(spec.policies) * len(spec.eta_grid), "sweep cell count")
        checks.expect({c["eta"] for c in cells} == set(spec.eta_grid), "sweep eta grid")
        for c in cells:
            label = f"{c['policy']} eta={c['eta']}"
            checks.in_range(c["quality"], 0.0, 1.0, f"{label} quality")
            checks.in_range(c["quality_std"], 0.0, math.inf, f"{label} quality_std")
        rows = _rows(self.out / "interference_sweep.csv")
        checks.expect(len(rows) == len(cells) + 1, "sweep csv rows")
        manifest = json.loads((self.out / "manifest.json").read_text())
        checks.expect(manifest.get("experiment") == "interference-sweep", "manifest kind")


class Replay(Workload):
    name = "replay"

    def make_inputs(self) -> None:
        self.trace = self.inputs / "trace.txt"
        self.load_s: list[float] = []  # explicit load_trace time per unit
        self.planted = write_trace(self.trace, self.seed)
        _write_config(self.config, {
            "env": {"mode": "replay",
                    "replay": {"path": self.trace.as_posix(), "delta_t": 60.0, "min_presence": 0.5,
                               "sensors": [[m, k] for m, k in REPLAY_MOTES]}},
            "experiment": {"seeds": [self.seed], "policies": BASELINES,
                           "eval_episodes": REPLAY_EVAL_EPISODES},
        })

    def setup(self) -> None:
        self.spec = self.load_spec()
        ingest.load_trace(self.trace, delta_t=self.spec.env.replay.delta_t)

    def unit(self):
        t0 = time.perf_counter()
        _, report = ingest.load_trace(self.trace, delta_t=self.spec.env.replay.delta_t)
        self.load_s.append(time.perf_counter() - t0)
        ingest.write_report_csv(report, self.out / "ingest_report.csv")
        return report, experiments.run_compare(self.spec)

    def check(self, result, checks: Checks) -> None:
        report, reports = result
        planted = self.planted
        checks.expect(report.total == planted["total"], "ingest total")
        checks.expect(report.kept == planted["kept"], "ingest kept")
        for reason in (ingest.R_FIELDS, ingest.R_NUMBER, ingest.R_RANGE):
            checks.expect(report.skipped.get(reason, 0) == planted[reason], f"ingest skipped {reason}")
        checks.expect(report.total_skipped == planted["total"] - planted["kept"], "ingest skipped total")
        rows = {r[0]: r[1] for r in _rows(self.out / "ingest_report.csv")[1:]}
        checks.expect(rows.get("kept") == str(planted["kept"]), "ingest report csv kept")
        checks.expect([r.policy for r in reports] == BASELINES, "compare policies")
        for r in reports:
            checks.in_range(r.quality, 0.0, 1.0, f"{r.policy} quality")
            checks.in_range(r.energy_mj, 0.0, math.inf, f"{r.policy} energy")
            checks.in_range(r.redundancy_pct, 0.0, 100.0, f"{r.policy} redundancy")
            checks.in_range(r.detection_pct, 0.0, 100.0, f"{r.policy} detection")
            for name in ("quality_std", "energy_std", "redundancy_std", "detection_std"):
                checks.in_range(getattr(r, name), 0.0, math.inf, f"{r.policy} {name}")
        checks.expect(len(_rows(self.out / "compare.csv")) == len(reports) + 1, "compare csv rows")


WORKLOADS = {w.name: w for w in (Train, EvalSweep, Replay)}


def write_trace(path: Path, seed: int) -> dict:
    """Write a synthetic trace in the 8-field mote layout; return planted counts.

    One reading per (slot, mote) of 60 s slots, with random sub-slot
    offsets (the first reading sits exactly on the grid origin, so slots
    are exact). REPLAY_GAPPED of the windows keep only 30% of readings and
    so fail min_presence; bad lines of each skip reason are scattered in.
    """
    rng = np.random.default_rng([seed, 3])
    epochs = EnvConfig().epochs
    n_slots = REPLAY_WINDOWS * epochs
    gapped = set(rng.choice(REPLAY_WINDOWS, size=REPLAY_GAPPED, replace=False).tolist())
    good: list[list[str]] = []
    counters = {m: 0 for m, _ in REPLAY_MOTES}
    series = {m: _mote_channels(rng, n_slots) for m, _ in REPLAY_MOTES}
    for slot in range(n_slots):
        keep_p = 0.3 if slot // epochs in gapped else 0.95
        for mote, _ in REPLAY_MOTES:
            first = slot == 0 and mote == REPLAY_MOTES[0][0]
            if not first and rng.random() >= keep_p:
                continue
            offset_us = 0 if first else int(rng.integers(1_000_000, 59_000_000))
            stamp = TRACE_START + timedelta(seconds=60 * slot, microseconds=offset_us)
            values = series[mote][:, slot]
            counters[mote] += 1
            good.append([stamp.strftime("%Y-%m-%d"), stamp.strftime("%H:%M:%S.%f"),
                         str(counters[mote]), str(mote), *(f"{v:.4f}" for v in values)])

    planted = {reason: int(rng.integers(20, 40))
               for reason in (ingest.R_FIELDS, ingest.R_NUMBER, ingest.R_RANGE)}
    bad = []
    for reason, count in planted.items():
        for _ in range(count):
            fields = list(good[int(rng.integers(1, len(good)))])
            bad.append(" ".join(_spoil(fields, reason, int(rng.integers(0, 4)))))
    lines = [" ".join(f) for f in good]
    # insert after the first line so the grid origin stays the first reading
    for text, pos in zip(bad, rng.integers(1, len(lines), size=len(bad))):
        lines.insert(int(pos), text)
    path.write_text("\n".join(lines) + "\n")
    planted.update(total=len(lines), kept=len(good))
    return planted


def _mote_channels(rng, n: int) -> np.ndarray:
    """(4, n) plausible temperature, humidity, light, voltage with steps."""
    t = np.arange(n)
    steps = np.zeros(n)
    for at in rng.choice(n, size=n // 100, replace=False):
        steps[at:] += rng.choice([-1.0, 1.0])
    base = np.sin(2 * np.pi * t / 240.0 + rng.uniform(0, 2 * np.pi))
    walk = np.cumsum(rng.normal(0.0, 0.02, n))
    temperature = np.clip(22.0 + 2.0 * base + walk + 1.5 * steps, -5.0, 55.0)
    humidity = np.clip(40.0 - 4.0 * base + 0.5 * walk + 2.0 * steps, 1.0, 99.0)
    light = np.clip(300.0 + 250.0 * base + 60.0 * steps, 0.0, 1500.0)
    voltage = np.clip(2.6 - 0.0002 * t / 10 + 0.02 * base, 1.6, 3.4)
    return np.vstack([temperature, humidity, light, voltage])


def _spoil(fields: list[str], reason: str, variant: int) -> list[str]:
    """Turn a good line's fields into one that ingest skips for `reason`."""
    if reason == ingest.R_FIELDS:
        return [fields[:7], fields + ["0.0"], fields[:3], []][variant]
    if reason == ingest.R_NUMBER:
        spoiled = list(fields)
        if variant == 0:
            spoiled[4] = "19.x5"
        elif variant == 1:
            spoiled[3] = "m3"
        elif variant == 2:
            spoiled[6] = "nan"
        else:
            spoiled[1] = "25:61:00.000000"
        return spoiled
    spoiled = list(fields)
    if variant == 0:
        spoiled[4] = "150.0"
    elif variant == 1:
        spoiled[5] = "120.5"
    elif variant == 2:
        spoiled[7] = "0.90"
    else:
        spoiled[3] = "0"
    return spoiled
