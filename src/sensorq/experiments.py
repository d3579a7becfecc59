"""Experiment drivers: policy comparison, weight sweep, interference sweep.

Every run is pinned by (config, seed list): training episode seeds,
evaluation episode seeds, and per-episode policy randomness all derive
arithmetically from them, so re-running a manifest reproduces output
files byte for byte.

Seed plumbing
    training episode e of agent seed s   -> s * 1_000_003 + e
    evaluation episode e under seed s    -> s * 524_287 + 100_000 + e
    policy rng for an episode            -> episode_seed * 7_919 + 13
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics, nn
from .agent import AgentHyperParams, TrainResult, train, write_curve_csv
from .baselines import FixedPolicy, GreedyQPolicy, RandomPolicy, ThresholdPolicy
from .env import EnvConfig, RewardWeights, SensorEnv
from .errors import CheckFailure, ConfigError

EVAL_BASE = 100_000
EVAL_STRIDE = 524_287
POLICY_RNG_MULT = 7_919

DEFAULT_POLICIES = ["fixed(1)", "random(0.25)", "threshold(0.15)", "dqn"]
DEFAULT_TRIPLES = [
    (0.6, 0.2, 0.2),
    (0.3, 0.3, 0.4),
    (0.2, 0.5, 0.3),
    (0.4, 0.4, 0.2),
    (0.5, 0.2, 0.3),
]
DEFAULT_ETA_GRID = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


@dataclass
class ExperimentSpec:
    env: EnvConfig = field(default_factory=EnvConfig)
    hypers: AgentHyperParams = field(default_factory=AgentHyperParams)
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    out_dir: Path = Path(".")
    policies: list[str] = field(default_factory=lambda: list(DEFAULT_POLICIES))
    weight_triples: list[tuple[float, float, float]] = field(
        default_factory=lambda: list(DEFAULT_TRIPLES)
    )
    eta_grid: list[float] = field(default_factory=lambda: list(DEFAULT_ETA_GRID))
    train_episodes: int = 300
    eval_episodes: int = 20
    checkpoint: str | None = None
    train_missing: bool = True  # train dqn when no checkpoint is given

    def validate(self, kind: str) -> None:
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if kind == "weight-sweep" and len(self.weight_triples) < 2:
            raise ConfigError("weight sweep needs at least two weight triples")
        if kind == "interference-sweep":
            if len(self.eta_grid) < 2:
                raise ConfigError("interference sweep needs at least two eta values")
            if any(not 0.0 <= e <= 1.0 for e in self.eta_grid):
                raise ConfigError("eta values must lie in [0, 1]")
        if self.train_episodes < 0 or self.eval_episodes < 1:
            raise ConfigError("bad episode counts")


def spec_from_file(path, out_dir, seeds=None) -> ExperimentSpec:
    """Build a spec from the documented JSON schema (env/agent/experiment)."""
    from .agent import hypers_from_dict
    from .env import config_from_dict

    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    exp = raw.get("experiment", {})
    spec = ExperimentSpec(
        env=config_from_dict(raw.get("env", {})),
        hypers=hypers_from_dict(raw.get("agent", {})),
        out_dir=Path(out_dir),
        policies=list(exp.get("policies", DEFAULT_POLICIES)),
        weight_triples=[tuple(t) for t in exp.get("weight_triples", DEFAULT_TRIPLES)],
        eta_grid=[float(e) for e in exp.get("eta_grid", DEFAULT_ETA_GRID)],
        train_episodes=int(exp.get("train_episodes", 300)),
        eval_episodes=int(exp.get("eval_episodes", 20)),
    )
    if seeds is not None:
        spec.seeds = list(seeds)
    elif "seeds" in exp:
        spec.seeds = [int(s) for s in exp["seeds"]]
    return spec


# -- rollouts ----------------------------------------------------------------


def run_episode(env: SensorEnv, policy, episode_seed: int) -> metrics.EpisodeLog:
    """One greedy evaluation episode; returns the metrics-ready log."""
    obs = env.reset(episode_seed)
    policy.reset(np.random.default_rng(episode_seed * POLICY_RNG_MULT + 13))
    done = False
    while not done:
        actions = policy.act(obs, env.epoch, env.decision_mask, env.num_actions)
        _, obs, done, _ = env.step(actions)
    return env.episode_log()


def evaluate_policy(cfg: EnvConfig, policy, seed: int, episodes: int, label: str) -> metrics.MetricsRow:
    """Mean metrics over `episodes` evaluation episodes for one seed."""
    env = SensorEnv(cfg)
    scores = []
    for ep in range(episodes):
        log = run_episode(env, policy, seed * EVAL_STRIDE + EVAL_BASE + ep)
        row = metrics.score_episode(log, label, cfg.delta_red, cfg.detection_window)
        scores.append((row.quality, row.energy_mj, row.redundancy_pct, row.detection_pct))
    # one mean over the episodes x 4 array; aggregate() sums differently
    q, e, r, d = np.mean(scores, axis=0)
    return metrics.MetricsRow(label, float(q), float(e), float(r), float(d))


def train_dqn(cfg: EnvConfig, hypers: AgentHyperParams, episodes: int, seed: int) -> TrainResult:
    return train(SensorEnv(cfg), hypers, episodes, seed)


_POLICY_RE = re.compile(r"^(fixed|random|threshold)\(([-0-9.e]+)\)$")


def make_baseline(text: str, horizon: int):
    """Parse a policy spec string like fixed(4) / random(0.25) / threshold(0.15)."""
    m = _POLICY_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse policy {text!r}")
    kind, arg = m.group(1), float(m.group(2))
    if kind == "fixed":
        return FixedPolicy(int(arg))
    if kind == "random":
        return RandomPolicy(arg)
    return ThresholdPolicy(arg, horizon=horizon)


def _dqn_params_per_seed(spec: ExperimentSpec, cfg: EnvConfig) -> dict[int, nn.NetworkParams]:
    """Checkpoint if given (shared across seeds), otherwise train per seed."""
    if spec.checkpoint:
        params = nn.load_network(spec.checkpoint)
        return {s: params for s in spec.seeds}
    if not spec.train_missing:
        raise ConfigError("dqn policy needs a checkpoint or training enabled")
    out: dict[int, nn.NetworkParams] = {}
    for s in spec.seeds:
        result = train_dqn(cfg, spec.hypers, spec.train_episodes, s)
        out[s] = result.params
        ckpt = Path(spec.out_dir) / f"dqn_seed{s}.txt"
        nn.save_network(result.params, ckpt)
        write_curve_csv(result, Path(spec.out_dir) / f"curve_seed{s}.csv")
    return out


def matched_random_rate(cfg: EnvConfig, energy_mj: float) -> float:
    """Sampling probability whose expected energy matches the given budget."""
    mean_cost = float(np.mean([cfg.sample_costs[k] for k in cfg.sensor_kinds]))
    if mean_cost <= cfg.idle_cost:
        return 1.0
    q = (energy_mj / cfg.epochs - cfg.idle_cost) / (mean_cost - cfg.idle_cost)
    return float(np.clip(q, 0.0, 1.0))


# -- the three experiments ---------------------------------------------------


def run_compare(spec: ExperimentSpec, check: bool = False) -> list[metrics.MetricsReport]:
    """Policy-comparison table, one aggregated row per policy."""
    spec.validate("compare")
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = spec.env
    dqn_params = _dqn_params_per_seed(spec, cfg) if "dqn" in spec.policies else {}

    reports = []
    for text in spec.policies:
        rows = []
        for s in spec.seeds:
            policy = (
                GreedyQPolicy(dqn_params[s])
                if text == "dqn"
                else make_baseline(text, cfg.epochs)
            )
            rows.append(evaluate_policy(cfg, policy, s, spec.eval_episodes, text))
        reports.append(metrics.aggregate(rows, spec.seeds))
    metrics.write_reports_csv(reports, out_dir / "compare.csv")
    write_manifest(spec, "compare", out_dir)
    if check:
        check_compare(spec, reports)
    return reports


def check_compare(spec: ExperimentSpec, reports: list[metrics.MetricsReport]) -> None:
    """Directional assertions mirroring the published comparison table."""
    by = {r.policy: r for r in reports}
    if "dqn" not in by or "fixed(1)" not in by:
        raise CheckFailure("compare --check needs both dqn and fixed(1) in policies")
    dqn, fixed = by["dqn"], by["fixed(1)"]
    failures = []
    if not dqn.energy_mj < fixed.energy_mj:
        failures.append("dqn energy not below fixed(1)")
    if not dqn.redundancy_pct < fixed.redundancy_pct:
        failures.append("dqn redundancy not below fixed(1)")
    q_hat = matched_random_rate(spec.env, dqn.energy_mj)
    rows = [
        evaluate_policy(spec.env, RandomPolicy(q_hat), s, spec.eval_episodes, "random-matched")
        for s in spec.seeds
    ]
    matched = metrics.aggregate(rows, spec.seeds)
    if not dqn.detection_pct >= matched.detection_pct:
        failures.append(
            f"dqn detection {dqn.detection_pct:.1f}% below matched random "
            f"{matched.detection_pct:.1f}% (q={q_hat:.3f})"
        )
    if failures:
        raise CheckFailure("; ".join(failures))


WEIGHT_COLUMNS = [
    "info_w", "energy_w", "redundancy_w",
    "data_quality", "energy_mj", "redundancy_pct", "detection_pct",
    "data_quality_std", "energy_mj_std", "redundancy_pct_std", "detection_pct_std",
    "seeds",
]


def run_weight_sweep(spec: ExperimentSpec, check: bool = False) -> list[dict]:
    """Train and evaluate one agent per reward-weight triple."""
    spec.validate("weight-sweep")
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for triple in spec.weight_triples:
        cfg = replace(spec.env, weights=RewardWeights(*triple))
        rows = []
        for s in spec.seeds:
            params = train_dqn(cfg, spec.hypers, spec.train_episodes, s).params
            rows.append(evaluate_policy(cfg, GreedyQPolicy(params), s, spec.eval_episodes, "dqn"))
        agg = metrics.aggregate(rows, spec.seeds)
        results.append({"triple": triple, "report": agg})
    with open(out_dir / "weight_sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEIGHT_COLUMNS)
        for cell in results:
            (w1, w2, w3), r = cell["triple"], cell["report"]
            writer.writerow(
                [metrics.fmt(w1), metrics.fmt(w2), metrics.fmt(w3),
                 metrics.fmt(r.quality), metrics.fmt(r.energy_mj),
                 metrics.fmt(r.redundancy_pct), metrics.fmt(r.detection_pct),
                 metrics.fmt(r.quality_std), metrics.fmt(r.energy_std),
                 metrics.fmt(r.redundancy_std), metrics.fmt(r.detection_std),
                 ";".join(str(s) for s in spec.seeds)]
            )
    write_manifest(spec, "weight-sweep", out_dir)
    if check:
        check_weight_sweep(spec, results)
    return results


def check_weight_sweep(spec: ExperimentSpec, results: list[dict]) -> None:
    """The energy-dominant triple must measure cheapest; the info-dominant
    triple must measure the best quality."""
    energy_dom = max(results, key=lambda c: c["triple"][1])["triple"]
    info_dom = max(results, key=lambda c: c["triple"][0])["triple"]
    min_energy = min(results, key=lambda c: c["report"].energy_mj)["triple"]
    max_quality = max(results, key=lambda c: c["report"].quality)["triple"]
    failures = []
    if min_energy != energy_dom:
        failures.append(f"min energy at {min_energy}, expected {energy_dom}")
    if max_quality != info_dom:
        failures.append(f"max quality at {max_quality}, expected {info_dom}")
    if failures:
        raise CheckFailure("; ".join(failures))


INTERFERENCE_COLUMNS = ["policy", "eta", "data_quality", "data_quality_std", "seeds"]


def run_interference_sweep(spec: ExperimentSpec, check: bool = False) -> list[dict]:
    """Evaluate every policy across the interference grid.

    Learned agents are trained once per seed at eta = 0 and then
    evaluated, frozen, at each grid level (robustness, not retraining).
    """
    spec.validate("interference-sweep")
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clean_cfg = replace(spec.env, eta=0.0)
    dqn_params = _dqn_params_per_seed(spec, clean_cfg) if "dqn" in spec.policies else {}

    results = []
    for text in spec.policies:
        for eta in spec.eta_grid:
            cfg = replace(spec.env, eta=float(eta))
            per_seed = []
            for s in spec.seeds:
                policy = (
                    GreedyQPolicy(dqn_params[s])
                    if text == "dqn"
                    else make_baseline(text, cfg.epochs)
                )
                row = evaluate_policy(cfg, policy, s, spec.eval_episodes, text)
                per_seed.append(row.quality)
            arr = np.array(per_seed)
            results.append(
                {
                    "policy": text,
                    "eta": float(eta),
                    "quality": float(arr.mean()),
                    "quality_std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                }
            )
    with open(out_dir / "interference_sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(INTERFERENCE_COLUMNS)
        for cell in results:
            writer.writerow(
                [cell["policy"], metrics.fmt(cell["eta"]), metrics.fmt(cell["quality"]),
                 metrics.fmt(cell["quality_std"]),
                 ";".join(str(s) for s in spec.seeds)]
            )
    write_manifest(spec, "interference-sweep", out_dir)
    if check:
        check_interference(spec, results)
    return results


def check_interference(spec: ExperimentSpec, results: list[dict]) -> None:
    """Quality must not increase with interference for any policy, and the
    learned policy must degrade less than fixed(1) end to end."""
    failures = []
    curves: dict[str, list[tuple[float, float]]] = {}
    for cell in results:
        curves.setdefault(cell["policy"], []).append((cell["eta"], cell["quality"]))
    for policy, curve in curves.items():
        curve.sort()
        values = [q for _, q in curve]
        if any(b > a + 1e-9 for a, b in zip(values, values[1:])):
            failures.append(f"{policy} quality not monotone non-increasing")
    if "dqn" in curves and "fixed(1)" in curves:
        dq = curves["dqn"][0][1] - curves["dqn"][-1][1]
        df = curves["fixed(1)"][0][1] - curves["fixed(1)"][-1][1]
        if not abs(dq) < abs(df):
            failures.append(f"dqn drop {dq:.3f} not smaller than fixed(1) drop {df:.3f}")
    if failures:
        raise CheckFailure("; ".join(failures))


# -- artifacts ---------------------------------------------------------------


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Stable hash of everything that determines the outputs."""
    payload = {
        "env": repr(spec.env),
        "hypers": repr(spec.hypers),
        "seeds": spec.seeds,
        "policies": spec.policies,
        "weight_triples": spec.weight_triples,
        "eta_grid": spec.eta_grid,
        "train_episodes": spec.train_episodes,
        "eval_episodes": spec.eval_episodes,
        "checkpoint": spec.checkpoint,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(spec: ExperimentSpec, kind: str, out_dir: Path) -> None:
    manifest = {
        "experiment": kind,
        "config_sha256": spec_fingerprint(spec),
        "seeds": spec.seeds,
        "version": __version__,
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def emit_plotdata(csv_path, out_path) -> None:
    """Re-emit a sweep CSV as gnuplot-style whitespace columns.

    The header row becomes a single comment line; string cells pass
    through unchanged, so parsing the output recovers the CSV exactly.
    """
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError(f"{csv_path} is empty")
    header, data = rows[0], rows[1:]
    for row in data:
        if any((not cell) or any(ch.isspace() for ch in cell) for cell in row):
            raise ConfigError("plot data needs non-empty, whitespace-free cells")
    with open(out_path, "w") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in data:
            fh.write(" ".join(row) + "\n")
