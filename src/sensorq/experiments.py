"""Experiment drivers: training, policy comparison, weight sweep,
interference sweep.

run_train, run_compare, run_weight_sweep and run_interference_sweep share
one path: _prologue validates, creates the output directory, reads a
replay trace once per run and writes the manifest; _train_per_seed
writes every dqn_seed<s>.txt and curve_seed<s>.csv; _report evaluates a
policy under every seed and aggregates the rows; every table goes out
through metrics.write_csv.

Every run is pinned by (config, seed list): training episode seeds,
evaluation episode seeds, and per-episode policy randomness all derive
arithmetically from them, so re-running the same config file and seeds
reproduces output files byte for byte on the same build.

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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics, nn
from .agent import AgentHyperParams, TrainResult, hypers_from_dict, train, write_curve_csv
from .baselines import FixedPolicy, GreedyQPolicy, RandomPolicy, ThresholdPolicy
from .env import EnvConfig, RewardWeights, SensorEnv, config_from_dict, load_replay_trace
from .errors import CheckFailure, ConfigError, as_float, is_int, is_real, require, require_keys

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
        require(isinstance(self.seeds, (list, tuple)) and all(is_int(s, 0) for s in self.seeds),
                "seeds must be a list of integers >= 0")
        require(self.seeds, "need at least one seed")
        require(len(set(self.seeds)) == len(self.seeds), "seeds must be distinct")
        require(is_int(self.train_episodes, 0) and is_int(self.eval_episodes, 1),
                "bad episode counts")
        require(isinstance(self.policies, list), "policies must be a list of policy strings")
        require(self.policies or kind in ("train", "weight-sweep"), "need at least one policy")
        for text in self.policies:  # fail before any training
            if text != "dqn":
                make_baseline(text, self.env.epochs)
                # only compare and the interference sweep evaluate baselines
                require(self.env.action_mode == "binary" or kind in ("train", "weight-sweep"),
                        f"policy {text} needs action_mode binary; interval mode runs only dqn")
        for triple in self.weight_triples:
            require(len(triple) == 3, f"weight triple {list(triple)} needs three weights")
            RewardWeights(*triple).validate()
        require(all(is_real(e, 0.0, 1.0) for e in self.eta_grid), "eta values must lie in [0, 1]")
        require(kind != "weight-sweep" or len(self.weight_triples) >= 2,
                "weight sweep needs at least two weight triples")
        require(kind != "interference-sweep" or len(self.eta_grid) >= 2,
                "interference sweep needs at least two eta values")


EXPERIMENT_KEYS = ("policies", "seeds", "train_episodes", "eval_episodes", "weight_triples", "eta_grid")


def spec_from_file(path, out_dir, seeds=None) -> ExperimentSpec:
    """Build a spec from the documented JSON schema (env/agent/experiment),
    or from the `config` object of a manifest.json (nothing else in it).

    The one place config values enter: a value of the wrong type or out of
    range, or an unknown key, ends here or in ExperimentSpec.validate as a
    ConfigError rather than mid-run."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        if isinstance(raw, dict) and "config" in raw:
            raw = raw["config"]
        require_keys(raw, ("env", "agent", "experiment"), "top-level")
        exp = dict(require_keys(raw.get("experiment", {}), EXPERIMENT_KEYS, "experiment"))
        if "weight_triples" in exp:
            exp["weight_triples"] = [tuple(t) for t in exp["weight_triples"]]
        if "eta_grid" in exp:
            exp["eta_grid"] = [as_float(e) for e in exp["eta_grid"]]
        if seeds is not None:
            exp["seeds"] = list(seeds)
        return ExperimentSpec(config_from_dict(raw.get("env", {})),
                              hypers_from_dict(raw.get("agent", {})), out_dir=Path(out_dir), **exp)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


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


def evaluate_policy(
    cfg: EnvConfig, policy, seed: int, episodes: int, label: str, trace=None
) -> metrics.MetricsRow:
    """Mean metrics over `episodes` evaluation episodes for one seed.

    `trace` is handed to SensorEnv: the replay series from
    `load_replay_trace(cfg)`, or None to have the env read them itself."""
    env = SensorEnv(cfg, trace)
    scores = []
    for ep in range(episodes):
        log = run_episode(env, policy, seed * EVAL_STRIDE + EVAL_BASE + ep)
        scores.append((metrics.data_quality(log), metrics.energy_total(log),
                       metrics.redundancy_rate(log, cfg.delta_red),
                       metrics.event_detection_rate(log, cfg.detection_window)))
    # one mean over the episodes x 4 array; aggregate() sums differently
    q, e, r, d = np.mean(scores, axis=0)
    return metrics.MetricsRow(label, float(q), float(e), float(r), float(d))


def train_dqn(
    cfg: EnvConfig, hypers: AgentHyperParams, episodes: int, seed: int, trace=None
) -> TrainResult:
    return train(SensorEnv(cfg, trace), hypers, episodes, seed)


_POLICY_RE = re.compile(r"^(fixed|random|threshold)\((-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)\)$")


def make_baseline(text: str, horizon: int):
    """Parse a policy spec string like fixed(4) / random(0.25) / threshold(0.15)."""
    m = isinstance(text, str) and _POLICY_RE.match(text.strip())
    require(m, f"cannot parse policy {text!r}")
    kind, arg = m.group(1), float(m.group(2))
    if kind == "fixed":
        return FixedPolicy(int(arg) if arg.is_integer() else arg)
    if kind == "random":
        return RandomPolicy(arg)
    return ThresholdPolicy(arg, horizon=horizon)


def _prologue(spec: ExperimentSpec, kind: str) -> tuple[Path, dict | None]:
    """Validate the spec, create the output directory, read the replay trace
    once and write the manifest; every experiment starts here."""
    spec.validate(kind)
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = load_replay_trace(spec.env)
    write_manifest(spec, kind, out_dir)
    return out_dir, trace


def _train_per_seed(spec: ExperimentSpec, cfg: EnvConfig, trace) -> list[TrainResult]:
    """Train one agent per seed, in seed order, writing dqn_seed<s>.txt and
    curve_seed<s>.csv for each."""
    results = []
    for s in spec.seeds:
        result = train_dqn(cfg, spec.hypers, spec.train_episodes, s, trace)
        nn.save_network(result.params, Path(spec.out_dir) / f"dqn_seed{s}.txt")
        write_curve_csv(result, Path(spec.out_dir) / f"curve_seed{s}.csv")
        results.append(result)
    return results


def _dqn_params_per_seed(
    spec: ExperimentSpec, cfg: EnvConfig, trace
) -> dict[int, nn.NetworkParams]:
    """Checkpoint if given (shared across seeds), otherwise train per seed."""
    if spec.checkpoint:
        try:
            params = nn.load_network(spec.checkpoint)
        except ValueError as exc:
            raise ConfigError(f"checkpoint {spec.checkpoint}: {exc}") from exc
        shape = (SensorEnv.obs_dim, SensorEnv(cfg).num_actions)
        if (params.in_dim, params.out_dim) != shape:
            raise ConfigError(
                f"checkpoint {spec.checkpoint}: network maps {params.in_dim} -> "
                f"{params.out_dim} values, the environment needs {shape[0]} -> {shape[1]}"
            )
        return {s: params for s in spec.seeds}
    require(spec.train_missing, "dqn policy needs a checkpoint or training enabled")
    return {s: r.params for s, r in zip(spec.seeds, _train_per_seed(spec, cfg, trace))}


def _report(
    spec: ExperimentSpec, cfg: EnvConfig, text: str, dqn_params: dict, trace
) -> metrics.MetricsReport:
    """Evaluate policy `text` under every seed of the spec and aggregate
    the per-seed rows; "dqn" runs the seed's network from `dqn_params`."""
    rows = []
    for s in spec.seeds:
        policy = GreedyQPolicy(dqn_params[s]) if text == "dqn" else make_baseline(text, cfg.epochs)
        rows.append(evaluate_policy(cfg, policy, s, spec.eval_episodes, text, trace))
    return metrics.aggregate(rows, spec.seeds)


def matched_random_rate(cfg: EnvConfig, energy_mj: float) -> float:
    """Sampling probability whose expected energy matches the given budget."""
    mean_cost = float(np.mean([cfg.sample_costs[k] for k in cfg.sensor_kinds]))
    if mean_cost <= cfg.idle_cost:
        return 1.0
    q = (energy_mj / cfg.epochs - cfg.idle_cost) / (mean_cost - cfg.idle_cost)
    return float(np.clip(q, 0.0, 1.0))


# -- training and the three experiments --------------------------------------


def run_train(spec: ExperimentSpec) -> list[TrainResult]:
    """Train one agent per seed; the results come back in seed order."""
    _, trace = _prologue(spec, "train")
    return _train_per_seed(spec, spec.env, trace)


def run_compare(spec: ExperimentSpec, check: bool = False) -> list[metrics.MetricsReport]:
    """Policy-comparison table, one aggregated row per policy."""
    out_dir, trace = _prologue(spec, "compare")
    cfg = spec.env
    dqn_params = _dqn_params_per_seed(spec, cfg, trace) if "dqn" in spec.policies else {}
    reports = [_report(spec, cfg, text, dqn_params, trace) for text in spec.policies]
    metrics.write_reports_csv(reports, out_dir / "compare.csv")
    if check:
        check_compare(spec, reports, trace)
    return reports


def check_compare(spec: ExperimentSpec, reports: list[metrics.MetricsReport], trace=None) -> None:
    """Directional assertions mirroring the published comparison table;
    `trace` as for evaluate_policy."""
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
    # repr() round-trips the float, so this parses back to RandomPolicy(q_hat)
    matched = _report(spec, spec.env, f"random({q_hat!r})", {}, trace)
    if not dqn.detection_pct >= matched.detection_pct:
        failures.append(
            f"dqn detection {dqn.detection_pct:.1f}% below matched random "
            f"{matched.detection_pct:.1f}% (q={q_hat:.3f})"
        )
    if failures:
        raise CheckFailure("; ".join(failures))


WEIGHT_COLUMNS = ["info_w", "energy_w", "redundancy_w", *metrics.REPORT_COLUMNS[1:]]


def run_weight_sweep(spec: ExperimentSpec, check: bool = False) -> list[dict]:
    """Train and evaluate one agent per reward-weight triple."""
    out_dir, trace = _prologue(spec, "weight-sweep")
    results = []
    for triple in spec.weight_triples:
        cfg = replace(spec.env, weights=RewardWeights(*triple))
        params = {s: train_dqn(cfg, spec.hypers, spec.train_episodes, s, trace).params
                  for s in spec.seeds}
        results.append({"triple": triple, "report": _report(spec, cfg, "dqn", params, trace)})
    metrics.write_csv(
        out_dir / "weight_sweep.csv", WEIGHT_COLUMNS,
        ([metrics.fmt(w) for w in c["triple"]] + metrics.report_cells(c["report"])
         for c in results),
    )
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
    out_dir, trace = _prologue(spec, "interference-sweep")
    clean_cfg = replace(spec.env, eta=0.0)
    dqn_params = _dqn_params_per_seed(spec, clean_cfg, trace) if "dqn" in spec.policies else {}

    results = []
    for text in spec.policies:
        for eta in spec.eta_grid:
            r = _report(spec, replace(spec.env, eta=float(eta)), text, dqn_params, trace)
            results.append(
                {"policy": text, "eta": float(eta), "quality": r.quality,
                 "quality_std": r.quality_std}
            )
    seeds = ";".join(str(s) for s in spec.seeds)
    metrics.write_csv(
        out_dir / "interference_sweep.csv", INTERFERENCE_COLUMNS,
        ([c["policy"], metrics.fmt(c["eta"]), metrics.fmt(c["quality"]),
          metrics.fmt(c["quality_std"]), seeds] for c in results),
    )
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


def resolved_config(spec: ExperimentSpec) -> dict:
    """The spec in the config schema (env, agent, experiment), every default
    filled in; spec_from_file reads it back to an equal spec."""
    return {"env": asdict(spec.env), "agent": asdict(spec.hypers),
            "experiment": {k: getattr(spec, k) for k in EXPERIMENT_KEYS}}


def numpy_build() -> dict:
    """The numpy version and BLAS that float64 results depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # numpy too old to report its build as a dict
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def write_manifest(spec: ExperimentSpec, kind: str, out_dir: Path) -> None:
    """manifest.json: the resolved config, which --config reads back to rerun
    the experiment, and the run around it: the command (`experiment`), the
    sha256 of the config's canonical JSON, the checkpoint and the builds."""
    config = resolved_config(spec)
    manifest = {
        "experiment": kind,
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "checkpoint": spec.checkpoint,
        "version": __version__,
        **numpy_build(),
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
