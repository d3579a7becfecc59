"""The sampling decision process: signals, batteries, actions, rewards.

Each sensor owns one channel of a multi-sensor system. Per epoch the
policy decides, sensor by sensor, whether to spend energy on a sample.
The agent never peeks at the true signal: observations are derived only
from its own kept samples plus battery and clock, which is what makes
the sampling problem non-trivial.

Reward per sensor and epoch combines three normalized terms:

    reward = info_w * gain - energy_w * cost - redundancy_w * duplicate

where `gain` is how far the zero-order-hold reconstruction had drifted
from the truth when a sample was taken (capped at 1), `cost` is the
action's energy relative to the most expensive action, and `duplicate`
flags a kept sample nearly identical to its predecessor. `step` returns
the rewards as one float64 array of shape (num_sensors,); the terms
behind each one are kept only in the episode CSV rows.

Two action modes:
  binary    0 = skip, 1 = sample (default)
  interval  action k = sample now, then sleep {1, 2, 4, 8}[k] epochs

Dormant (sleeping) and battery-empty sensors take no decision; callers
must pass None (or 0 in binary mode) for them, anything else is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import as_float, is_int, is_real, require, require_keys
from .signals import (
    CHANNEL_RANGE,
    KIND_INDEX,
    KINDS,
    SignalParams,
    detect_events,
    inject_interference,
    synth_track,
)

DEFAULT_SAMPLE_COST = {"temperature": 1.0, "humidity": 1.2, "light": 0.8, "voltage": 0.6}

SKIP, SAMPLE = 0, 1
INTERVAL_SLEEPS = (1, 2, 4, 8)

# observation feature layout
OBS_VALUE = 0  # last kept value, normalized to channel range
OBS_TIME = 1  # epochs since last kept sample / T
OBS_SLOPE = 2  # EWMA of per-epoch normalized change between kept samples
OBS_BATTERY = 3  # remaining battery fraction
OBS_SIN = 4
OBS_COS = 5
OBS_KIND = 6  # one-hot over the four channel kinds
OBS_DIM = OBS_KIND + len(KINDS)

SLOPE_EWMA = 0.3


@dataclass(frozen=True)
class RewardWeights:
    info: float = 0.6
    energy: float = 0.2
    redundancy: float = 0.2

    def validate(self) -> None:
        require(all(is_real(w, 0.0) for w in self.as_tuple()), "reward weights must be numbers >= 0")
        require(any(self.as_tuple()), "reward weights must not all be zero")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.info, self.energy, self.redundancy)


@dataclass
class ReplayConfig:
    """Trace-driven mode: sensors map to (mote, channel) series.

    start_slot/end_slot restrict which part of the trace supplies
    episodes (a time-range split for separating train and evaluation
    data): start_slot is an integer >= 0, end_slot None (the trace end)
    or an integer > start_slot, capped at the trace end. A window counts
    when at least min_presence (in [0, 1]) of its slots hold a reading.
    """

    sensors: list[tuple[int, str]]
    path: str | None = None
    delta_t: float = 60.0
    min_presence: float = 0.5
    start_slot: int = 0
    end_slot: int | None = None

    def validate(self) -> None:
        require(all(is_int(m, 1) for m, _ in self.sensors), "replay motes must be integers >= 1")
        require(self.path is None or isinstance(self.path, str), "replay path must be a string")
        dt = self.delta_t
        require(is_real(dt) and dt > 0, "replay delta_t must be a finite number > 0")
        require(is_int(self.start_slot, 0), "replay start_slot must be an integer >= 0")
        require(self.end_slot is None or is_int(self.end_slot, self.start_slot + 1),
                "replay end_slot must be null or an integer > start_slot")
        require(is_real(self.min_presence, 0.0, 1.0), "replay min_presence must be a number in [0, 1]")


@dataclass
class EnvConfig:
    sensors: list[str] = field(default_factory=lambda: list(KINDS))
    epochs: int = 200
    mode: str = "synthetic"
    idle_cost: float = 0.05
    sample_costs: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SAMPLE_COST))
    battery_mj: float = 400.0
    delta_red: float = 0.05
    eta: float = 0.0
    noise_beta: float = 0.2
    drop_prob: float = 0.1
    weights: RewardWeights = field(default_factory=RewardWeights)
    action_mode: str = "binary"
    signal: SignalParams = field(default_factory=SignalParams)
    ranges: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(CHANNEL_RANGE))
    detection_window: int = 2
    replay: ReplayConfig | None = None

    def validate(self) -> None:
        require(self.mode in ("synthetic", "replay"), f"unknown mode {self.mode!r}")
        if self.replay is not None:
            self.replay.validate()
        require(self.mode == "synthetic" or (self.replay is not None and self.replay.sensors),
                "replay mode needs a replay section with sensors")
        require(isinstance(self.sensors, (list, tuple)), "sensors must be a list of channel kinds")
        kinds = self.sensor_kinds
        require(kinds, "need at least one sensor")
        for k in kinds:
            require(isinstance(k, str) and k in KIND_INDEX, f"unknown channel kind {k!r}")
        if self.mode == "synthetic":
            require(isinstance(self.ranges, dict) and all(
                len(self.ranges.get(k, ())) == 2 and all(map(is_real, self.ranges[k])) for k in kinds
            ), "ranges need a [low, high] pair of numbers for every sensor kind")
        require(is_int(self.epochs, 2), "epochs must be an integer >= 2")
        costs = self.sample_costs
        require(is_real(self.idle_cost, 0.0) and isinstance(costs, dict)
                and all(is_real(costs.get(k), 0.0) for k in kinds),
                "idle_cost and the sample_costs of every sensor kind must be numbers >= 0")
        require(is_real(self.battery_mj) and self.battery_mj > 0, "battery_mj must be a number > 0")
        require(is_real(self.eta, 0.0, 1.0), "eta must be a number in [0, 1]")
        require(is_real(self.drop_prob, 0.0, 1.0), "drop_prob must be a number in [0, 1]")
        require(is_real(self.noise_beta, 0.0) and is_real(self.delta_red, 0.0),
                "noise_beta and delta_red must be numbers >= 0")
        require(is_int(self.detection_window, 0), "detection_window must be an integer >= 0")
        require(self.action_mode in ("binary", "interval"), f"unknown action mode {self.action_mode!r}")
        self.weights.validate()
        self.signal.validate()

    @property
    def sensor_kinds(self) -> list[str]:
        if self.mode == "replay":
            return [k for _, k in self.replay.sensors]
        return list(self.sensors)

    @property
    def max_action_cost(self) -> float:
        costs = [self.sample_costs[k] for k in self.sensor_kinds] + [self.idle_cost]
        top = max(costs)
        return top if top > 0 else 1.0


def config_from_dict(raw: dict) -> EnvConfig:
    """Build and validate an EnvConfig from the documented JSON schema (env
    section).

    Malformed nested values raise TypeError or ValueError, which
    experiments.spec_from_file turns into a ConfigError."""
    kw = dict(require_keys(raw, EnvConfig.__dataclass_fields__, "env"))
    if "weights" in kw:
        w = require_keys(kw["weights"], RewardWeights.__dataclass_fields__, "env.weights")
        kw["weights"] = RewardWeights(**{k: as_float(v) for k, v in w.items()})
    if "signal" in kw:
        kw["signal"] = SignalParams(
            **require_keys(kw["signal"], SignalParams.__dataclass_fields__, "env.signal"))
    if "ranges" in kw:
        kw["ranges"] = {k: (as_float(lo), as_float(hi)) for k, (lo, hi) in kw["ranges"].items()}
    if "replay" in kw:
        r = dict(require_keys(kw["replay"], ReplayConfig.__dataclass_fields__, "env.replay"))
        r.update({k: as_float(v) for k, v in r.items() if k in ("delta_t", "min_presence")})
        kw["replay"] = ReplayConfig(**dict(r, sensors=[(m, k) for m, k in r.get("sensors", [])]))
    cfg = EnvConfig(**kw)
    cfg.validate()
    return cfg


def load_replay_trace(config: EnvConfig) -> dict | None:
    """The hold-filled series of the trace a replay config names, read once
    so that every SensorEnv(config, trace) replaying it can share them;
    None in synthetic mode."""
    if config.mode != "replay":
        return None
    require(config.replay.path, "replay mode needs preloaded series or a trace path")
    from . import ingest

    series, _ = ingest.load_trace(config.replay.path, delta_t=config.replay.delta_t)
    return {m: ingest.hold_fill(s) for m, s in series.items()}


class SensorEnv:
    """Multi-sensor sampling environment over synthetic or replayed signals.

    One instance is single-threaded and owns all of its randomness; a
    (config, seed) pair fully determines an episode.
    """

    obs_dim = OBS_DIM

    def __init__(self, config: EnvConfig, trace=None):
        config.validate()
        self.config = config
        self.kinds = config.sensor_kinds
        self.num_sensors = len(self.kinds)
        self.num_actions = 2 if config.action_mode == "binary" else len(INTERVAL_SLEEPS)
        self._trace = trace
        self._windows: list[int] | None = None
        self._epoch = -1  # reset() required before stepping

    # -- episode lifecycle -------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        cfg = self.config
        T = cfg.epochs
        self._seed = int(seed)
        self._epoch = 0
        self._done = False
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([self._seed, 0xA5]))
        self._battery = np.full(self.num_sensors, float(cfg.battery_mj))
        self._last_value = [None] * self.num_sensors
        self._last_epoch = np.full(self.num_sensors, -1, dtype=int)
        self._slope = np.zeros(self.num_sensors)
        self._sleep_until = np.zeros(self.num_sensors, dtype=int)
        self._samples: list[list[tuple[int, float]]] = [[] for _ in range(self.num_sensors)]
        self._ledger = np.zeros((self.num_sensors, T))
        self._rows: list[tuple] = []

        if cfg.mode == "synthetic":
            self._truth, self._events, self._spans, self._los = [], [], [], []
            for i, kind in enumerate(self.kinds):
                lo, hi = cfg.ranges[kind]
                track = synth_track(kind, T, self._seed * 1_000_003 + i, cfg.signal, (lo, hi))
                self._truth.append(track.values)
                self._events.append(track.events)
                self._spans.append(hi - lo if hi > lo else 1.0)
                self._los.append(lo)
        else:
            self._reset_replay()
        return self._observations()

    def _reset_replay(self) -> None:
        cfg = self.config
        if self._trace is None:
            self._trace = load_replay_trace(cfg)
        if self._windows is None:
            self._windows = self._usable_windows()
        require(self._windows, "trace has no usable episode windows")
        start = self._windows[self._seed % len(self._windows)]
        T = cfg.epochs
        self._truth, self._events, self._spans, self._los = [], [], [], []
        for mote, kind in cfg.replay.sensors:
            ms = self._trace[mote]
            vals = ms.values[kind][start : start + T]
            lo, hi = ms.stats[kind]
            self._truth.append(np.asarray(vals, dtype=np.float64))
            self._events.append([e for e in detect_events(vals)])
            self._spans.append(hi - lo if hi > lo else 1.0)
            self._los.append(lo)

    def _usable_windows(self) -> list[int]:
        cfg = self.config
        T = cfg.epochs
        first = cfg.replay.start_slot
        windows = None
        for mote, _ in cfg.replay.sensors:
            require(mote in self._trace, f"mote {mote} missing from trace")
            ms = self._trace[mote]
            last = len(ms.present)
            if cfg.replay.end_slot is not None:
                last = min(last, cfg.replay.end_slot)  # windows lie wholly inside the trace
            require(last - first >= T, f"trace range for mote {mote} shorter than one episode")
            mine = {
                s
                for s in range(first, last - T + 1, T)
                if ms.present[s : s + T].mean() >= cfg.replay.min_presence
            }
            windows = mine if windows is None else windows & mine
        return sorted(windows or [])

    # -- observations ------------------------------------------------------

    def _observations(self) -> np.ndarray:
        cfg = self.config
        T = cfg.epochs
        obs = np.zeros((self.num_sensors, OBS_DIM))
        phase = 2.0 * np.pi * self._epoch / cfg.signal.period
        for i, kind in enumerate(self.kinds):
            span, lo = self._spans[i], self._los[i]
            if self._last_value[i] is None:
                obs[i, OBS_VALUE] = 0.5
            else:
                obs[i, OBS_VALUE] = min(1.0, max(0.0, (self._last_value[i] - lo) / span))
            obs[i, OBS_TIME] = min(1.0, (self._epoch - self._last_epoch[i]) / T)
            obs[i, OBS_SLOPE] = self._slope[i]
            obs[i, OBS_BATTERY] = self._battery[i] / cfg.battery_mj
            obs[i, OBS_SIN] = np.sin(phase)
            obs[i, OBS_COS] = np.cos(phase)
            obs[i, OBS_KIND + KIND_INDEX[kind]] = 1.0
        return obs

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def decision_mask(self) -> np.ndarray:
        """True where the policy must supply an action this epoch."""
        dormant = self._sleep_until > self._epoch
        empty = self._battery <= 0.0
        return ~(dormant | empty)

    # -- dynamics ----------------------------------------------------------

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, bool, bool]:
        """Apply one action per sensor; returns (rewards, obs, done, truncated)
        with rewards a float64 array of shape (num_sensors,)."""
        if self._epoch < 0 or self._done:
            raise ValueError("reset() the environment before stepping")
        if len(actions) != self.num_sensors:
            raise ValueError(f"need {self.num_sensors} actions, got {len(actions)}")
        cfg = self.config
        e = self._epoch
        mask = self.decision_mask
        c_max = cfg.max_action_cost
        rewards = []
        for i, kind in enumerate(self.kinds):
            action = actions[i]
            if not mask[i]:
                if action is not None and not (cfg.action_mode == "binary" and action == SKIP):
                    raise ValueError(f"sensor {i} cannot act this epoch (dormant or empty)")
                rewards.append(self._apply_skip(i, e, c_max, forced=True))
                continue
            if action is None or not 0 <= int(action) < self.num_actions:
                raise ValueError(f"sensor {i}: invalid action {action!r}")
            action = int(action)
            if cfg.action_mode == "binary" and action == SKIP:
                rewards.append(self._apply_skip(i, e, c_max, forced=False))
            else:
                if cfg.action_mode == "interval":
                    self._sleep_until[i] = e + INTERVAL_SLEEPS[action]
                rewards.append(self._apply_sample(i, kind, e, c_max))
        self._epoch = e + 1
        self._done = self._epoch == cfg.epochs
        return np.array(rewards), self._observations(), self._done, False

    def _record(self, e, i, label, truth, kept, gain, cost, duplicate) -> float:
        """Reward of one sensor's epoch; logs its terms for the episode CSV."""
        w = self.config.weights
        total = w.info * gain - w.energy * cost - w.redundancy * duplicate
        self._rows.append((e, i, label, truth, kept, gain, cost, duplicate, total))
        return total

    def _apply_skip(self, i: int, e: int, c_max: float, forced: bool) -> float:
        drawn = min(self._battery[i], self.config.idle_cost)
        self._battery[i] -= drawn
        self._ledger[i, e] = drawn
        cost = self.config.idle_cost / c_max
        return self._record(e, i, "idle" if forced else "skip", self._truth[i][e], None, 0.0, cost, 0.0)

    def _apply_sample(self, i: int, kind: str, e: int, c_max: float) -> float:
        cfg = self.config
        cost = cfg.sample_costs[kind]
        drawn = min(self._battery[i], cost)
        self._battery[i] -= drawn
        self._ledger[i, e] = drawn
        truth = float(self._truth[i][e])
        span = self._spans[i]
        measured, kept = inject_interference(
            truth, cfg.eta, self._noise_rng, cfg.noise_beta, span, cfg.drop_prob
        )
        gain = duplicate = 0.0
        kept_value = None
        if kept:
            prev_value, prev_epoch = self._last_value[i], self._last_epoch[i]
            if prev_value is None:
                gain = 1.0  # no reconstruction existed yet: maximal information
            else:
                gain = min(1.0, abs(truth - prev_value) / span)
                if abs(measured - prev_value) < cfg.delta_red * span:
                    duplicate = 1.0
                step_slope = (measured - prev_value) / ((e - prev_epoch) * span)
                self._slope[i] = (1 - SLOPE_EWMA) * self._slope[i] + SLOPE_EWMA * step_slope
            self._samples[i].append((e, float(measured)))
            self._last_value[i] = float(measured)
            self._last_epoch[i] = e
            kept_value = float(measured)
        return self._record(e, i, "sample", truth, kept_value, gain, cost / c_max, duplicate)

    # -- episode artifacts ---------------------------------------------------

    def episode_log(self) -> metrics.EpisodeLog:
        """Metrics-ready record of the finished episode."""
        if not self._done:
            raise ValueError("episode still running")
        sensors = []
        for i in range(self.num_sensors):
            lo = self._los[i]
            sensors.append(
                metrics.SensorLog(
                    self._truth[i],
                    list(self._samples[i]),
                    self._ledger[i],
                    list(self._events[i]),
                    (lo, lo + self._spans[i]),
                )
            )
        return metrics.EpisodeLog(sensors)

    def write_episode_csv(self, path) -> None:
        """Dump the per-epoch trace (actions, values, reward terms)."""
        metrics.write_csv(
            path,
            ["epoch", "sensor", "action", "true_value", "kept_value",
             "gain", "cost", "duplicate", "reward"],
            ([e, i, label, metrics.fmt(truth), "" if kept is None else metrics.fmt(kept),
              *(metrics.fmt(x) for x in terms)]
             for e, i, label, truth, kept, *terms in self._rows),
        )
