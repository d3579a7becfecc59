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

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .errors import ConfigError
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
        if min(self.info, self.energy, self.redundancy) < 0:
            raise ConfigError("reward weights must be non-negative")
        if self.info == self.energy == self.redundancy == 0:
            raise ConfigError("reward weights must not all be zero")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.info, self.energy, self.redundancy)


@dataclass
class ReplayConfig:
    """Trace-driven mode: sensors map to (mote, channel) series.

    start_slot/end_slot restrict which part of the trace supplies
    episodes (a time-range split for separating train and evaluation
    data); None means unbounded.
    """

    sensors: list[tuple[int, str]]
    path: str | None = None
    delta_t: float = 60.0
    min_presence: float = 0.5
    start_slot: int = 0
    end_slot: int | None = None


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
        for name in ("epochs", "detection_window"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer")
        for name in ("idle_cost", "battery_mj", "delta_red", "eta", "noise_beta", "drop_prob"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ConfigError(f"{name} must be a number")
        if self.mode not in ("synthetic", "replay"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "replay":
            if self.replay is None or not self.replay.sensors:
                raise ConfigError("replay mode needs a replay section with sensors")
            dt = self.replay.delta_t
            if not (isinstance(dt, numbers.Real) and math.isfinite(dt) and dt > 0):
                raise ConfigError("replay delta_t must be a finite number > 0")
            kinds = [k for _, k in self.replay.sensors]
        else:
            kinds = list(self.sensors)
        if not kinds:
            raise ConfigError("need at least one sensor")
        for k in kinds:
            if k not in KIND_INDEX:
                raise ConfigError(f"unknown channel kind {k!r}")
        if self.epochs < 2:
            raise ConfigError("episodes need at least 2 epochs")
        if self.idle_cost < 0 or any(self.sample_costs.get(k, -1) < 0 for k in kinds):
            raise ConfigError("energy costs must be non-negative")
        if self.battery_mj <= 0:
            raise ConfigError("initial battery must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("interference level must lie in [0, 1]")
        if min(self.noise_beta, self.delta_red, self.detection_window) < 0:
            raise ConfigError("noise_beta, delta_red and detection_window must be non-negative")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ConfigError("drop_prob must lie in [0, 1]")
        if self.action_mode not in ("binary", "interval"):
            raise ConfigError(f"unknown action mode {self.action_mode!r}")
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
    """Build an EnvConfig from the documented JSON schema (env section).

    Malformed nested values raise TypeError or ValueError, which
    experiments.spec_from_file turns into a ConfigError."""
    known = dict(raw)
    cfg = EnvConfig()
    if "weights" in known:
        w = known.pop("weights")
        cfg = replace(cfg, weights=RewardWeights(
            float(w.get("info", 0.6)), float(w.get("energy", 0.2)), float(w.get("redundancy", 0.2))
        ))
    if "signal" in known:
        cfg = replace(cfg, signal=SignalParams(**known.pop("signal")))
    if "ranges" in known:
        r = known.pop("ranges")
        cfg = replace(cfg, ranges={k: (float(lo), float(hi)) for k, (lo, hi) in r.items()})
    if "replay" in known:
        r = known.pop("replay")
        end = r.get("end_slot")
        cfg = replace(cfg, replay=ReplayConfig(
            sensors=[(int(m), str(k)) for m, k in r.get("sensors", [])],
            path=r.get("path"),
            delta_t=float(r.get("delta_t", 60.0)),
            min_presence=float(r.get("min_presence", 0.5)),
            start_slot=int(r.get("start_slot", 0)),
            end_slot=None if end is None else int(end),
        ))
    for key, value in known.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown env config key {key!r}")
        cfg = replace(cfg, **{key: value})
    cfg.validate()
    return cfg


def load_replay_trace(config: EnvConfig) -> dict | None:
    """The hold-filled series of the trace a replay config names, read once
    so that every SensorEnv(config, trace) replaying it can share them;
    None in synthetic mode."""
    if config.mode != "replay":
        return None
    if not config.replay.path:
        raise ConfigError("replay mode needs preloaded series or a trace path")
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
        if not self._windows:
            raise ConfigError("trace has no usable episode windows")
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
            if mote not in self._trace:
                raise ConfigError(f"mote {mote} missing from trace")
            ms = self._trace[mote]
            last = len(ms.present) if cfg.replay.end_slot is None else cfg.replay.end_slot
            if last - first < T:
                raise ConfigError(f"trace range for mote {mote} shorter than one episode")
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
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["epoch", "sensor", "action", "true_value", "kept_value",
                 "gain", "cost", "duplicate", "reward"]
            )
            for e, i, label, truth, kept, *terms in self._rows:
                writer.writerow(
                    [e, i, label, metrics.fmt(truth),
                     "" if kept is None else metrics.fmt(kept),
                     *(metrics.fmt(x) for x in terms)]
                )
