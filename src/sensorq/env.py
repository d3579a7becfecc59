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
Every other sensor needs a Python int in [0, num_actions): a bool, float
or numpy integer is rejected, not truncated. `step` checks every sensor's
action before it applies any, so a step that raises ValueError leaves
batteries, ledger, kept samples and clock unchanged. Per-sensor state lives in
Python lists, which `step` reads and writes one sensor at a time. The
episode record is four (num_sensors, T) arrays: truth, the energy ledger
(one column per step), a kept-sample mask and the kept values (one entry
per kept sample); `episode_log` hands them to the metrics as they are.

Both signal sources reduce to the same episode setup: a (num_sensors, T)
truth matrix and one (low, high) normalization range per sensor (the
configured channel range, or the series' min and max over a replayed
trace).
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
    if kw.get("replay") is not None:  # null, like no replay key, means none
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
        self._binary = config.action_mode == "binary"
        self.num_actions = 2 if self._binary else len(INTERVAL_SLEEPS)
        self._sample_costs = [config.sample_costs[k] for k in self.kinds]
        self._c_max = config.max_action_cost
        one_hot = np.eye(len(KINDS))[[KIND_INDEX[k] for k in self.kinds]]
        self._obs_template = np.hstack([np.zeros((self.num_sensors, OBS_KIND)), one_hot])
        phases = [2.0 * np.pi * e / config.signal.period for e in range(config.epochs + 1)]
        self._clock = [(float(np.sin(p)), float(np.cos(p))) for p in phases]  # OBS_SIN, OBS_COS
        self._trace = trace
        self._windows: list[int] | None = None
        self._epoch = -1  # reset() required before stepping
        self._done = False  # True once an episode has run to its end

    # -- episode lifecycle -------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        cfg = self.config
        n, T = self.num_sensors, cfg.epochs
        self._seed = int(seed)
        self._epoch = 0
        self._done = False
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([self._seed, 0xA5]))
        self._battery = [float(cfg.battery_mj)] * n
        self._last_epoch = [-1] * n
        self._slope = [0.0] * n
        self._value_obs = [0.5] * n  # OBS_VALUE before the first kept sample
        self._sleep_until = [0] * n
        self._free = [True] * n  # the decision mask
        self._last_value = [0.0] * n  # the last kept value, once _last_epoch >= 0
        # fresh arrays every episode: episode_log hands them out without a copy
        self._kept = np.zeros((n, T), dtype=bool)
        self._values = np.zeros((n, T))
        self._ledger = np.zeros((n, T))
        self._rows: list[tuple] = []

        if cfg.mode == "synthetic":
            tracks = [synth_track(kind, T, self._seed * 1_000_003 + i, cfg.signal, cfg.ranges[kind])
                      for i, kind in enumerate(self.kinds)]
            truth = [t.values for t in tracks]
            self._events = [t.events for t in tracks]
            ranges = [cfg.ranges[kind] for kind in self.kinds]
        else:
            truth, ranges = self._reset_replay()
            self._events = [detect_events(v) for v in truth]
        self._truth = np.array(truth, dtype=np.float64)
        self._los = [lo for lo, _ in ranges]
        self._spans = [hi - lo if hi > lo else 1.0 for lo, hi in ranges]
        return self._observations()

    def _reset_replay(self) -> tuple[list[np.ndarray], list[tuple[float, float]]]:
        """This seed's episode window of every replayed series, with the
        (min, max) of each series over the whole trace."""
        cfg = self.config
        if self._trace is None:
            self._trace = load_replay_trace(cfg)
        if self._windows is None:
            self._windows = self._usable_windows()
        require(self._windows, "trace has no usable episode windows")
        start = self._windows[self._seed % len(self._windows)]
        series = [(self._trace[mote], kind) for mote, kind in cfg.replay.sensors]
        return ([ms.values[kind][start : start + cfg.epochs] for ms, kind in series],
                [ms.stats[kind] for ms, kind in series])

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
        e, T, full = self._epoch, self.config.epochs, self.config.battery_mj
        sin, cos = self._clock[e]
        obs = self._obs_template.copy()  # one-hot set; fill OBS_VALUE .. OBS_COS in order
        obs[:, :OBS_KIND] = [[value, min(1.0, (e - last) / T), slope, b / full, sin, cos]
                             for value, last, slope, b in
                             zip(self._value_obs, self._last_epoch, self._slope, self._battery)]
        return obs

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def decision_mask(self) -> np.ndarray:
        """True where the policy must supply an action this epoch: the
        sensor is neither sleeping nor out of battery."""
        return np.array(self._free)

    # -- dynamics ----------------------------------------------------------

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, bool, bool]:
        """Apply one action per sensor; returns (rewards, obs, done, truncated)
        with rewards a float64 array of shape (num_sensors,).

        Every action is checked before any is applied, so a step that raises
        ValueError leaves the environment as it was."""
        if self._epoch < 0 or self._done:
            raise ValueError("reset() the environment before stepping")
        if len(actions) != self.num_sensors:
            raise ValueError(f"need {self.num_sensors} actions, got {len(actions)}")
        for i, (action, free) in enumerate(zip(actions, self._free)):
            if free and not (is_int(action, 0) and action < self.num_actions):
                raise ValueError(f"sensor {i}: invalid action {action!r}")
            if not (free or action is None or self._binary and is_int(action, 0) and action == SKIP):
                raise ValueError(f"sensor {i} cannot act this epoch (dormant or empty)")
        checked = [action if free else None for action, free in zip(actions, self._free)]  # None idles

        cfg = self.config
        info_w, energy_w, redundancy_w = cfg.weights.as_tuple()
        e = self._epoch
        battery, binary = self._battery, self._binary
        rewards, drawn_mj = [], []
        for i, (action, truth, span) in enumerate(zip(checked, self._truth[:, e].tolist(), self._spans)):
            sampling = action is not None and not (binary and action == SKIP)
            cost = self._sample_costs[i] if sampling else cfg.idle_cost
            drawn = min(battery[i], cost)
            battery[i] -= drawn
            drawn_mj.append(drawn)
            gain = duplicate = 0.0
            kept_value = None
            if not sampling:
                label = "idle" if action is None else "skip"
            else:
                label = "sample"
                if not binary:
                    self._sleep_until[i] = e + INTERVAL_SLEEPS[action]
                measured, kept = inject_interference(
                    truth, cfg.eta, self._noise_rng, cfg.noise_beta, span, cfg.drop_prob
                )
                if kept:
                    kept_value = float(measured)
                    prev_epoch, prev_value = self._last_epoch[i], self._last_value[i]
                    if prev_epoch < 0:
                        gain = 1.0  # no reconstruction existed yet: maximal information
                    else:
                        gain = min(1.0, abs(truth - prev_value) / span)
                        if abs(kept_value - prev_value) < cfg.delta_red * span:
                            duplicate = 1.0
                        step_slope = (kept_value - prev_value) / ((e - prev_epoch) * span)
                        self._slope[i] = (1 - SLOPE_EWMA) * self._slope[i] + SLOPE_EWMA * step_slope
                    self._kept[i, e], self._values[i, e] = True, kept_value
                    self._last_epoch[i], self._last_value[i] = e, kept_value
                    self._value_obs[i] = min(1.0, max(0.0, (kept_value - self._los[i]) / span))
            cost /= self._c_max
            total = info_w * gain - energy_w * cost - redundancy_w * duplicate
            self._rows.append((e, i, label, truth, kept_value, gain, cost, duplicate, total))
            rewards.append(total)
        self._ledger[:, e] = drawn_mj
        self._epoch = e = e + 1
        self._done = e == cfg.epochs
        self._free = [until <= e and b > 0.0 for until, b in zip(self._sleep_until, battery)]
        return np.array(rewards), self._observations(), self._done, False

    # -- episode artifacts ---------------------------------------------------

    def _require_finished(self) -> None:
        if not self._done:
            raise ValueError("no finished episode: reset() and step to the end first")

    def episode_log(self) -> metrics.EpisodeLog:
        """Metrics-ready record of the finished episode, over the env's own
        arrays (the next reset allocates new ones)."""
        self._require_finished()
        return metrics.EpisodeLog(self._truth, self._ledger, self._kept, self._values,
                                  self._events, np.array(self._spans))

    def write_episode_csv(self, path) -> None:
        """Dump the per-epoch trace (actions, values, reward terms) of the
        finished episode."""
        self._require_finished()
        metrics.write_csv(
            path,
            ["epoch", "sensor", "action", "true_value", "kept_value",
             "gain", "cost", "duplicate", "reward"],
            ([e, i, label, metrics.fmt(truth), "" if kept is None else metrics.fmt(kept),
              *(metrics.fmt(x) for x in terms)]
             for e, i, label, truth, kept, *terms in self._rows),
        )
