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
the rewards as one float64 array of shape (num_sensors,); `reward_terms`
rebuilds all four terms, (num_sensors, T) each, from the episode record.

Actions: 0 = skip, 1 = sample. A sensor out of battery takes no
decision; callers must pass None (or 0) for it, anything else is
rejected. Every other sensor needs a Python int in [0, num_actions): a
bool, float or numpy integer is rejected, not truncated. `step` checks
every sensor's action before it applies any, so a step that raises
ValueError leaves batteries, ledger, kept samples and clock unchanged.
Per-sensor state lives in Python lists, which `step` reads and writes
one sensor at a time. The episode record is five (num_sensors, T)
arrays: truth, the energy ledger and the action labels (one column each
per step), a kept-sample mask and the kept values; `episode_log` hands
all but the labels to the metrics.

Both signal sources reduce to the same episode setup: a (num_sensors, T)
truth matrix and one (low, high) normalization range per sensor (the
configured channel range, or the trace's min and max). A replayed trace is
ingest's Trace grid; sensor (mote, kind) reads its values[k, c] row, held
over gaps, and its low/high[k, c]. EpisodeInputs builds that setup once
per episode and experiment: every policy, eta and weight triple evaluated
on an episode shares it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .errors import ConfigError, from_json, is_int, is_real, require
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

SKIP, SAMPLE, IDLE = 0, 1, 2  # the two actions; all three are the int8 action labels of the record
ACTION_LABELS = ("skip", "sample", "idle")  # the episode CSV's name for each label

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


def _is_pair(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2


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

    sensors: list[tuple[int, str]] = field(default_factory=list)
    path: str | None = None
    delta_t: float = 60.0
    min_presence: float = 0.5
    start_slot: int = 0
    end_slot: int | None = None

    def validate(self) -> None:
        require(isinstance(self.sensors, (list, tuple)) and all(map(_is_pair, self.sensors)),
                "replay sensors must be a list of [mote, channel] pairs")
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
        ranges = self.ranges  # read in synthetic mode only, but checked in both
        require(isinstance(ranges, dict)
                and all(_is_pair(r) and all(map(is_real, r)) and is_real(r[1] - r[0], 0.0)
                        for r in ranges.values())
                and (self.mode == "replay" or all(k in ranges for k in kinds)),
                "ranges need a [low, high] pair of numbers, low <= high and high - low finite, "
                "for every sensor kind")
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
    """Read (errors.from_json) and validate an EnvConfig from the env
    section of the documented JSON schema."""
    cfg = from_json(EnvConfig, raw, "env")
    cfg.validate()
    return cfg


def _inputs_key(config: EnvConfig) -> EnvConfig:
    """The config but eta and the reward weights, which sweeps vary and
    episode inputs never read: configs with one key share their inputs."""
    return replace(config, eta=0.0, weights=RewardWeights())


class EpisodeInputs:
    """What every SensorEnv of one experiment shares: the inputs that depend
    on neither eta, the reward weights nor the policy.

    That is the observation clock, each sensor's normalization (low, span),
    a memo from episode to its (truth, events), and in replay mode `series`,
    the configured (mote, channel) rows of the trace (read once), hold-filled
    by metrics.zoh_hold, as one read-only (num_sensors, n_slots) matrix, and
    the start slots of its usable episode windows; a replay episode's truth
    is a view of its window. The first env to reset to an episode (a seed, or
    a replay window) fills the memo and every later one reads it, so the
    truth matrices are read-only. Experiments build one per call and drop it
    on return; a SensorEnv built without one gets its own, with no memo.
    """

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self.key = _inputs_key(config)
        try:
            phases = 2.0 * np.pi * np.arange(config.epochs + 1) / config.signal.period
        except (MemoryError, ValueError):  # ValueError: past numpy's largest dimension
            raise ConfigError(f"epochs {config.epochs} does not fit in memory") from None
        self.clock = list(zip(np.sin(phases).tolist(), np.cos(phases).tolist()))  # OBS_SIN, OBS_COS
        self.memo: dict | None = {}
        if config.mode == "synthetic":
            self.series, self.windows = None, []
            low, high = np.array([config.ranges[kind] for kind in config.sensor_kinds], dtype=float).T
        else:
            rc, T = config.replay, config.epochs
            require(rc.path, "replay mode needs a trace path")
            from . import ingest

            trace, _ = ingest.load_trace(rc.path, delta_t=rc.delta_t)
            for mote, _ in rc.sensors:
                require(mote in trace.motes, f"mote {mote} missing from trace")
            rows = [trace.motes.index(mote) for mote, _ in rc.sensors]
            channels = [KIND_INDEX[kind] for _, kind in rc.sensors]
            present = trace.present[rows]
            self.series = metrics.zoh_hold(present, trace.values[rows, channels])
            self.series.flags.writeable = False
            first, last = rc.start_slot, min(present.shape[1], rc.end_slot or present.shape[1])
            n = (last - first) // T  # windows laid end to end from start_slot, inside the trace
            require(n > 0, f"trace range for mote {rc.sensors[0][0]} shorter than one episode")
            shares = present[:, first : first + n * T].reshape(len(present), n, T).mean(axis=2)
            self.windows = (first + T * np.flatnonzero((shares >= rc.min_presence).all(axis=0))).tolist()
            require(self.windows, "trace has no usable episode windows")
            low, high = trace.low[rows, channels], trace.high[rows, channels]
        self.los, self.spans = low.tolist(), metrics.spans(low, high).tolist()

    def without_memo(self) -> EpisodeInputs:
        """The same inputs with no memo, for training: its seeds never repeat."""
        twin = copy.copy(self)
        twin.memo = None
        return twin

    def episode(self, seed: int) -> tuple[np.ndarray, list]:
        """(truth, events) of the episode `seed`: a read-only (num_sensors, T)
        truth matrix and each sensor's event epochs. Replay mode plays the
        window `seed` picks, with the events detected in it."""
        cfg, memo = self.config, self.memo
        key = seed if cfg.mode == "synthetic" else self.windows[seed % len(self.windows)]
        if memo is not None and key in memo:
            return memo[key]
        if cfg.mode == "synthetic":
            tracks = [synth_track(kind, cfg.epochs, seed * 1_000_003 + i, cfg.signal, cfg.ranges[kind])
                      for i, kind in enumerate(cfg.sensor_kinds)]
            truth, events = np.array([t.values for t in tracks]), [t.events for t in tracks]
            truth.flags.writeable = False
        else:  # a view of the read-only series: read-only too
            truth = self.series[:, key : key + cfg.epochs]
            events = [detect_events(v) for v in truth]
        if memo is not None:
            memo[key] = truth, events
        return truth, events


class SensorEnv:
    """Multi-sensor sampling environment over synthetic or replayed signals.

    One instance is single-threaded and owns all of its randomness; a
    (config, seed) pair fully determines an episode. `inputs` is the
    experiment's EpisodeInputs, built for a config that differs from this
    one at most in eta and the reward weights; without it the env builds
    its own.
    """

    obs_dim = OBS_DIM
    num_actions = 2  # SKIP, SAMPLE

    def __init__(self, config: EnvConfig, inputs: EpisodeInputs | None = None):
        if inputs is None:  # EpisodeInputs validates the config
            inputs = EpisodeInputs(config).without_memo()
        else:
            config.validate()
        require(inputs.key == _inputs_key(config), "episode inputs were built for another config")
        self.config = config
        self._inputs = inputs
        self.kinds = config.sensor_kinds
        self.num_sensors = len(self.kinds)
        self._sample_costs = [config.sample_costs[k] for k in self.kinds]
        self._c_max = c_max = config.max_action_cost
        info_w, energy_w, redundancy_w = self._weights = config.weights.as_tuple()
        self._scaled_costs = [cost / c_max for cost in self._sample_costs]  # the reward's cost term
        self._idle_reward = info_w * 0.0 - energy_w * (config.idle_cost / c_max) - redundancy_w * 0.0
        one_hot = np.eye(len(KINDS))[[KIND_INDEX[k] for k in self.kinds]]
        self._obs_template = np.hstack([np.zeros((self.num_sensors, OBS_KIND)), one_hot])
        self._clock, self._los, self._spans = inputs.clock, inputs.los, inputs.spans
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
        self._free = [True] * n  # the decision mask
        self._last_value = [0.0] * n  # the last kept value, once _last_epoch >= 0
        # fresh arrays every episode: episode_log hands them out without a copy
        self._kept = np.zeros((n, T), dtype=bool)
        self._values = np.zeros((n, T))
        self._kept_rows, self._value_rows = list(self._kept), list(self._values)  # views: cheaper writes
        self._ledger = np.zeros((n, T))
        self._labels = np.zeros((n, T), dtype=np.int8)
        self._truth, self._events = self._inputs.episode(self._seed)
        return self._observations()

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
        sensor is not out of battery."""
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
        n_actions = self.num_actions
        for i, (action, free) in enumerate(zip(actions, self._free)):
            whole = isinstance(action, int) and type(action) is not bool  # is_int's rule, inline
            if free and not (whole and 0 <= action < n_actions):
                raise ValueError(f"sensor {i}: invalid action {action!r}")
            if not (free or action is None or whole and action == SKIP):
                raise ValueError(f"sensor {i} cannot act this epoch (out of battery)")

        cfg = self.config
        info_w, energy_w, redundancy_w = self._weights
        e, battery, idle_cost = self._epoch, self._battery, cfg.idle_cost
        rewards, drawn_mj, labels = [], [], []
        for i, (action, free, truth, span) in enumerate(
                zip(actions, self._free, self._truth[:, e].tolist(), self._spans)):
            idle = not free or action == SKIP
            drawn = min(battery[i], idle_cost if idle else self._sample_costs[i])
            battery[i] -= drawn
            drawn_mj.append(drawn)
            if idle:  # no gain, no duplicate
                labels.append(SKIP if free else IDLE)
                rewards.append(self._idle_reward)
                continue
            labels.append(SAMPLE)
            gain = duplicate = 0.0
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
                self._kept_rows[i][e], self._value_rows[i][e] = True, kept_value
                self._last_epoch[i], self._last_value[i] = e, kept_value
                self._value_obs[i] = min(1.0, max(0.0, (kept_value - self._los[i]) / span))
            rewards.append(info_w * gain - energy_w * self._scaled_costs[i] - redundancy_w * duplicate)
        self._ledger[:, e], self._labels[:, e] = drawn_mj, labels
        self._epoch = e = e + 1
        self._done = e == cfg.epochs
        self._free = [b > 0.0 for b in battery]
        return np.array(rewards), self._observations(), self._done, False

    # -- episode artifacts ---------------------------------------------------

    def episode_log(self) -> metrics.EpisodeLog:
        """Metrics-ready record of the finished episode, without copies. The
        kept mask, values and ledger are the env's own arrays, which the next
        reset replaces; the truth matrix is read-only and shared with every
        env of the experiment that plays this episode."""
        if not self._done:
            raise ValueError("no finished episode: reset() and step to the end first")
        return metrics.EpisodeLog(self._truth, self._ledger, self._kept, self._values,
                                  self._events, np.array(self._spans))

    def reward_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(gain, cost, duplicate, reward) of the finished episode, (num_sensors, T) each, by
        the step's own float expressions: reward equals the stacked `step` rewards bit for bit."""
        cfg, log, w = self.config, self.episode_log(), self.config.weights
        drift = np.abs(log.truth - np.roll(log.held, 1, axis=1)) / log.spans[:, None]
        gain = np.where(log.later, np.minimum(1.0, drift), log.kept)  # 1.0 at a sensor's first sample
        cost = np.where(self._labels == SAMPLE, np.c_[self._sample_costs], cfg.idle_cost) / self._c_max
        duplicate = metrics.duplicates(log, cfg.delta_red).astype(np.float64)
        return gain, cost, duplicate, w.info * gain - w.energy * cost - w.redundancy * duplicate

    def write_episode_csv(self, path) -> None:
        """Dump the per-epoch trace (actions, values, reward terms) of the
        finished episode, one row per (epoch, sensor)."""
        log, fmt = self.episode_log(), metrics.fmt
        arrays = (self._labels, log.truth, log.kept, log.values, *self.reward_terms())
        metrics.write_csv(
            path,
            ["epoch", "sensor", "action", "true_value", "kept_value",
             "gain", "cost", "duplicate", "reward"],
            ([e, i, ACTION_LABELS[label], fmt(truth), fmt(value) if kept else "", *map(fmt, terms)]
             for e, epoch in enumerate(zip(*(a.T.tolist() for a in arrays)))
             for i, (label, truth, kept, value, *terms) in enumerate(zip(*epoch))),
        )
