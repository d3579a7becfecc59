"""Q-learning agent: replay pool, targets, loss, and the training loop.

One network is shared by every sensor (the channel one-hot in the
observation tells them apart), so the action set stays fixed as the
sensor count grows. Training is strictly seeded: a (configs, seed) pair
reproduces the run bit for bit on the same build.

The training loop talks to any environment exposing

    obs_dim, num_actions, num_sensors
    reset(seed) -> (num_sensors, obs_dim) observation matrix
    decision_mask -> bool array, True where an action is required
    step(actions) -> (rewards, obs, done, truncated)

where rewards may be floats or objects with a .total attribute, and
`truncated` marks horizon cut-offs that should still bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import ConfigError


@dataclass
class Transition:
    s: np.ndarray
    a: int
    r: float
    s2: np.ndarray
    done: bool


@dataclass
class Batch:
    """Column-major view of sampled transitions."""

    s: np.ndarray  # (n, obs_dim)
    a: np.ndarray  # (n,) int
    r: np.ndarray  # (n,)
    s2: np.ndarray  # (n, obs_dim)
    done: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return len(self.a)


class ReplayPool:
    """Bounded FIFO of transitions backed by preallocated arrays.

    Pushing past capacity evicts the oldest entry; sampling draws
    uniformly with replacement and returns None until the pool holds at
    least `batch_size` transitions (the caller skips training then).
    """

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._s = np.zeros((capacity, obs_dim))
        self._a = np.zeros(capacity, dtype=np.int64)
        self._r = np.zeros(capacity)
        self._s2 = np.zeros((capacity, obs_dim))
        self._done = np.zeros(capacity, dtype=bool)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> None:
        i = self._head
        self._s[i] = t.s
        self._a[i] = t.a
        self._r[i] = t.r
        self._s2[i] = t.s2
        self._done[i] = t.done
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def contents(self) -> list[Transition]:
        """Oldest-to-newest snapshot (for tests and debugging)."""
        if self._size < self.capacity:
            order = range(self._size)
        else:
            order = [(self._head + k) % self.capacity for k in range(self.capacity)]
        return [
            Transition(self._s[i].copy(), int(self._a[i]), float(self._r[i]),
                       self._s2[i].copy(), bool(self._done[i]))
            for i in order
        ]

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch | None:
        if self._size < batch_size:
            return None
        idx = rng.integers(0, self._size, size=batch_size)
        return Batch(self._s[idx], self._a[idx], self._r[idx], self._s2[idx], self._done[idx])


def bellman_target(r: float, gamma: float, q_next: np.ndarray, done: bool) -> float:
    """Target value: r when terminal, else r + gamma * max(q_next)."""
    q_next = np.asarray(q_next, dtype=np.float64)
    if q_next.size == 0:
        raise ValueError("q_next must be non-empty")
    if done:
        return float(r)
    return float(r + gamma * q_next.max())


def td_loss(
    batch: Batch, online: nn.NetworkParams, target: nn.NetworkParams, gamma: float
) -> tuple[float, nn.NetworkParams]:
    """Mean squared Bellman residual over the batch and its gradient.

    Targets come from the target network and are treated as constants:
    no gradient flows through them.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    q_next = nn.forward_batch(target, batch.s2)
    y = batch.r + gamma * q_next.max(axis=1) * ~batch.done
    q_all = nn.forward_batch(online, batch.s)
    q_sa = q_all[np.arange(n), batch.a]
    residual = q_sa - y
    loss = float(np.mean(residual**2))
    grad_out = np.zeros_like(q_all)
    grad_out[np.arange(n), batch.a] = 2.0 * residual / n
    grads = nn.backward_batch(online, batch.s, grad_out)
    return loss, grads


def select_action(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy: argmax with prob 1 - eps (ties -> lowest index),
    uniform over all actions with prob eps."""
    q_values = np.asarray(q_values)
    if q_values.size == 0:
        raise ValueError("q_values must be non-empty")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q_values.size))
    return int(np.argmax(q_values))


def decay_epsilon(epsilon: float, rho: float, eps_min: float) -> float:
    """Geometric decay with a floor, applied once per episode."""
    return max(eps_min, epsilon * rho)


@dataclass
class AgentHyperParams:
    gamma: float = 0.95
    tau: float = 0.005
    eps_start: float = 1.0
    eps_min: float = 0.05
    eps_decay: float = 0.995
    batch_size: int = 64
    replay_capacity: int = 50_000
    warmup: int = 500
    train_per_step: int = 1
    lr: float = 1e-3
    hidden: tuple[int, ...] = (64, 64)
    hard_copy_every: int | None = None  # optional hard target copy instead of soft updates

    def validate(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not 0.0 < self.eps_decay <= 1.0:
            raise ValueError("eps_decay must lie in (0, 1]")
        if self.eps_min > self.eps_start:
            raise ValueError("eps_min cannot exceed eps_start")
        if self.batch_size < 1 or min(self.replay_capacity, self.warmup, self.train_per_step) < 0:
            raise ValueError("batch_size must be >= 1 and the other sizes non-negative")


def hypers_from_dict(raw: dict) -> AgentHyperParams:
    """Build and validate hyperparameters from the `agent` config section."""
    try:
        hp = AgentHyperParams(**{k: tuple(v) if k == "hidden" else v for k, v in raw.items()})
        hp.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad agent config: {exc}") from exc
    return hp


@dataclass
class TrainResult:
    params: nn.NetworkParams
    curve: list[tuple[int, float, float, float]]  # (episode, return, mean loss, epsilon)
    hypers: AgentHyperParams = field(repr=False, default=None)


def _reward_value(r) -> float:
    return r.total if hasattr(r, "total") else float(r)


def train(env, hypers: AgentHyperParams, episodes: int, seed: int) -> TrainResult:
    """Interact, replay, and update until the episode budget is spent.

    Per decision the pending (s, a) is closed against the next observation
    the same sensor gets to act on, with rewards accrued in between; in
    binary mode that reduces to ordinary one-step transitions.
    """
    hypers.validate()
    master = np.random.SeedSequence(seed)
    init_ss, action_ss, replay_ss = master.spawn(3)
    sizes = [env.obs_dim, *hypers.hidden, env.num_actions]
    online = nn.init_network(sizes, np.random.default_rng(init_ss))
    target = online.copy()
    opt = nn.adam_init(online, step_size=hypers.lr)
    pool = ReplayPool(max(hypers.replay_capacity, 1), env.obs_dim)
    action_rng = np.random.default_rng(action_ss)
    replay_rng = np.random.default_rng(replay_ss)

    epsilon = hypers.eps_start
    curve = []
    train_steps = 0
    for episode in range(episodes):
        obs = env.reset(seed * 1_000_003 + episode)
        pending: list[tuple[np.ndarray, int, float] | None] = [None] * env.num_sensors
        ep_return = 0.0
        losses = []
        done = False
        while not done:
            mask = env.decision_mask
            q = nn.forward_batch(online, obs)
            actions: list[int | None] = [None] * env.num_sensors
            for i in range(env.num_sensors):
                if not mask[i]:
                    continue
                if pending[i] is not None:
                    s, a, acc = pending[i]
                    pool.push(Transition(s, a, acc, obs[i], False))
                actions[i] = select_action(q[i], epsilon, action_rng)
                pending[i] = (obs[i].copy(), actions[i], 0.0)
            rewards, obs2, done, truncated = env.step(actions)
            for i in range(env.num_sensors):
                value = _reward_value(rewards[i])
                ep_return += value
                if pending[i] is not None:
                    s, a, acc = pending[i]
                    pending[i] = (s, a, acc + value)
            if done or truncated:
                terminal = done and not truncated
                for i in range(env.num_sensors):
                    if pending[i] is not None:
                        s, a, acc = pending[i]
                        pool.push(Transition(s, a, acc, obs2[i], terminal))
                        pending[i] = None
            obs = obs2

            if len(pool) >= max(hypers.warmup, hypers.batch_size):
                for _ in range(hypers.train_per_step):
                    batch = pool.sample(hypers.batch_size, replay_rng)
                    loss, grads = td_loss(batch, online, target, hypers.gamma)
                    online, opt = nn.adam_step(online, grads, opt)
                    train_steps += 1
                    losses.append(loss)
                    if hypers.hard_copy_every:
                        if train_steps % hypers.hard_copy_every == 0:
                            target = online.copy()
                    else:
                        target = nn.soft_update(online, target, hypers.tau)
            if done or truncated:
                break
        mean_loss = float(np.mean(losses)) if losses else 0.0
        curve.append((episode, ep_return, mean_loss, epsilon))
        epsilon = decay_epsilon(epsilon, hypers.eps_decay, hypers.eps_min)
    return TrainResult(online, curve, hypers)


def write_curve_csv(result: TrainResult, path) -> None:
    import csv

    from .metrics import fmt

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "return", "mean_loss", "epsilon"])
        for episode, ep_return, mean_loss, epsilon in result.curve:
            writer.writerow([episode, fmt(ep_return), fmt(mean_loss), fmt(epsilon)])
