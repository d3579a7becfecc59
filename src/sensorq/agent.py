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

where rewards is a float64 array of shape (num_sensors,) and `truncated`
marks horizon cut-offs that should still bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import TrainingDiverged, is_int, is_real, require, require_keys
from .metrics import fmt, write_csv


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

    def push(self, s: np.ndarray, a: int, r: float, s2: np.ndarray, done: bool) -> None:
        i = self._head
        self._s[i] = s
        self._a[i] = a
        self._r[i] = r
        self._s2[i] = s2
        self._done[i] = done
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch | None:
        if self._size < batch_size:
            return None
        idx = rng.integers(0, self._size, size=batch_size)
        return Batch(self._s[idx], self._a[idx], self._r[idx], self._s2[idx], self._done[idx])


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
    acts, zs = nn.forward_cached(online, batch.s)
    q_all = acts[-1]
    q_sa = q_all[np.arange(n), batch.a]
    residual = q_sa - y
    loss = float(np.mean(residual**2))
    grad_out = np.zeros_like(q_all)
    grad_out[np.arange(n), batch.a] = 2.0 * residual / n
    grads = nn.backward_batch(online, (acts, zs), grad_out)
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

    def validate(self) -> None:
        require(is_real(self.gamma, 0.0, 1.0), "gamma must lie in [0, 1]")
        require(all(is_real(x, 0.0, 1.0) and x > 0 for x in (self.tau, self.eps_decay)),
                "tau and eps_decay must lie in (0, 1]")
        require(is_real(self.eps_start, 0.0, 1.0), "eps_start must lie in [0, 1]")
        require(is_real(self.eps_min, 0.0, self.eps_start), "eps_min must lie in [0, eps_start]")
        require(is_real(self.lr) and self.lr > 0, "lr must be a number > 0")
        require(is_int(self.batch_size, 1), "batch_size must be an integer >= 1")
        require(is_int(self.replay_capacity, self.batch_size),
                "replay_capacity must be an integer >= batch_size")
        require(all(is_int(n, 0) for n in (self.warmup, self.train_per_step)),
                "warmup and train_per_step must be integers >= 0")
        require(isinstance(self.hidden, (list, tuple)) and all(is_int(n, 1) for n in self.hidden),
                "hidden must be a list of integers >= 1")


def hypers_from_dict(raw: dict) -> AgentHyperParams:
    """Build and validate hyperparameters from the `agent` config section;
    malformed values raise TypeError or ValueError."""
    raw = require_keys(raw, AgentHyperParams.__dataclass_fields__, "agent")
    hp = AgentHyperParams(**{k: tuple(v) if k == "hidden" else v for k, v in raw.items()})
    hp.validate()
    return hp


@dataclass
class TrainResult:
    params: nn.NetworkParams
    curve: list[tuple[int, float, float, float]]  # (episode, return, mean loss, epsilon)


@np.errstate(over="ignore", invalid="ignore")
def train(env, hypers: AgentHyperParams, episodes: int, seed: int) -> TrainResult:
    """Interact, replay, and update until the episode budget is spent.

    Per decision the pending (s, a) is closed against the next observation
    the same sensor gets to act on, with rewards accrued in between; in
    binary mode that reduces to ordinary one-step transitions. Each
    sensor's open decision lives in row i of pend_s/pend_a/pend_r.

    The online network is updated in place. A non-finite gradient raises
    TrainingDiverged naming the seed, the episode and the train step;
    overflow on the way there is not warned about separately.
    """
    hypers.validate()
    master = np.random.SeedSequence(seed)
    init_ss, action_ss, replay_ss = master.spawn(3)
    sizes = [env.obs_dim, *hypers.hidden, env.num_actions]
    online = nn.init_network(sizes, np.random.default_rng(init_ss))
    target = online.copy()
    opt = nn.adam_init(online, step_size=hypers.lr)
    pool = ReplayPool(hypers.replay_capacity, env.obs_dim)
    action_rng = np.random.default_rng(action_ss)
    replay_rng = np.random.default_rng(replay_ss)

    n = env.num_sensors
    pend_s = np.zeros((n, env.obs_dim))
    pend_a = np.zeros(n, dtype=np.int64)
    pend_r = np.zeros(n)
    pending = np.zeros(n, dtype=bool)

    epsilon = hypers.eps_start
    curve = []
    train_steps = 0
    for episode in range(episodes):
        obs = env.reset(seed * 1_000_003 + episode)
        ep_return = 0.0
        losses = []
        done = False
        while not done:
            mask = env.decision_mask
            q = nn.forward_batch(online, obs)
            actions: list[int | None] = [None] * n
            for i in range(n):
                if not mask[i]:
                    continue
                if pending[i]:
                    pool.push(pend_s[i], pend_a[i], pend_r[i], obs[i], False)
                actions[i] = select_action(q[i], epsilon, action_rng)
                pend_s[i], pend_a[i], pend_r[i], pending[i] = obs[i], actions[i], 0.0, True
            rewards, obs2, done, truncated = env.step(actions)
            # sensor by sensor, left to right: a pairwise sum would move bits
            for value in rewards.tolist():
                ep_return += value
            pend_r += rewards  # rows with no open decision are reset when one opens
            if done or truncated:
                terminal = done and not truncated
                for i in np.flatnonzero(pending):
                    pool.push(pend_s[i], pend_a[i], pend_r[i], obs2[i], terminal)
                pending[:] = False  # the episode ends here: none stays open
            obs = obs2

            if len(pool) >= max(hypers.warmup, hypers.batch_size):
                for _ in range(hypers.train_per_step):
                    batch = pool.sample(hypers.batch_size, replay_rng)
                    loss, grads = td_loss(batch, online, target, hypers.gamma)
                    try:
                        online, opt = nn.adam_step(online, grads, opt)
                    except ValueError as exc:
                        raise TrainingDiverged(
                            f"training diverged at seed {seed}, episode {episode}, "
                            f"train step {train_steps + 1}: {exc}"
                        ) from exc
                    train_steps += 1
                    losses.append(loss)
                    target = nn.soft_update(online, target, hypers.tau)
            if done or truncated:
                break
        mean_loss = float(np.mean(losses)) if losses else 0.0
        curve.append((episode, ep_return, mean_loss, epsilon))
        epsilon = decay_epsilon(epsilon, hypers.eps_decay, hypers.eps_min)
    return TrainResult(online, curve)


def write_curve_csv(result: TrainResult, path) -> None:
    write_csv(
        path, ["episode", "return", "mean_loss", "epsilon"],
        ([episode, fmt(ep_return), fmt(mean_loss), fmt(epsilon)]
         for episode, ep_return, mean_loss, epsilon in result.curve),
    )
