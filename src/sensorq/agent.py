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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import nn
from .errors import ConfigError, TrainingDiverged, is_int, is_real, require
from .metrics import fmt, write_csv


@dataclass
class Batch:
    """Column-major view of sampled transitions, with `rows` = arange(n)."""

    s: np.ndarray  # (n, obs_dim)
    a: np.ndarray  # (n,) int
    r: np.ndarray  # (n,)
    s2: np.ndarray  # (n, obs_dim)
    done: np.ndarray  # (n,) bool
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rows = np.arange(len(self.a))

    def __len__(self) -> int:
        return len(self.a)


class ReplayPool:
    """Bounded FIFO of transitions in preallocated ring arrays.

    Pushing past capacity evicts the oldest entry; sampling draws
    uniformly with replacement and returns None until the pool holds at
    least `batch_size` transitions (the caller skips training then).
    The arrays come from np.empty: rows are read only once pushed, and
    np.zeros would memset the whole ring (making it resident) whenever
    the allocator hands back freed heap.
    """

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        try:
            self._s = np.empty((capacity, obs_dim))
            self._a = np.empty(capacity, dtype=np.int64)
            self._r = np.empty(capacity)
            self._s2 = np.empty((capacity, obs_dim))
            self._done = np.empty(capacity, dtype=bool)
        except (MemoryError, ValueError):  # ValueError: past numpy's largest dimension
            raise ConfigError(f"replay_capacity {capacity} does not fit in memory") from None
        self._head = 0
        self._size = 0
        self._batch: Batch | None = None

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
        """`batch_size` rows drawn by one rng.integers(0, len(pool)) call,
        gathered into a Batch that the pool owns and reuses: the next
        `sample` overwrites it, so a caller that keeps a batch copies it."""
        if self._size < batch_size:
            return None
        idx = rng.integers(0, self._size, size=batch_size)
        b = self._batch
        if b is None or len(b) != batch_size:
            b = self._batch = Batch(*(np.empty((batch_size, *col.shape[1:]), col.dtype)
                                      for col in (self._s, self._a, self._r, self._s2, self._done)))
        self._s.take(idx, axis=0, out=b.s)
        self._a.take(idx, out=b.a)
        self._r.take(idx, out=b.r)
        self._s2.take(idx, axis=0, out=b.s2)
        self._done.take(idx, out=b.done)
        return b


def td_loss(
    batch: Batch, online: nn.NetworkParams, target: nn.NetworkParams, gamma: float,
    grads: nn.NetworkParams | None = None,
) -> tuple[float, nn.NetworkParams]:
    """Mean squared Bellman residual over the batch and its gradient.

    Targets come from the target network and are treated as constants:
    no gradient flows through them. The gradient goes into `grads` as in
    nn.backward_batch.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    q_next = nn.forward_batch(target, batch.s2)
    y = batch.r + gamma * q_next.max(axis=1) * ~batch.done
    acts, zs = nn.forward_cached(online, batch.s)
    q_all = acts[-1]
    rows = batch.rows
    residual = q_all[rows, batch.a] - y
    loss = float((residual**2).sum() / n)  # np.mean's sum and divide, without its wrapper
    grad_out = np.zeros(q_all.shape)
    grad_out[rows, batch.a] = 2.0 * residual / n
    return loss, nn.backward_batch(online, (acts, zs), grad_out, grads)


def select_action(
    q: Callable[[], np.ndarray], mask: np.ndarray, epsilon: float, num_actions: int,
    rng: np.random.Generator,
) -> list[int | None]:
    """Epsilon-greedy actions: None for each sensor where mask is False;
    for the others, in sensor order, a uniform action with prob eps, else
    the argmax of its row of the (sensors, num_actions) Q matrix that q()
    returns (ties -> lowest index).

    Each deciding sensor draws rng.random() when eps > 0, and
    rng.integers(num_actions) only when it explores; no draw reads Q. q()
    runs after every draw, once, and only if some deciding sensor exploits,
    so a step where every sensor explores computes no Q at all."""
    if not (num_actions >= 1 and np.ndim(mask) == 1 and 0 <= epsilon <= 1):
        raise ValueError("need num_actions >= 1, a 1-d mask and eps in [0, 1]")
    actions: list[int | None] = [None] * len(mask)
    greedy = []
    for i, decides in enumerate(mask.tolist()):
        if decides and epsilon > 0.0 and rng.random() < epsilon:
            actions[i] = int(rng.integers(num_actions))
        elif decides:
            greedy.append(i)
    if greedy:
        values = q()
        if np.shape(values) != (len(mask), num_actions):
            raise ValueError(f"q() shape {np.shape(values)}, need ({len(mask)}, {num_actions})")
        best = values.argmax(axis=1).tolist()
        for i in greedy:
            actions[i] = best[i]
    return actions


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


@dataclass
class TrainResult:
    params: nn.NetworkParams
    curve: list[tuple[int, float, float, float]]  # (episode, return, mean loss, epsilon)


@np.errstate(over="ignore", invalid="ignore")
def train(env, hypers: AgentHyperParams, episodes: int, seed: int) -> TrainResult:
    """Interact, replay, and update until the episode budget is spent.

    Per decision the pending (s, a) is closed against the next observation
    the same sensor gets to act on, with rewards accrued in between. That
    is the next epoch's while the sensor has battery; its last decision
    before the battery runs empty stays open, accruing the idle epochs'
    rewards, until the episode ends. Each sensor's open decision lives at
    index i of the lists pend_s (a row of the observation it was taken
    on: env.step builds a fresh matrix each epoch and nothing writes to
    it), pend_a, pend_r and pending.

    Each epoch the deciding sensors draw first (see select_action); the
    online network's forward over all sensors runs only if one exploits.

    The online network is updated in place. A non-finite gradient raises
    TrainingDiverged naming the seed, the episode and the train step;
    overflow on the way there is not warned about separately. A network
    too large to allocate is a ConfigError naming `hidden`.
    """
    hypers.validate()
    master = np.random.SeedSequence(seed)
    init_ss, action_ss, replay_ss = master.spawn(3)
    sizes = [env.obs_dim, *hypers.hidden, env.num_actions]
    try:
        online = nn.init_network(sizes, np.random.default_rng(init_ss))
        target = online.copy()
        opt = nn.adam_init(online, step_size=hypers.lr)
        grads = online.copy()  # every train step overwrites it
    except (MemoryError, ValueError):  # ValueError: past numpy's largest dimension
        raise ConfigError(f"hidden {list(hypers.hidden)} does not fit in memory") from None
    pool = ReplayPool(hypers.replay_capacity, env.obs_dim)
    action_rng = np.random.default_rng(action_ss)
    replay_rng = np.random.default_rng(replay_ss)

    n, num_actions = env.num_sensors, env.num_actions
    pend_s, pend_a, pend_r, pending = [None] * n, [0] * n, [0.0] * n, [False] * n

    epsilon = hypers.eps_start
    curve = []
    train_steps = 0
    for episode in range(episodes):
        obs = env.reset(seed * 1_000_003 + episode)
        ep_return = 0.0
        losses = []
        done = False
        while not done:
            actions = select_action(lambda: nn.forward_batch(online, obs), env.decision_mask,
                                    epsilon, num_actions, action_rng)
            for i, action in enumerate(actions):
                if action is None:
                    continue
                if pending[i]:
                    pool.push(pend_s[i], pend_a[i], pend_r[i], obs[i], False)
                pend_s[i], pend_a[i], pend_r[i], pending[i] = obs[i], action, 0.0, True
            rewards, obs2, done, truncated = env.step(actions)
            # sensor by sensor, left to right: a pairwise sum would move bits;
            # rows with no open decision are reset when one opens
            for i, value in enumerate(rewards.tolist()):
                ep_return += value
                pend_r[i] += value
            if done or truncated:
                terminal = done and not truncated
                for i in range(n):
                    if pending[i]:
                        pool.push(pend_s[i], pend_a[i], pend_r[i], obs2[i], terminal)
                pending = [False] * n  # the episode ends here: none stays open
            obs = obs2

            if len(pool) >= max(hypers.warmup, hypers.batch_size):
                for _ in range(hypers.train_per_step):
                    batch = pool.sample(hypers.batch_size, replay_rng)
                    loss, grads = td_loss(batch, online, target, hypers.gamma, grads)
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
