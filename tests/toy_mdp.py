"""A 2-state, 2-action deterministic MDP with a known optimum.

    state 0: action 0 (stay) -> state 0, reward 0.1
             action 1 (go)   -> state 1, reward 0.0
    state 1: action 0 (back) -> state 0, reward 0.0
             action 1 (end)  -> terminal, reward 5.0

With gamma = 0.9 value iteration gives Q* = [[4.15, 4.5], [4.05, 5.0]]
and the optimal policy is (go, end). Episodes are capped at a horizon;
the cap is reported as truncation so targets still bootstrap.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0.9
Q_STAR = [[4.15, 4.5], [4.05, 5.0]]
OPTIMAL = [1, 1]


def mdp_step(state: int, action: int):
    """(reward, next_state, terminal) for the deterministic dynamics."""
    if state == 0:
        return (0.1, 0, False) if action == 0 else (0.0, 1, False)
    return (0.0, 0, False) if action == 0 else (5.0, 0, True)


class ToyMdpEnv:
    obs_dim = 2
    num_actions = 2
    num_sensors = 1

    def __init__(self, horizon: int = 8):
        self.horizon = horizon
        self._state = 0
        self._steps = 0

    def _obs(self) -> np.ndarray:
        out = np.zeros((1, 2))
        out[0, self._state] = 1.0
        return out

    def reset(self, seed: int) -> np.ndarray:
        self._state = 0
        self._steps = 0
        return self._obs()

    @property
    def decision_mask(self) -> np.ndarray:
        return np.array([True])

    def step(self, actions):
        reward, nxt, terminal = mdp_step(self._state, int(actions[0]))
        self._state = nxt
        self._steps += 1
        truncated = not terminal and self._steps >= self.horizon
        return np.array([reward]), self._obs(), terminal, truncated
