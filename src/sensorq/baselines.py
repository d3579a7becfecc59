"""Non-learning sampling policies and the greedy Q-network policy.

All policies share one protocol: `reset(rng)` at episode start, then
`act(obs, epoch)` returning one Python int action per sensor, every
sensor included; experiments.run_episode passes None instead where the
environment's decision mask says a sensor may not decide. The
non-learning baselines only make sense in binary action mode.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .env import OBS_SLOPE, OBS_TIME, SAMPLE, SKIP
from .errors import is_int, is_real, require

PROBE_CAP = 12  # threshold policy samples at least this often (epochs)


class FixedPolicy:
    """Sample every `period` epochs (epoch 0, period, 2*period, ...)."""

    def __init__(self, period: int):
        require(is_int(period, 1), "fixed policy period must be an integer >= 1")
        self.period = period

    def reset(self, rng) -> None:
        pass

    def act(self, obs, epoch):
        return [SAMPLE if epoch % self.period == 0 else SKIP] * len(obs)


class RandomPolicy:
    """Sample each sensor independently with probability q."""

    def __init__(self, q: float):
        require(is_real(q, 0.0, 1.0), "random policy rate must lie in [0, 1]")
        self.q = q
        self._rng = np.random.default_rng(0)

    def reset(self, rng) -> None:
        self._rng = rng

    def act(self, obs, epoch):
        return [SAMPLE if d < self.q else SKIP for d in self._rng.random(len(obs)).tolist()]


class ThresholdPolicy:
    """Prediction-drift trigger on agent-visible features.

    Samples when |EWMA slope| x epochs-since-last-sample exceeds the
    threshold. The slope feature is zero until two samples exist, so the
    trigger alone can never start; a probe (sample at least every
    PROBE_CAP epochs) keeps the policy live.
    """

    def __init__(self, threshold: float, horizon: int):
        require(is_real(threshold, 0.0), "threshold policy needs a finite threshold >= 0")
        self.threshold = threshold
        self.horizon = horizon

    def reset(self, rng) -> None:
        pass

    def act(self, obs, epoch):
        gaps = [time * self.horizon for time in obs[:, OBS_TIME].tolist()]
        return [SAMPLE if abs(slope) * gap > self.threshold or gap >= PROBE_CAP else SKIP
                for gap, slope in zip(gaps, obs[:, OBS_SLOPE].tolist())]


class GreedyQPolicy:
    """Argmax over a frozen Q-network (evaluation-time policy)."""

    def __init__(self, params: nn.NetworkParams):
        self.params = params

    def reset(self, rng) -> None:
        pass

    def act(self, obs, epoch):
        return nn.forward_batch(self.params, obs).argmax(axis=1).tolist()

