"""sensorq: adaptive multi-sensor sampling with a small hand-rolled DQN.

Simulates battery-powered sensors that must decide when to sample a
drifting signal, trades off reconstruction quality against energy and
redundancy, and trains a Q-network policy against classic baselines.
"""

__version__ = "0.1.0"

from .agent import AgentHyperParams, ReplayPool, train  # noqa: E402,F401
from .env import EnvConfig, RewardWeights, SensorEnv  # noqa: E402,F401
from .errors import CheckFailure, ConfigError  # noqa: E402,F401
from .metrics import EpisodeLog, MetricsReport, SensorLog  # noqa: E402,F401
