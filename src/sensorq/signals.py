"""Ground-truth signal generation and measurement interference.

Synthetic tracks are the sum of a diurnal sinusoid, a slow random walk,
and persistent step events; events double as the ground truth for the
detection metric. The draw order below is part of the contract (tests
regenerate schedules from it):

    rng = default_rng(SeedSequence([seed, kind_index]))
    1. phase   = rng.uniform(0, period)
    2. walk    = cumsum(rng.normal(0, walk_sigma * range, epochs))
    3. events  = sort(rng.choice(arange(min_event_epoch, epochs),
                                 size=n_events, replace=False))
    4. signs   = rng.choice([-1.0, 1.0], size=n_events)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import is_int, is_real, require

KINDS = ("temperature", "humidity", "light", "voltage")
KIND_INDEX = {k: i for i, k in enumerate(KINDS)}

# nominal physical span per channel, used for normalization in synthetic mode
CHANNEL_RANGE = {
    "temperature": (10.0, 40.0),
    "humidity": (20.0, 90.0),
    "light": (0.0, 1500.0),
    "voltage": (2.2, 3.0),
}


@dataclass(frozen=True)
class SignalParams:
    """Shape of the synthetic ground truth, amplitudes as range fractions.

    The default cycle is deliberately fast (one diurnal swing every 8
    epochs) so that desk-scale episodes contain many regimes and waiting
    a handful of epochs already costs real reconstruction accuracy.
    """

    period: int = 8  # epochs per diurnal cycle
    sin_amp: float = 0.35
    walk_sigma: float = 0.02
    event_amp: float = 0.4
    n_events: int = 3
    min_event_epoch: int = 10

    def validate(self) -> None:
        require(is_int(self.period, 2) and is_real(self.period),  # the clock divides by it as a float
                "signal period must be an integer >= 2")
        require(is_real(self.sin_amp, 0.0) and is_real(self.walk_sigma, 0.0)
                and is_real(self.event_amp, 0.0),
                "signal sin_amp, walk_sigma and event_amp must be numbers >= 0")
        require(is_int(self.n_events, 0) and is_int(self.min_event_epoch, 0),
                "signal n_events and min_event_epoch must be integers >= 0")


@dataclass
class SignalTrack:
    """One sensor's ground truth for an episode."""

    values: np.ndarray  # (epochs,)
    events: list[int]  # epochs of injected steps, sorted


def synth_track(
    kind: str, epochs: int, seed: int, params: SignalParams, value_range: tuple[float, float]
) -> SignalTrack:
    """Deterministic synthetic signal for one (kind, seed) pair."""
    if kind not in KIND_INDEX:
        raise ValueError(f"unknown channel kind {kind!r}")
    params.validate()
    lo, hi = value_range
    span = hi - lo
    rng = np.random.default_rng(np.random.SeedSequence([seed, KIND_INDEX[kind]]))

    phase = rng.uniform(0.0, params.period)
    walk = np.cumsum(rng.normal(0.0, params.walk_sigma * span, size=epochs))
    n_events = min(params.n_events, max(0, epochs - params.min_event_epoch))
    if n_events > 0:
        event_epochs = np.sort(
            rng.choice(np.arange(params.min_event_epoch, epochs), size=n_events, replace=False)
        )
        signs = rng.choice(np.array([-1.0, 1.0]), size=n_events)
    else:
        event_epochs = np.array([], dtype=int)
        signs = np.array([])

    t = np.arange(epochs)
    values = (
        (lo + hi) / 2.0
        + params.sin_amp * span * np.sin(2.0 * np.pi * (t + phase) / params.period)
        + walk
    )
    for e, s in zip(event_epochs, signs):
        values[e:] += s * params.event_amp * span
    return SignalTrack(values, [int(e) for e in event_epochs])


def inject_interference(
    value: float,
    eta: float,
    rng: np.random.Generator,
    noise_beta: float,
    value_range: float,
    drop_prob: float,
) -> tuple[float, bool]:
    """Corrupt one measurement at interference level eta.

    Returns (measured value, kept). Noise is gaussian with standard
    deviation eta * noise_beta * range; the sample is lost outright with
    probability eta * drop_prob (energy already spent). eta == 0 is exact
    pass-through and consumes no randomness.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 0.0:
        return value, True
    noisy = value + rng.normal(0.0, eta * noise_beta * value_range)
    kept = rng.random() >= eta * drop_prob
    return float(noisy), kept


def detect_events(values: np.ndarray, window: int = 20, k: float = 3.0) -> list[int]:
    """Flag abrupt changes: |delta| above k times the rolling std of the
    preceding `window` deltas. Used to extract ground-truth events from
    replayed traces, which carry none."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or window < 2:
        raise ValueError("need a 1-d series and window >= 2")
    diffs = np.diff(values)
    if len(diffs) <= window:
        return []
    # row r is diffs[r : r + window], the window before diffs[window + r]; a
    # contiguous copy makes each row's std reduce exactly as np.std of a slice
    sigma = np.ascontiguousarray(sliding_window_view(diffs[:-1], window)).std(axis=1)
    hit = (sigma > 0) & (np.abs(diffs[window:]) > k * sigma)
    return (np.flatnonzero(hit) + window + 1).tolist()  # diffs[t] is the change into epoch t+1
