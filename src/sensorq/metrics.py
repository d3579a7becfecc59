"""Episode scoring: reconstruction quality, energy, redundancy, detection.

An EpisodeLog holds one episode as (num_sensors, T) arrays: the truth,
the energy drawn, a kept-sample mask and the kept values. Each of the
four metrics scores every sensor at once with array operations along the
epoch axis, then averages the sensors with equal weight.
Reconstruction is a zero-order hold (each kept value held until the next,
epochs before the first sample take the first), the same model the env's
information-gain reward uses. Redundancy compares each kept value with
the value held at the epoch before it; detection compares cumulative
kept counts at the two ends of each event's window.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class EpisodeLog:
    """One episode's record, each array of shape (num_sensors, T).

    truth is the ground-truth series, energy the millijoules actually
    drawn per epoch, kept True where a sample was kept and values the
    kept value there (other entries are unused). events lists each
    sensor's ground-truth event epochs, spans the per-sensor range used
    for normalization (> 0).
    """

    truth: np.ndarray
    energy: np.ndarray
    kept: np.ndarray
    values: np.ndarray
    events: list
    spans: np.ndarray

    def __post_init__(self):
        if not self.truth.shape == self.energy.shape == self.kept.shape == self.values.shape:
            raise ValueError("truth, energy, kept and values must share one (sensors, T) shape")

    @property
    def epochs(self) -> int:
        return self.truth.shape[1]

    @cached_property
    def held(self) -> np.ndarray:
        """zoh_hold of the kept values, built once for the metrics that read it."""
        return zoh_hold(self.kept, self.values)

    @cached_property
    def later(self) -> np.ndarray:
        """Mask of the kept samples other than each sensor's first."""
        return self.kept & (np.arange(self.epochs) > np.argmax(self.kept, axis=1)[:, None])


@dataclass
class MetricsRow:
    """Four headline metrics for one policy run (one seed)."""

    policy: str
    quality: float
    energy_mj: float
    redundancy_pct: float
    detection_pct: float


@dataclass
class MetricsReport:
    """Seed-aggregated metrics for one policy: mean and sample std."""

    policy: str
    seeds: list[int]
    quality: float
    energy_mj: float
    redundancy_pct: float
    detection_pct: float
    quality_std: float = 0.0
    energy_std: float = 0.0
    redundancy_std: float = 0.0
    detection_std: float = 0.0


def hold_index(present: np.ndarray) -> np.ndarray:
    """Along the last axis, the index of the last True at or before each
    position; positions before the first True take the first (a row
    with no True takes 0)."""
    idx = np.maximum.accumulate(np.where(present, np.arange(present.shape[-1]), -1), axis=-1)
    return np.where(idx < 0, np.argmax(present, axis=-1)[..., None], idx)


def spans(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """high - low, or 1 where high <= low: the normalization range of each
    (low, high) pair, which a flat channel must not make zero."""
    return np.where(high > low, high - low, 1.0)


def zoh_hold(kept: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hold each kept value until the next kept epoch; epochs before the
    first take the first value. A row with nothing kept holds its first
    entry, which the metrics mask out."""
    return np.take_along_axis(values, hold_index(kept), axis=-1)


def data_quality(log: EpisodeLog) -> float:
    """Mean over sensors of max(0, 1 - RMSE / range) under zero-order hold.

    A sensor with no kept samples contributes 0.
    """
    rmse = np.sqrt(np.mean((log.truth - log.held) ** 2, axis=1))
    scores = np.where(log.kept.any(axis=1), np.maximum(0.0, 1.0 - rmse / log.spans), 0.0)
    return float(np.mean(scores))


def energy_total(log: EpisodeLog) -> float:
    """Total drawn energy per sensor, averaged across sensors (mJ)."""
    return float(np.mean(log.energy.sum(axis=1)))


def duplicates(log: EpisodeLog, delta_red: float) -> np.ndarray:
    """Mask of the kept samples, other than each sensor's first, within
    delta_red x span of the value held at the epoch before them."""
    held_before = np.roll(log.held, 1, axis=1)  # column 0 is never a later sample
    return log.later & (np.abs(log.values - held_before) < delta_red * log.spans[:, None])


def redundancy_rate(log: EpisodeLog, delta_red: float) -> float:
    """Percent of kept samples that are duplicates of their predecessor."""
    dup = np.count_nonzero(duplicates(log, delta_red), axis=1)
    n = np.count_nonzero(log.kept, axis=1)
    return float(np.mean(np.where(n > 1, 100.0 * dup / np.maximum(n, 1), 0.0)))


def event_detection_rate(log: EpisodeLog, window: int) -> float:
    """Percent of events with a kept sample inside [event, event + window];
    100 when a sensor saw no events. Events lie before T, so a window
    longer than the episode counts as T (and stays inside int64)."""
    n, T = log.kept.shape
    counts = np.zeros((n, T + 1), dtype=np.int64)  # counts[:, k]: kept samples before epoch k
    np.cumsum(log.kept, axis=1, out=counts[:, 1:])
    num = np.fromiter(map(len, log.events), np.int64, n)
    rows = np.repeat(np.arange(n), num)  # the sensor of each listed event
    events = np.fromiter(itertools.chain.from_iterable(log.events), np.int64, len(rows))
    hit = counts[rows, np.minimum(events + min(window, T) + 1, T)] > counts[rows, np.minimum(events, T)]
    rates = np.where(num > 0, 100.0 * np.bincount(rows[hit], minlength=n) / np.maximum(num, 1), 100.0)
    return float(np.mean(rates))


def aggregate(rows: list[MetricsRow], seeds: list[int] | None = None) -> MetricsReport:
    """Mean and sample standard deviation across per-seed rows."""
    if not rows:
        raise ValueError("nothing to aggregate")
    labels = {r.policy for r in rows}
    if len(labels) != 1:
        raise ValueError(f"mixed policy labels: {sorted(labels)}")

    def stats(values):
        arr = np.array(values, dtype=np.float64)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        return float(arr.mean()), std

    q, q_s = stats([r.quality for r in rows])
    e, e_s = stats([r.energy_mj for r in rows])
    rr, rr_s = stats([r.redundancy_pct for r in rows])
    d, d_s = stats([r.detection_pct for r in rows])
    return MetricsReport(
        rows[0].policy, list(seeds or []), q, e, rr, d, q_s, e_s, rr_s, d_s
    )


REPORT_COLUMNS = [
    "policy",
    "data_quality",
    "energy_mj",
    "redundancy_pct",
    "detection_pct",
    "data_quality_std",
    "energy_mj_std",
    "redundancy_pct_std",
    "detection_pct_std",
    "seeds",
]


def fmt(x: float) -> str:
    """Deterministic float formatting shared by every CSV writer."""
    return format(float(x), ".12g")


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and data rows; every CSV the program writes goes
    through here."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def report_cells(r: MetricsReport) -> list[str]:
    """The cells of one report under REPORT_COLUMNS[1:]."""
    values = (r.quality, r.energy_mj, r.redundancy_pct, r.detection_pct,
              r.quality_std, r.energy_std, r.redundancy_std, r.detection_std)
    return [fmt(v) for v in values] + [";".join(str(s) for s in r.seeds)]


def write_reports_csv(reports: list[MetricsReport], path) -> None:
    write_csv(path, REPORT_COLUMNS, ([r.policy] + report_cells(r) for r in reports))
