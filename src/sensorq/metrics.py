"""Episode scoring: reconstruction quality, energy, redundancy, detection.

All four metrics are computed per sensor from an EpisodeLog and averaged
with equal weight. Reconstruction uses zero-order hold (each kept sample
held until the next; epochs before the first sample are back-filled with
it), the same model the environment's information-gain reward uses.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SensorLog:
    """One sensor's episode record.

    truth is the ground-truth series (length T), samples the kept
    (epoch, value) pairs with strictly increasing epochs, energy the
    per-epoch millijoules actually drawn (length T), events the
    ground-truth event epochs, value_range the (lo, hi) used for
    normalization.
    """

    truth: np.ndarray
    samples: list[tuple[int, float]]
    energy: np.ndarray
    events: list[int]
    value_range: tuple[float, float]

    def __post_init__(self):
        self.truth = np.asarray(self.truth, dtype=np.float64)
        self.energy = np.asarray(self.energy, dtype=np.float64)
        if self.energy.shape != self.truth.shape:
            raise ValueError("energy ledger length must equal the episode length")
        epochs = [e for e, _ in self.samples]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise ValueError("kept-sample epochs must be strictly increasing")

    @property
    def span(self) -> float:
        lo, hi = self.value_range
        return (hi - lo) if hi > lo else 1.0  # degenerate range guard


@dataclass
class EpisodeLog:
    sensors: list[SensorLog]

    @property
    def epochs(self) -> int:
        return len(self.sensors[0].truth)


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


def zoh_reconstruct(length: int, samples: list[tuple[int, float]]) -> np.ndarray | None:
    """Hold each kept value until the next sample; None when no samples."""
    if not samples:
        return None
    out = np.empty(length, dtype=np.float64)
    out[: samples[0][0] + 1] = samples[0][1]  # back-fill before first sample
    for (e, v), (e2, _) in zip(samples, samples[1:]):
        out[e : e2] = v
    out[samples[-1][0] :] = samples[-1][1]
    return out


def data_quality(log: EpisodeLog) -> float:
    """Mean over sensors of max(0, 1 - RMSE / range) under zero-order hold.

    A sensor with no kept samples contributes 0.
    """
    scores = []
    for s in log.sensors:
        recon = zoh_reconstruct(len(s.truth), s.samples)
        if recon is None:
            scores.append(0.0)
            continue
        rmse = math.sqrt(float(np.mean((s.truth - recon) ** 2)))
        scores.append(max(0.0, 1.0 - rmse / s.span))
    return float(np.mean(scores))


def energy_total(log: EpisodeLog) -> float:
    """Total drawn energy per sensor, averaged across sensors (mJ)."""
    return float(np.mean([s.energy.sum() for s in log.sensors]))


def redundancy_rate(log: EpisodeLog, delta_red: float) -> float:
    """Percent of kept samples nearly identical to their predecessor."""
    rates = []
    for s in log.sensors:
        if len(s.samples) <= 1:
            rates.append(0.0)
            continue
        thresh = delta_red * s.span
        values = [v for _, v in s.samples]
        dup = sum(abs(b - a) < thresh for a, b in zip(values, values[1:]))
        rates.append(100.0 * dup / len(values))
    return float(np.mean(rates))


def event_detection_rate(log: EpisodeLog, window: int) -> float:
    """Percent of events with a kept sample inside [event, event + window];
    100 when a sensor saw no events."""
    rates = []
    for s in log.sensors:
        if not s.events:
            rates.append(100.0)
            continue
        epochs = [e for e, _ in s.samples]
        hit = sum(any(ev <= e <= ev + window for e in epochs) for ev in s.events)
        rates.append(100.0 * hit / len(s.events))
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
