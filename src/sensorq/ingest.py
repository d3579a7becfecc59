"""Trace-file ingestion: parse, clean, and align sensor readings.

Input format: plain text, one reading per line, 8 whitespace-separated
fields in this order:

    date  time  epoch  mote_id  temperature  humidity  light  voltage
    (YYYY-MM-DD, HH:MM:SS[.ffffff], int, int, degC, %RH, lux, V)

Files are read as UTF-8; a byte that does not decode becomes U+FFFD and
spoils only its own line. Date and time take exactly the forms
datetime.strptime accepts for "%Y-%m-%d %H:%M:%S[.%f]" (4-digit year, 1-2
digit month, day, hour, minute and second, 1-6 digit fraction) and are read
as UTC, so the result does not depend on the machine's timezone; an
impossible date or clock (Feb 30, second 60) skips.

Lines that cannot be parsed are skipped, never fatal; each skip carries
a reason code so ingestion is auditable. Kept readings are bucketed onto a
regular grid of width delta_t seconds (finite and > 0) starting at the
earliest kept timestamp (slot = floor((t - t0) / delta_t)); when two
readings land in one slot the later one wins.
"""

from __future__ import annotations

import calendar
import math
import re
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import ConfigError, is_real, require
from .metrics import fmt, hold_index, write_csv

CHANNELS = ("temperature", "humidity", "light", "voltage")

# cleaning windows: the public distribution of this kind of trace contains
# faulted readings (negative lux, 100+ degC spikes) that must not reach training
PLAUSIBLE = {
    "temperature": (-10.0, 60.0),
    "humidity": (0.0, 100.0),
    "light": (0.0, 200_000.0),
    "voltage": (1.5, 3.5),
}

R_FIELDS = "wrong_field_count"
R_NUMBER = "unparseable_value"
R_RANGE = "plausibility"

# strptime's own pattern (_strptime.TimeRE) for "%Y-%m-%d %H:%M:%S" with an
# optional ".%f"; `\d` is Unicode, as there, and int() reads what it matches
_STAMP = re.compile(
    r"(?P<Y>\d\d\d\d)-(?P<m>1[0-2]|0[1-9]|[1-9])-(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
    r"\s+(?P<H>2[0-3]|[0-1]\d|\d):(?P<M>[0-5]\d|\d):(?P<S>6[0-1]|[0-5]\d|\d)"
    r"(?:\.(?P<f>[0-9]{1,6}))?",
    re.IGNORECASE,
)


@dataclass
class SensorReading:
    date: str
    time: str
    epoch: int
    mote: int
    temperature: float
    humidity: float
    light: float
    voltage: float
    timestamp: float  # seconds since the Unix epoch (fractional), date and time read as UTC


@dataclass
class ParseSkip:
    """Non-fatal parse failure with a reason code."""

    reason: str


@dataclass
class IngestReport:
    total: int = 0
    kept: int = 0
    skipped: dict = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


@dataclass
class MoteSeries:
    """One mote's four channels on the shared slot grid.

    values[channel] and present share one length; stats[channel] is the
    (min, max) over present values.
    """

    mote: int
    values: dict[str, np.ndarray]
    present: np.ndarray
    stats: dict[str, tuple[float, float]]


def parse_line(line: str) -> SensorReading | ParseSkip:
    """Map one trace line to a reading; malformed lines become skips."""
    fields = line.split()
    if len(fields) != 8:
        return ParseSkip(R_FIELDS)
    try:
        epoch = int(fields[2])
        mote = int(fields[3])
        channels = [float(v) for v in fields[4:8]]
    except ValueError:
        return ParseSkip(R_NUMBER)
    if not all(map(math.isfinite, channels)):
        return ParseSkip(R_NUMBER)
    if mote < 1 or epoch < 0:
        return ParseSkip(R_RANGE)
    match = _STAMP.fullmatch(f"{fields[0]} {fields[1]}")
    if match is None:
        return ParseSkip(R_NUMBER)
    year, month, day, hour, minute, second, frac = match.groups()
    try:  # datetime rejects what the pattern lets through: Feb 30, second 60, year 0
        when = datetime(int(year), int(month), int(day), int(hour), int(minute), int(second),
                        int(frac.ljust(6, "0")) if frac else 0)
    except ValueError:
        return ParseSkip(R_NUMBER)
    stamp = calendar.timegm(when.timetuple()) + when.microsecond / 1e6
    return SensorReading(fields[0], fields[1], epoch, mote, *channels, stamp)


def load_trace(path, delta_t: float = 60.0) -> tuple[dict[int, MoteSeries], IngestReport]:
    """Parse a trace file into per-mote aligned series plus a skip report.

    Raises OSError when the file cannot be read and ConfigError when
    delta_t is not a finite number > 0 or no reading survives cleaning.
    """
    require(is_real(delta_t) and delta_t > 0, f"delta_t must be a finite number > 0, got {delta_t!r}")
    (t_lo, t_hi), (h_lo, h_hi), (l_lo, l_hi), (v_lo, v_hi) = (PLAUSIBLE[ch] for ch in CHANNELS)
    report = IngestReport()
    readings: list[SensorReading] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            report.total += 1
            parsed = parse_line(line)
            if isinstance(parsed, ParseSkip):
                report.skip(parsed.reason)
                continue
            if not (
                t_lo <= parsed.temperature <= t_hi
                and h_lo <= parsed.humidity <= h_hi
                and l_lo <= parsed.light <= l_hi
                and v_lo <= parsed.voltage <= v_hi
            ):
                report.skip(R_RANGE)
                continue
            report.kept += 1
            readings.append(parsed)
    if not readings:
        raise ConfigError(f"no usable readings in {path}")

    stamps = [r.timestamp for r in readings]
    t0 = min(stamps)
    slots = [int((t - t0) // delta_t) for t in stamps]
    n_slots = max(slots) + 1

    grids: dict[int, dict] = {}
    for reading, ts, slot in zip(readings, stamps, slots):
        per_mote = grids.setdefault(reading.mote, {})
        held = per_mote.get(slot)
        # slot conflicts keep the latest; value tuple breaks exact-timestamp
        # ties so the result is independent of input line order
        key = (ts, reading.epoch, reading.temperature, reading.humidity,
               reading.light, reading.voltage)
        if held is None or key > held[0]:
            per_mote[slot] = (key, reading)

    series: dict[int, MoteSeries] = {}
    for mote in sorted(grids):
        values = {ch: np.full(n_slots, np.nan) for ch in CHANNELS}
        present = np.zeros(n_slots, dtype=bool)
        for slot, (_, reading) in grids[mote].items():
            present[slot] = True
            for ch in CHANNELS:
                values[ch][slot] = getattr(reading, ch)
        stats = {
            ch: (float(np.nanmin(values[ch])), float(np.nanmax(values[ch]))) for ch in CHANNELS
        }
        series[mote] = MoteSeries(mote, values, present, stats)
    return series, report


def hold_fill(series: MoteSeries) -> MoteSeries:
    """Fill gaps by repeating the last present value (leading gaps take the
    first present value). Presence flags are preserved for the record."""
    if not series.present.any():
        raise ConfigError(f"mote {series.mote}: series has no present slots")
    last = hold_index(series.present)
    filled = {ch: series.values[ch][last] for ch in CHANNELS}
    return MoteSeries(series.mote, filled, series.present.copy(), dict(series.stats))


def write_report_csv(report: IngestReport, path) -> None:
    rows = [["kept", report.kept]] + [[r, report.skipped[r]] for r in sorted(report.skipped)]
    write_csv(path, ["reason", "count"], rows)


def _aligned_rows(series: dict[int, MoteSeries]):
    """One row per (mote, slot); a missing value leaves empty cells."""
    for mote in sorted(series):
        ms = series[mote]
        for slot in range(len(ms.present)):
            raw, norm = [], []
            for ch in CHANNELS:
                v = ms.values[ch][slot]
                if np.isnan(v):
                    raw.append("")
                    norm.append("")
                    continue
                lo, hi = ms.stats[ch]
                span = hi - lo if hi > lo else 1.0
                raw.append(fmt(v))
                norm.append(fmt((float(v) - lo) / span))
            yield [mote, slot, int(ms.present[slot])] + raw + norm


def write_aligned_csv(series: dict[int, MoteSeries], path) -> None:
    """Inspection dump: raw and min/max-normalized values per (mote, slot)."""
    header = ["mote", "slot", "present", *CHANNELS, *[f"{ch}_norm" for ch in CHANNELS]]
    write_csv(path, header, _aligned_rows(series))
