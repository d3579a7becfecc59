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

Epoch and mote must fit in int64. Lines that cannot be parsed are
skipped, never fatal; each skip carries a reason code so ingestion is
auditable. Kept readings go into typed columns (56 bytes a line) and are
bucketed onto a regular grid of width delta_t seconds (finite and > 0)
starting at the earliest kept timestamp (slot = floor((t - t0) /
delta_t)). Of one mote's readings in one slot the largest (timestamp,
epoch, temperature, humidity, light, voltage) wins, the first line of
equal ones (0.0 equals -0.0); one lexsort of the columns finds them all.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime
from itertools import islice
from typing import NamedTuple

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

_INT64 = (-(2**63), 2**63 - 1)  # epoch and mote are kept in int64 columns
MAX_GRID_CELLS = 2**26  # (slot, mote) cells of 33 B; the Intel Lab trace at 31 s needs 5.4M
_BLOCK = 4096  # lines parsed before their readings move into the columns
_UNIX_DAY = date(1970, 1, 1).toordinal()

# strptime's own pattern (_strptime.TimeRE) for "%Y-%m-%d %H:%M:%S" with an
# optional ".%f"; `\d` is Unicode, as there, and int() reads what it matches
_STAMP = re.compile(
    r"(?P<Y>\d\d\d\d)-(?P<m>1[0-2]|0[1-9]|[1-9])-(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
    r"\s+(?P<H>2[0-3]|[0-1]\d|\d):(?P<M>[0-5]\d|\d):(?P<S>6[0-1]|[0-5]\d|\d)"
    r"(?:\.(?P<f>[0-9]{1,6}))?",
    re.IGNORECASE,
)


class SensorReading(NamedTuple):
    """One parsed line, in the order of load_trace's columns."""

    timestamp: float  # seconds since the Unix epoch (fractional), date and time read as UTC
    epoch: int
    mote: int
    temperature: float
    humidity: float
    light: float
    voltage: float


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
    lo, hi = _INT64
    if not (all(map(math.isfinite, channels)) and lo <= epoch <= hi and lo <= mote <= hi):
        return ParseSkip(R_NUMBER)
    if mote < 1 or epoch < 0:
        return ParseSkip(R_RANGE)
    match = _STAMP.fullmatch(f"{fields[0]} {fields[1]}")
    if match is None:
        return ParseSkip(R_NUMBER)
    *clock, frac = match.groups()
    year, month, day, hour, minute, second = map(int, clock)
    try:  # datetime rejects what the pattern lets through: Feb 30, second 60, year 0
        days = datetime(year, month, day, hour, minute, second).toordinal() - _UNIX_DAY
    except ValueError:
        return ParseSkip(R_NUMBER)
    micro = int(frac.ljust(6, "0")) if frac else 0
    stamp = days * 86400 + hour * 3600 + minute * 60 + second + micro / 1e6
    return SensorReading._make((stamp, epoch, mote, *channels))


def load_trace(path, delta_t: float = 60.0) -> tuple[dict[int, MoteSeries], IngestReport]:
    """Parse a trace file into per-mote aligned series plus a skip report.

    Raises OSError when the file cannot be read and ConfigError when
    delta_t is not a finite number > 0, no reading survives cleaning, or
    the grid would exceed MAX_GRID_CELLS (slots x motes).
    """
    require(is_real(delta_t) and delta_t > 0, f"delta_t must be a finite number > 0, got {delta_t!r}")
    (t_lo, t_hi), (h_lo, h_hi), (l_lo, l_hi), (v_lo, v_hi) = (PLAUSIBLE[ch] for ch in CHANNELS)
    report = IngestReport()
    columns = [array(code) for code in "dqqdddd"]  # SensorReading's fields, one row per kept line
    with open(path, encoding="utf-8", errors="replace") as fh:
        while block := list(islice(fh, _BLOCK)):
            report.total += len(block)
            kept = []
            for parsed in map(parse_line, block):
                if isinstance(parsed, ParseSkip):
                    report.skip(parsed.reason)
                elif (
                    t_lo <= parsed.temperature <= t_hi
                    and h_lo <= parsed.humidity <= h_hi
                    and l_lo <= parsed.light <= l_hi
                    and v_lo <= parsed.voltage <= v_hi
                ):
                    kept.append(parsed)
                else:
                    report.skip(R_RANGE)
            for column, values in zip(columns, zip(*kept)):
                column.extend(values)
    report.kept = len(columns[0])
    if not report.kept:
        raise ConfigError(f"no usable readings in {path}")

    stamps, epochs, motes, *channels = (np.frombuffer(c, dtype=c.typecode) for c in columns)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny delta_t gives inf: rejected below
        slots = (stamps - stamps.min()) // delta_t  # whole numbers; float64 until checked below

    # a slot conflict keeps the largest (timestamp, epoch, channels) key: sort
    # by (mote, slot, key) and take the last row of each (mote, slot). The rows
    # are sorted back to front, so of exactly equal keys the first line wins.
    back = slice(None, None, -1)
    keys = [col[back] for col in (*channels[::-1], epochs, stamps, slots, motes)]
    order = report.kept - 1 - np.lexsort(keys)
    by_mote, by_slot = motes[order], slots[order]
    last = np.append((by_mote[1:] != by_mote[:-1]) | (by_slot[1:] != by_slot[:-1]), True)
    rows = order[last]

    ids, firsts = np.unique(motes[rows], return_index=True)
    n_slots = float(slots.max()) + 1  # no grid exists yet
    require(n_slots * len(ids) <= MAX_GRID_CELLS,  # False for inf too
            f"delta_t {delta_t!r} needs {n_slots:.3g} slots x {len(ids)} motes > {MAX_GRID_CELLS} cells")
    n_slots, slots = int(n_slots), slots.astype(np.int64)
    series: dict[int, MoteSeries] = {}
    for mote, held in zip(ids.tolist(), np.split(rows, firsts[1:])):
        at = slots[held]
        present = np.zeros(n_slots, dtype=bool)
        present[at] = True
        values = {}
        for ch, column in zip(CHANNELS, channels):
            values[ch] = np.full(n_slots, np.nan)
            values[ch][at] = column[held]
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
