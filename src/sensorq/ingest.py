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
impossible date or clock (Feb 30, second 60) skips. Each date string is read
once: a cache holds the day of the last DATE_CACHE distinct dates.

Epoch and mote must fit in int64. Lines that cannot be parsed are
skipped, never fatal; each skip carries a reason code so ingestion is
auditable. Parsed readings go into typed columns (56 bytes a line); one
mask over the columns then drops the implausible ones, and the kept rows are
bucketed onto a regular grid of width delta_t seconds (finite and > 0)
starting at the earliest kept timestamp (slot = floor((t - t0) /
delta_t)). Of one mote's readings in one slot the largest (timestamp,
epoch, temperature, humidity, light, voltage) wins, the first line of
equal ones (0.0 equals -0.0); one lexsort of the columns finds them all.

The grid is one Trace: the mote ids, a (motes, slots) presence mask, the
(motes, channels, slots) readings with NaN where a mote has none (a present
slot holds all four channels, in signals.KINDS order) and each (mote,
channel)'s min and max.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from datetime import date
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, is_real, require
from .metrics import fmt, spans, write_csv
from .signals import KINDS

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

DATE_CACHE = 4096  # distinct date strings whose day seconds parse_line keeps

# strptime's own patterns (_strptime.TimeRE) for "%Y-%m-%d" and "%H:%M:%S" with
# an optional ".%f", less the seconds 60 and 61 that datetime rejects; `\d` is
# Unicode, as there, and int() reads what it matches
_DATE = re.compile(r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[0-1]|[1-2]\d|0[1-9]|[1-9])", re.IGNORECASE)
_CLOCK = re.compile(r"(2[0-3]|[0-1]\d|\d):([0-5]\d|\d):([0-5]\d|\d)(?:\.([0-9]{1,6}))?", re.IGNORECASE)


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

    def skip(self, reason: str, count: int = 1) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + count

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


@dataclass
class Trace:
    """A trace on its slot grid, one row per mote: values[k, c] is mote
    motes[k]'s channel KINDS[c], NaN where present[k] is False."""

    motes: list[int]  # ascending
    present: np.ndarray  # (motes, slots) bool
    values: np.ndarray  # (motes, channels, slots) float64
    low: np.ndarray  # (motes, channels): min of the readings
    high: np.ndarray  # (motes, channels): max of the readings


@lru_cache(maxsize=DATE_CACHE)
def _day_seconds(text: str) -> int | None:
    """UTC seconds at the start of a date field, None where strptime rejects it."""
    match = _DATE.fullmatch(text)
    try:  # date rejects what the pattern lets through: Feb 30, year 0
        return match and (date(*map(int, match.groups())).toordinal() - _UNIX_DAY) * 86400
    except ValueError:
        return None


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
    day = _day_seconds(fields[0])
    clock = _CLOCK.fullmatch(fields[1])
    if day is None or clock is None:
        return ParseSkip(R_NUMBER)
    hour, minute, second, frac = clock.groups()
    micro = int(frac.ljust(6, "0")) if frac else 0
    stamp = day + int(hour) * 3600 + int(minute) * 60 + int(second) + micro / 1e6
    return SensorReading._make((stamp, epoch, mote, *channels))


def load_trace(path, delta_t: float = 60.0) -> tuple[Trace, IngestReport]:
    """Parse a trace file into its aligned grid plus a skip report.

    Raises OSError when the file cannot be read and ConfigError when
    delta_t is not a finite number > 0, no reading survives cleaning, or
    the grid would exceed MAX_GRID_CELLS (slots x motes).
    """
    require(is_real(delta_t) and delta_t > 0, f"delta_t must be a finite number > 0, got {delta_t!r}")
    report = IngestReport()
    columns = [array(code) for code in "dqqdddd"]  # SensorReading's fields, one row per parsed line
    with open(path, encoding="utf-8", errors="replace") as fh:
        while block := list(islice(fh, _BLOCK)):
            report.total += len(block)
            parsed = []
            for reading in map(parse_line, block):
                if isinstance(reading, ParseSkip):
                    report.skip(reading.reason)
                else:
                    parsed.append(reading)
            for column, values in zip(columns, zip(*parsed)):
                column.extend(values)
    # plausibility is the last check, so an implausible row has no other fault
    columns = [np.frombuffer(c, dtype=c.typecode) for c in columns]
    plausible = np.logical_and.reduce(
        [(lo <= col) & (col <= hi) for col, (lo, hi) in zip(columns[3:], map(PLAUSIBLE.get, KINDS))]
    )
    report.kept = int(np.count_nonzero(plausible))
    if report.kept < len(plausible):
        report.skip(R_RANGE, len(plausible) - report.kept)
        columns = [col[plausible] for col in columns]
    if not report.kept:
        raise ConfigError(f"no usable readings in {path}")

    stamps, epochs, motes, *channels = columns
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
    present = np.zeros((len(ids), n_slots), dtype=bool)
    values = np.full((len(ids), len(KINDS), n_slots), np.nan)
    for k, held in enumerate(np.split(rows, firsts[1:])):  # per mote: whole-trace indices raise the peak
        at = slots[held]
        present[k, at] = True
        for c, column in enumerate(channels):
            values[k, c, at] = column[held]
    return Trace(ids.tolist(), present, values, np.nanmin(values, axis=2), np.nanmax(values, axis=2)), report


def write_report_csv(report: IngestReport, path) -> None:
    rows = [["kept", report.kept]] + [[r, report.skipped[r]] for r in sorted(report.skipped)]
    write_csv(path, ["reason", "count"], rows)


def _aligned_rows(trace: Trace):
    """One row per (mote, slot). A present slot holds all four readings and an
    absent one none, so an absent slot leaves all eight value cells empty."""
    for mote, present, raw, low, span in zip(
            trace.motes, trace.present, trace.values, trace.low, spans(trace.low, trace.high)):
        norm = (raw - low[:, None]) / span[:, None]
        for slot, (here, cells, scaled) in enumerate(zip(present.tolist(), raw.T.tolist(), norm.T.tolist())):
            yield [mote, slot, 1, *map(fmt, cells + scaled)] if here else [mote, slot, 0] + [""] * 8


def write_aligned_csv(trace: Trace, path) -> None:
    """Inspection dump: raw and min/max-normalized values per (mote, slot)."""
    header = ["mote", "slot", "present", *KINDS, *[f"{ch}_norm" for ch in KINDS]]
    write_csv(path, header, _aligned_rows(trace))
