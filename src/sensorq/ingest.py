"""Trace-file ingestion: parse, clean, and align sensor readings.

Input format: plain text, one reading per line, 8 whitespace-separated
fields in this order:

    date  time  epoch  mote_id  temperature  humidity  light  voltage
    (YYYY-MM-DD, HH:MM:SS[.ffffff], int, int, degC, %RH, lux, V)

Files are read as UTF-8; a byte order mark at the start of the file is not
part of the first line, and a byte that does not decode becomes U+FFFD and
spoils only its own line. Date and time take exactly the forms
datetime.strptime accepts for "%Y-%m-%d %H:%M:%S[.%f]" (4-digit year, 1-2
digit month, day, hour, minute and second, 1-6 digit fraction) and are read
as UTC, so the result does not depend on the machine's timezone; an
impossible date or clock (Feb 30, second 60) skips. Each date string is read
once: a cache holds the day of the last DATE_CACHE distinct dates.

Epoch and mote must fit in int64. Lines that cannot be parsed are
skipped, never fatal; each skip carries a reason code so ingestion is
auditable. A line skips for the first check it fails: 8 fields, numbers
(int() and float() as Python reads them, finite channels, int64 ids), mote
>= 1 and epoch >= 0, then date and clock. Lines are parsed _BLOCK at a time,
column by column: each line is split once, and each number column is read
by one np.array call, which reads each field with int() or float(), field
by field only where that raises. A
"HH:MM:SS[.f]" clock of ASCII digits is read from its code points, a field
width at a time; any other form goes through the strptime pattern.

Parsed readings go into typed columns (56 bytes a line); one mask over the
columns then drops the implausible ones, and the kept rows are
bucketed onto a regular grid of width delta_t seconds (finite and > 0)
starting at the earliest kept timestamp (slot = floor((t - t0) /
delta_t)). Of one mote's readings in one slot the largest (timestamp,
epoch, temperature, humidity, light, voltage) wins, the first line of
equal ones (0.0 equals -0.0). A stable sort by (mote, slot) keeps each
slot's readings in line order; where a slot holds several, those equal to
the slot's largest timestamp stay, then of those the ones with the largest
epoch, and so on through the channels, until one is left or the keys run
out and the first line stays.

The grid is one Trace: the mote ids, a (motes, slots) presence mask, the
(motes, channels, slots) readings with NaN where a mote has none (a present
slot holds all four channels, in signals.KINDS order) and each (mote,
channel)'s min and max.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from datetime import date
from functools import lru_cache
from itertools import compress, islice

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
REASONS = (R_FIELDS, R_NUMBER, R_RANGE)
PARSED = 0  # _parse_block's status of a parsed line; a skipped one has 1 + its reason's index
SKIPPED = {reason: k for k, reason in enumerate(REASONS, 1)}

MAX_GRID_CELLS = 2**26  # (slot, mote) cells of 33 B; the Intel Lab trace at 31 s needs 5.4M
_BLOCK = 1024  # lines parsed together before their readings move into the columns
_UNIX_DAY = date(1970, 1, 1).toordinal()

DATE_CACHE = 4096  # distinct date strings whose day seconds _day_seconds keeps

# strptime's own patterns (_strptime.TimeRE) for "%Y-%m-%d" and "%H:%M:%S" with
# an optional ".%f", less the seconds 60 and 61 that datetime rejects; `\d` is
# Unicode, as there, and int() reads what it matches
_DATE = re.compile(r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[0-1]|[1-2]\d|0[1-9]|[1-9])", re.IGNORECASE)
# the clock forms read from code points: each character's range, and each
# digit's weight in whole seconds and in microseconds
_LOW = np.frombuffer(b"00:00:00.000000", np.uint8)
_HIGH = np.frombuffer(b"29:59:59.999999", np.uint8)
_WEIGHTS = np.array([[36000, 3600, 0, 600, 60, 0, 10, 1, 0, 0, 0, 0, 0, 0, 0],
                     [0, 0, 0, 0, 0, 0, 0, 0, 0, 100000, 10000, 1000, 100, 10, 1]], np.uint32).T
_CLOCK = re.compile(r"(2[0-3]|[0-1]\d|\d):([0-5]\d|\d):([0-5]\d|\d)(?:\.([0-9]{1,6}))?", re.IGNORECASE)


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


def _numbers(kind, texts, dtype) -> tuple[np.ndarray, np.ndarray | None]:
    """A column of fields as kind() reads them, in a dtype array, and a mask of
    the fields that kind() rejects or dtype cannot hold (None: none does).
    np.array reads a str with int() for an integer dtype and float() for a
    float one; only a column that raises is converted again, field by field."""
    try:
        return np.array(texts, dtype), None
    except (ValueError, OverflowError):  # a field kind() rejects; an int outside int64
        pass
    values, bad = np.zeros(len(texts), dtype), np.zeros(len(texts), bool)
    for i, text in enumerate(texts):
        try:
            values[i] = kind(text)
        except (ValueError, OverflowError):
            bad[i] = True
    return values, bad


def _clock(texts) -> tuple[np.ndarray, np.ndarray]:
    """Whole seconds into the day (NaN where _CLOCK rejects the field) and
    microseconds of each clock field. The "HH:MM:SS[.f]" forms of ASCII
    digits are read from their code points, one field width at a time, so no
    array is sized by a block's longest field; every other form goes
    through _CLOCK."""
    n = len(texts)
    seconds, micros, slow = np.full(n, np.nan), np.zeros(n), np.ones(n, bool)
    widths = np.fromiter(map(len, texts), np.intp, n)
    fields = np.array(texts, object)
    for width in (8, *range(10, 16)):
        at = np.flatnonzero(widths == width)
        if not at.size:
            continue
        codes = fields[at].astype(f"<U{width}").view(np.uint32).reshape(-1, width)
        ok = ((_LOW[:width] <= codes) & (codes <= _HIGH[:width])).all(axis=1)
        whole, micro = ((codes - ord("0")) @ _WEIGHTS[:width]).T  # uint32: separators weigh 0
        ok &= whole < 86400  # hour 24 to 29
        seconds[at[ok]], micros[at[ok]] = whole[ok], micro[ok]
        slow[at[ok]] = False
    for i in np.flatnonzero(slow).tolist():
        if match := _CLOCK.fullmatch(texts[i]):
            hour, minute, second, frac = match.groups()
            seconds[i] = int(hour) * 3600 + int(minute) * 60 + int(second)
            micros[i] = int(frac.ljust(6, "0")) if frac else 0
    return seconds, micros


def _parse_block(lines: list[str]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each line's status (PARSED, or 1 + the index of its skip reason in
    REASONS) and the columns of the parsed lines: timestamp (seconds since
    the Unix epoch, date and time read as UTC), epoch, mote, then the
    channels in KINDS order. A line that fails several checks skips for the
    first: field count, number, range, date and clock."""
    split = list(map(str.split, lines))
    status = np.full(len(lines), SKIPPED[R_FIELDS], np.int8)
    eight = np.fromiter(map(len, split), np.intp, len(split)) == 8
    dates, clocks, *numbers = list(zip(*compress(split, eight.tolist()))) or [()] * 8
    converted = [_numbers(int, texts, np.int64) for texts in numbers[:2]]
    converted += [_numbers(float, texts, np.float64) for texts in numbers[2:]]
    epochs, motes, *channels = (values for values, _ in converted)
    bad = np.logical_or.reduce([~np.isfinite(values) for values in channels]
                               + [bad for _, bad in converted if bad is not None])
    seconds, micros = _clock(clocks)
    days = np.array(list(map(_day_seconds, dates)), np.float64)  # NaN where None
    stamps = days + seconds + micros / 1e6  # whole seconds are exact in float64
    status[eight] = checked = np.select([bad, (motes < 1) | (epochs < 0), np.isnan(stamps)],
                                        [SKIPPED[R_NUMBER], SKIPPED[R_RANGE], SKIPPED[R_NUMBER]], PARSED)
    parsed = checked == PARSED
    return status, [column[parsed] for column in (stamps, epochs, motes, *channels)]


def _runs(*columns) -> np.ndarray:
    """True at each row that starts a run: the first, and each that differs
    from the row before in some column."""
    starts = np.ones(len(columns[0]), bool)
    starts[1:] = np.logical_or.reduce([column[1:] != column[:-1] for column in columns])
    return starts


def _groups(motes, slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first row of each (mote, slot), in (mote, slot) order, and the rows
    of the (mote, slot)s that hold several, in line order within each, with
    each one's index into the first. A function of its own so that the sort's
    index arrays are freed before the conflicts are settled."""
    order = np.lexsort((slots, motes))  # stable: a group's rows stay in line order
    starts = np.flatnonzero(_runs(motes[order], slots[order]))
    sizes = np.diff(starts, append=len(order))
    several = sizes > 1
    return order[starts], order[np.repeat(several, sizes)], np.repeat(np.flatnonzero(several), sizes[several])


def load_trace(path, delta_t: float = 60.0) -> tuple[Trace, IngestReport]:
    """Parse a trace file into its aligned grid plus a skip report.

    Raises OSError when the file cannot be read and ConfigError when
    delta_t is not a finite number > 0, no reading survives cleaning, or
    the grid would exceed MAX_GRID_CELLS (slots x motes).
    """
    require(is_real(delta_t) and delta_t > 0, f"delta_t must be a finite number > 0, got {delta_t!r}")
    report = IngestReport()
    counts = np.zeros(len(REASONS) + 1, np.int64)  # lines per status
    columns = [array(code) for code in "dqqdddd"]  # _parse_block's columns, one row per parsed line
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        while block := list(islice(fh, _BLOCK)):
            status, parsed = _parse_block(block)
            counts += np.bincount(status, minlength=len(counts))
            for column, values in zip(columns, parsed):
                column.frombytes(values.view(np.uint8))
    report.total = int(counts.sum())
    for reason, count in zip(REASONS, counts[1:].tolist()):
        if count:
            report.skip(reason, count)
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

    # a slot conflict keeps the largest (timestamp, epoch, channels) key, the first
    # line of equal ones: of each (mote, slot) that holds several rows, the rows
    # equal to their group's maximum stay, a key at a time
    rows, held, group = _groups(motes, slots)
    for key in (stamps, epochs, *channels):
        if len(firsts := np.flatnonzero(_runs(group))) == len(group):  # one row left in each group
            break
        key_values = key[held]
        keep = key_values == np.repeat(np.maximum.reduceat(key_values, firsts), np.diff(firsts, append=len(held)))
        held, group = held[keep], group[keep]
    rows[group[_runs(group)]] = held[_runs(group)]

    starts = _runs(m := motes[rows])  # m is sorted: rows are in (mote, slot) order
    ids, firsts = m[starts], np.flatnonzero(starts)
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
