"""Independent reference implementations used only by the test suite.

Everything here is written as plainly as possible (explicit loops, no
shared code with the package) so it can serve as an oracle for the
optimized implementations. `stacked_log` only builds metric inputs: it
lays per-sensor (epoch, value) sample lists into an EpisodeLog.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

import numpy as np


def naive_forward(layers, x):
    """Straight-line MLP forward: list of (W, b) with W as row-major
    nested lists, ReLU between layers, linear output."""
    a = list(x)
    for k, (w, b) in enumerate(layers):
        out = []
        for r in range(len(w)):
            s = b[r]
            for c in range(len(w[r])):
                s += w[r][c] * a[c]
            out.append(s)
        if k < len(layers) - 1:
            out = [v if v > 0.0 else 0.0 for v in out]
        a = out
    return a


def fd_gradient(f, params_flat, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    grad = []
    for i in range(len(params_flat)):
        up = list(params_flat)
        dn = list(params_flat)
        up[i] += h
        dn[i] -= h
        grad.append((f(up) - f(dn)) / (2.0 * h))
    return grad


def naive_bellman(r, gamma, q_next, done):
    if done:
        return r
    best = q_next[0]
    for q in q_next[1:]:
        if q > best:
            best = q
    return r + gamma * best


def naive_td_loss(transitions, online_layers, target_layers, gamma):
    """Mean squared Bellman residual, one transition at a time."""
    total = 0.0
    for s, a, r, s2, done in transitions:
        y = naive_bellman(r, gamma, naive_forward(target_layers, s2), done)
        q = naive_forward(online_layers, s)[a]
        total += (y - q) ** 2
    return total / len(transitions)


def adam_layers(layers, grads, m, v, t, step_size, b1, b2, eps):
    """Adaptive-moment step t (1-based) over lists of (w, b) arrays, one
    layer at a time with fresh arrays. Returns (layers, m, v)."""
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    new_layers, new_m, new_v = [], [], []
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(layers, grads, m, v):
        mw2 = b1 * mw + (1 - b1) * gw
        mb2 = b1 * mb + (1 - b1) * gb
        vw2 = b2 * vw + (1 - b2) * gw**2
        vb2 = b2 * vb + (1 - b2) * gb**2
        w2 = w - step_size * (mw2 / c1) / (np.sqrt(vw2 / c2) + eps)
        b2_ = b - step_size * (mb2 / c1) / (np.sqrt(vb2 / c2) + eps)
        new_layers.append((w2, b2_))
        new_m.append((mw2, mb2))
        new_v.append((vw2, vb2))
    return new_layers, new_m, new_v


def soft_blend_layers(online, target, tau):
    """tau * online + (1 - tau) * target, layer by layer."""
    return [
        (tau * wo + (1 - tau) * wt, tau * bo + (1 - tau) * bt)
        for (wo, bo), (wt, bt) in zip(online, target)
    ]


def zoh_series(length, samples):
    """Hold each sample until the next one; back-fill before the first.
    Returns None when there are no samples."""
    if not samples:
        return None
    out = [None] * length
    first_epoch, first_value = samples[0]
    for e in range(length):
        held = first_value
        for epoch, value in samples:
            if epoch <= e:
                held = value
            else:
                break
        out[e] = held
    return out


def stacked_log(truth, samples, energy=None, events=None, ranges=None):
    """An EpisodeLog of one sensor per row of `truth`: sensor i keeps the
    (epoch, value) pairs samples[i]. energy rows default to zeros, event
    lists to none, (lo, hi) ranges to (0, 1); a range with hi <= lo
    normalizes by 1, as in the env."""
    from sensorq.metrics import EpisodeLog

    truth = np.array(truth, dtype=np.float64)
    kept = np.zeros(truth.shape, dtype=bool)
    values = np.zeros(truth.shape)
    for i, pairs in enumerate(samples):
        for epoch, value in pairs:
            kept[i, epoch] = True
            values[i, epoch] = value
    energy = np.zeros(truth.shape) if energy is None else np.array(energy, dtype=np.float64)
    events = [[] for _ in truth] if events is None else [list(ev) for ev in events]
    ranges = [(0.0, 1.0)] * len(truth) if ranges is None else ranges
    spans = np.array([hi - lo if hi > lo else 1.0 for lo, hi in ranges])
    return EpisodeLog(truth, energy, kept, values, events, spans)


def naive_quality(truth, samples, value_range):
    recon = zoh_series(len(truth), samples)
    if recon is None:
        return 0.0
    sse = 0.0
    for t, r in zip(truth, recon):
        sse += (t - r) ** 2
    rmse = math.sqrt(sse / len(truth))
    rng = value_range if value_range > 0 else 1.0
    return max(0.0, 1.0 - rmse / rng)


def naive_redundancy(samples, delta, value_range):
    if len(samples) <= 1:
        return 0.0
    rng = value_range if value_range > 0 else 1.0
    dup = 0
    for i in range(1, len(samples)):
        if abs(samples[i][1] - samples[i - 1][1]) < delta * rng:
            dup += 1
    return 100.0 * dup / len(samples)


def naive_detection(events, samples, window):
    if not events:
        return 100.0
    hit = 0
    for e in events:
        for epoch, _ in samples:
            if e <= epoch <= e + window:
                hit += 1
                break
    return 100.0 * hit / len(events)


def value_iteration(n_states, n_actions, step_fn, gamma, sweeps=10_000, tol=1e-12):
    """Tabular Q iteration for a deterministic MDP.

    step_fn(s, a) -> (reward, next_state, terminal); next_state ignored
    when terminal.
    """
    q = [[0.0] * n_actions for _ in range(n_states)]
    for _ in range(sweeps):
        delta = 0.0
        for s in range(n_states):
            for a in range(n_actions):
                r, s2, terminal = step_fn(s, a)
                target = r if terminal else r + gamma * max(q[s2])
                delta = max(delta, abs(target - q[s][a]))
                q[s][a] = target
        if delta < tol:
            break
    return q


def replay_pool_rows(pool):
    """A ReplayPool's transitions, oldest to newest, as (s, a, r, s2, done)
    tuples read straight from its ring arrays: once the ring has wrapped,
    the oldest row is the one the next push overwrites."""
    size = len(pool)
    start = pool._head if size == pool.capacity else 0
    rows = []
    for k in range(size):
        i = (start + k) % pool.capacity
        rows.append((pool._s[i], int(pool._a[i]), float(pool._r[i]), pool._s2[i],
                     bool(pool._done[i])))
    return rows


def eager_select_action(q, mask, epsilon, rng):
    """Epsilon-greedy actions from a (sensors, actions) Q matrix computed
    up front: None for each sensor where mask is False; for the others, in
    sensor order, a uniform action with prob eps, else the argmax of its
    row (ties -> lowest index). Each deciding sensor draws rng.random()
    when eps > 0, and rng.integers(actions) only when it explores."""
    if q.ndim != 2 or q.shape[1] == 0 or np.shape(mask) != (len(q),) or not 0 <= epsilon <= 1:
        raise ValueError("need a non-empty (sensors, actions) q, a mask per row, eps in [0, 1]")
    actions = q.argmax(axis=1).tolist()
    for i, decides in enumerate(mask.tolist()):
        if not decides:
            actions[i] = None
        elif epsilon > 0.0 and rng.random() < epsilon:
            actions[i] = int(rng.integers(q.shape[1]))
    return actions


def strptime_timestamp(date, time):
    """UTC seconds of a trace line's date and time fields through
    datetime.strptime, or None where strptime rejects them."""
    fmt = "%Y-%m-%d %H:%M:%S.%f" if "." in time else "%Y-%m-%d %H:%M:%S"
    try:
        when = datetime.strptime(f"{date} {time}", fmt)
    except ValueError:
        return None
    return calendar.timegm(when.timetuple()) + when.microsecond / 1e6


class SensorReading(NamedTuple):
    """One parsed trace line, in the order of load_trace's columns."""

    timestamp: float  # seconds since the Unix epoch (fractional), date and time read as UTC
    epoch: int
    mote: int
    temperature: float
    humidity: float
    light: float
    voltage: float


@dataclass
class ParseSkip:
    """A line that does not parse, with its reason code."""

    reason: str


def parse_line(line):
    """Map one trace line to a SensorReading or a ParseSkip, checking in
    order: 8 fields ("wrong_field_count"); epoch and mote int(), channels
    float() and finite, epoch and mote in int64 ("unparseable_value"); mote
    >= 1 and epoch >= 0 ("plausibility"); date and time as strptime reads
    them ("unparseable_value")."""
    fields = line.split()
    if len(fields) != 8:
        return ParseSkip("wrong_field_count")
    try:
        epoch = int(fields[2])
        mote = int(fields[3])
        channels = [float(v) for v in fields[4:8]]
    except ValueError:
        return ParseSkip("unparseable_value")
    fits = [-(2**63) <= n <= 2**63 - 1 for n in (epoch, mote)]
    if not (all(math.isfinite(v) for v in channels) and all(fits)):
        return ParseSkip("unparseable_value")
    if mote < 1 or epoch < 0:
        return ParseSkip("plausibility")
    stamp = strptime_timestamp(fields[0], fields[1])
    if stamp is None:
        return ParseSkip("unparseable_value")
    return SensorReading(stamp, epoch, mote, *channels)


def key_tuple_trace(lines, delta_t, parse, plausible):
    """Ingest trace lines the plain way: one parsed object per line and a
    dict of key tuples per mote.

    parse(line) gives a reading tuple (timestamp, epoch, mote, *channels)
    or a skip with a .reason; readings outside the plausible[channel] =
    (lo, hi) windows (in channel order) skip as "plausibility". A slot
    conflict keeps the reading with the larger (timestamp, epoch,
    *channels) tuple, the first line of equal ones. Returns
    ({mote: (values, present, stats)} in ascending mote order, total,
    kept, {reason: count}).
    """
    skipped = {}
    readings = []
    for line in lines:
        parsed = parse(line)
        if not isinstance(parsed, tuple):
            reason = parsed.reason
        elif all(lo <= v <= hi for v, (lo, hi) in zip(parsed[3:], plausible.values())):
            readings.append(parsed)
            continue
        else:
            reason = "plausibility"
        skipped[reason] = skipped.get(reason, 0) + 1
    if not readings:
        return {}, len(lines), 0, skipped

    stamps = [r[0] for r in readings]
    t0 = min(stamps)
    slots = [int((t - t0) // delta_t) for t in stamps]
    n_slots = max(slots) + 1
    grids = {}
    for reading, slot in zip(readings, slots):
        per_mote = grids.setdefault(reading[2], {})
        key = (reading[0], reading[1], *reading[3:])
        held = per_mote.get(slot)
        if held is None or key > held[0]:
            per_mote[slot] = (key, reading)

    out = {}
    for mote in sorted(grids):
        values = {ch: np.full(n_slots, np.nan) for ch in plausible}
        present = np.zeros(n_slots, dtype=bool)
        for slot, (_, reading) in grids[mote].items():
            present[slot] = True
            for ch, v in zip(plausible, reading[3:]):
                values[ch][slot] = v
        stats = {ch: (float(np.nanmin(values[ch])), float(np.nanmax(values[ch]))) for ch in plausible}
        out[mote] = (values, present, stats)
    return out, len(lines), len(readings), skipped


def aligned_rows(grids):
    """The aligned dump's rows, one cell at a time, from key_tuple_trace's
    {mote: (values, present, stats)}: per (mote, slot) the mote, slot and
    presence flag, then each channel's raw value and then each normalized
    by its (min, max) (by 1 where max <= min), as "%.12g"; a missing value
    leaves both of its cells empty."""
    rows = []
    for mote in sorted(grids):
        values, present, stats = grids[mote]
        for slot in range(len(present)):
            raw, norm = [], []
            for ch in values:
                v = values[ch][slot]
                if np.isnan(v):
                    raw.append("")
                    norm.append("")
                    continue
                lo, hi = stats[ch]
                span = hi - lo if hi > lo else 1.0
                raw.append(format(float(v), ".12g"))
                norm.append(format((float(v) - lo) / span, ".12g"))
            rows.append([mote, slot, int(present[slot])] + raw + norm)
    return rows


def rolling_std_events(values, window, k):
    """Epochs whose delta exceeds k times the np.std of the `window`
    deltas before it, one window at a time."""
    diffs = np.diff(np.asarray(values, dtype=np.float64))
    events = []
    for t in range(window, len(diffs)):
        sigma = float(np.std(diffs[t - window : t]))
        if sigma > 0 and abs(diffs[t]) > k * sigma:
            events.append(t + 1)
    return events


def rolling_std(values, window):
    """np.std of each `window` deltas before delta t, for t = window .. n-2."""
    diffs = np.diff(np.asarray(values, dtype=np.float64))
    return [float(np.std(diffs[t - window : t])) for t in range(window, len(diffs))]


def usable_windows(presence, sensors, epochs, start_slot, end_slot, min_presence):
    """Start slots of the replay episode windows, one sensor at a time.

    presence[mote] is the mote's per-slot presence flags; sensors the
    configured (mote, channel) pairs. Windows of `epochs` slots lie end to
    end from start_slot and wholly before end_slot (None: the trace end,
    and a later end_slot is capped at it); a window counts when, for every
    sensor, at least min_presence of its slots hold a reading.
    """
    windows = None
    for mote, _ in sensors:
        present = presence[mote]
        last = len(present) if end_slot is None else min(len(present), end_slot)
        mine = {
            s
            for s in range(start_slot, last - epochs + 1, epochs)
            if present[s : s + epochs].mean() >= min_presence
        }
        windows = mine if windows is None else windows & mine
    return sorted(windows or [])
