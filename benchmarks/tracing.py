"""Span tracing from outside the program, and the per-layer statistics.

`Tracer.install` wraps each function in TRACED on the name its callers
look up: every `sensorq` module attribute that holds the original function
(so `sensorq.env.synth_track` and `sensorq.experiments.train` are covered
too), or the class attribute for methods. Nothing under `src/` changes.

A span is a name, its parent span, a start and an end. Spans stay in
memory and are written out once, as .npz, when the run ends. Self time is a
span's duration minus its direct children's durations (calls nest, so
children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _forward_name(params, x, *_, **__):
    return f"nn.forward_batch.b{len(x)}"


# (module, attribute or Class.method, span name or a function of the call's args)
TRACED = [
    ("experiments", "run_compare", "experiments.run_compare"),
    ("experiments", "run_interference_sweep", "experiments.run_interference_sweep"),
    ("experiments", "evaluate_policy", "experiments.evaluate_policy"),
    ("experiments", "train_dqn", "experiments.train_dqn"),
    ("experiments", "write_manifest", "experiments.write_manifest"),
    ("agent", "train", "agent.train"),
    ("agent", "td_loss", "agent.td_loss"),
    ("agent", "select_action", "agent.select_action"),
    ("agent", "ReplayPool.push", "agent.ReplayPool.push"),
    ("agent", "ReplayPool.sample", "agent.ReplayPool.sample"),
    ("agent", "write_curve_csv", "agent.write_curve_csv"),
    ("nn", "forward_batch", _forward_name),
    ("nn", "backward_batch", "nn.backward_batch"),
    ("nn", "adam_step", "nn.adam_step"),
    ("nn", "soft_update", "nn.soft_update"),
    ("nn", "save_network", "nn.save_network"),
    ("nn", "load_network", "nn.load_network"),
    ("env", "SensorEnv.reset", "env.reset"),
    ("env", "SensorEnv.step", "env.step"),
    ("env", "SensorEnv.episode_log", "env.episode_log"),
    ("signals", "synth_track", "signals.synth_track"),
    ("signals", "inject_interference", "signals.inject_interference"),
    ("signals", "detect_events", "signals.detect_events"),
    ("baselines", "FixedPolicy.act", "baselines.fixed.act"),
    ("baselines", "RandomPolicy.act", "baselines.random.act"),
    ("baselines", "ThresholdPolicy.act", "baselines.threshold.act"),
    ("baselines", "GreedyQPolicy.act", "baselines.greedy_q.act"),
    ("metrics", "data_quality", "metrics.data_quality"),
    ("metrics", "energy_total", "metrics.energy_total"),
    ("metrics", "redundancy_rate", "metrics.redundancy_rate"),
    ("metrics", "event_detection_rate", "metrics.event_detection_rate"),
    ("metrics", "write_reports_csv", "metrics.write_reports_csv"),
    ("ingest", "load_trace", "ingest.load_trace"),
    ("ingest", "hold_fill", "ingest.hold_fill"),
    ("ingest", "write_report_csv", "ingest.write_report_csv"),
]

SCORE_SPANS = ("metrics.data_quality", "metrics.energy_total",
               "metrics.redundancy_rate", "metrics.event_detection_rate")
IO_SPANS = ("experiments.write_manifest", "agent.write_curve_csv", "nn.save_network",
            "nn.load_network", "metrics.write_reports_csv", "ingest.write_report_csv")


class Patches:
    """Replaced attributes, restored in reverse order by `undo`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def function(self, module: str, attr: str, make_wrapper) -> None:
        """Wrap a module function everywhere a sensorq module holds it, or a method on its class."""
        owner = sys.modules[f"sensorq.{module}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
            attr = method
        original = getattr(owner, attr, None)
        if original is None:
            print(f"bench: sensorq.{module}.{attr} not found, not traced", file=sys.stderr)
            return
        wrapper = make_wrapper(original)
        holders = [owner] if cls_name else [
            mod for name, mod in list(sys.modules.items())
            if name.startswith("sensorq") and mod is not None
            and any(v is original for v in vars(mod).values())
        ]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, name, value))
                    setattr(holder, name, wrapper)

    def undo(self) -> None:
        while self._saved:
            holder, name, value = self._saved.pop()
            setattr(holder, name, value)


# Pass-through timestamps of untraced runs besides SensorEnv.reset: the
# calls that repeat the unit's work in small even pieces.
CUTS = [
    ("env", "SensorEnv.step"),  # one epoch for all sensors, with the agent's work around it
    ("ingest", "parse_line"),  # one trace line
]


class StepClock:
    """Pass-through timestamps on SensorEnv.reset and the CUTS, the only
    hooks in untraced runs. They cut a unit into short segments."""

    def __init__(self):
        self.stamps = array("d")
        self.resets: list[int] = []  # indices into stamps

    def install(self, patches: Patches) -> None:
        stamps, resets, now = self.stamps, self.resets, time.perf_counter

        def make_reset(original):
            def reset(self, *args, **kwargs):
                resets.append(len(stamps))
                stamps.append(now())
                return original(self, *args, **kwargs)
            return reset

        def make_cut(original):
            def cut(*args, **kwargs):
                stamps.append(now())
                return original(*args, **kwargs)
            return cut

        patches.function("env", "SensorEnv.reset", make_reset)
        for module, attr in CUTS:
            patches.function(module, attr, make_cut)

    def take(self) -> tuple[np.ndarray, list[int]]:
        """Timestamps and the indices of the reset ones since the last take."""
        taken = np.array(self.stamps), list(self.resets)
        del self.stamps[:]
        self.resets.clear()
        return taken


class Tracer:
    """Spans in typed arrays (about 28 bytes each): name id, parent span
    index (-1 at top level), start and end in perf_counter ns."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id, self.parent = array("i"), array("q")
        self.start, self.end = array("q"), array("q")
        self.units: list[tuple[int, int, float]] = []  # (first span, end span, wall s)
        self.kept: list[int] = []  # kept samples per unit, from inject_interference
        self.ingested: list[tuple[int, int]] = []  # (kept, total) of each load_trace report
        self._stack = [-1]
        self._unit_start = 0

    def install(self, patches: Patches) -> None:
        observers = {"inject_interference": self._count_kept, "load_trace": self._ingest_report}
        for module, attr, name in TRACED:
            observe = observers.get(attr)
            patches.function(module, attr, lambda original, n=name, o=observe: self._wrap(original, n, o))

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, original, name, observe):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, id_of = self._stack, time.perf_counter_ns, self.id_of
        fixed_id = None if callable(name) else id_of(name)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(fixed_id if fixed_id is not None else id_of(name(*args, **kwargs)))
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe:
                observe(result)
            return result

        return traced

    def _count_kept(self, result) -> None:
        self.kept[-1] += bool(result[1])

    def _ingest_report(self, result) -> None:
        report = result[1]
        self.ingested.append((report.kept, report.total))

    def begin_unit(self) -> None:
        self._unit_start = len(self.start)
        self.kept.append(0)

    def end_unit(self, wall_s: float) -> None:
        self.units.append((self._unit_start, len(self.start), wall_s))

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int64), start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64))


def _median(values, scale=1.0) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def per_layer(tracer: Tracer, untraced_walls: list[float], train_step: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced units, plus counts that differ
    between units (which must not happen: every unit does the same work)."""
    ids = np.frombuffer(tracer.name_id, np.int32)
    parent = np.frombuffer(tracer.parent, np.int64)
    dur = (np.frombuffer(tracer.end, np.int64) - np.frombuffer(tracer.start, np.int64)) * 1e-9
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    n_names = len(tracer.names)
    unit_of = np.full(len(dur), -1)
    for u, (first, end, _) in enumerate(tracer.units):
        unit_of[first:end] = u
    walls = np.array([w for *_, w in tracer.units])

    per_unit = np.array([np.bincount(ids[first:end], minlength=n_names) for first, end, _ in tracer.units])
    unequal = [tracer.names[k] for k in np.flatnonzero((per_unit != per_unit[0]).any(axis=0))]

    in_unit = unit_of >= 0  # output checks run between units and may be traced too

    def idx(name):
        return np.flatnonzero((ids == tracer._ids[name]) & in_unit) if name in tracer._ids else np.array([], int)

    def count(name):
        return int(per_unit[0][tracer._ids[name]]) if name in tracer._ids else 0

    def us(name, values=dur):
        return _median(values[idx(name)], 1e6)

    def per_unit_sum(values, where):
        where = where & in_unit
        return np.bincount(unit_of[where], weights=values[where], minlength=len(walls))

    m: dict[str, tuple[float, str]] = {}
    for rows in (64, 4):
        m[f"nn.forward_batch.b{rows}.us"] = (us(f"nn.forward_batch.b{rows}"), "us")
        m[f"nn.forward_batch.b{rows}.calls"] = (count(f"nn.forward_batch.b{rows}"), "count")
    for name in ("nn.backward_batch", "nn.adam_step", "nn.soft_update"):
        m[f"{name}.us"] = (us(name), "us")
    steps = count("nn.adam_step")
    m["nn.train_step.flops"] = (train_step["flops"] if steps else 0, "flop_computed")
    m["nn.train_step.bytes"] = (train_step["bytes"] if steps else 0, "B_computed")

    m["agent.td_loss.self_us"] = (us("agent.td_loss", self_s), "us")
    m["agent.ReplayPool.sample.us"] = (us("agent.ReplayPool.sample"), "us")
    for name in ("agent.ReplayPool.push", "agent.select_action"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.us"] = (us(name), "us")
    is_train = np.zeros(len(dur), bool)
    is_train[idx("agent.train")] = True
    resets = idx("env.reset")
    train_resets = resets[is_train[parent[resets]] & (parent[resets] >= 0)]
    episodes = np.bincount(unit_of[train_resets], minlength=len(walls))
    train_self = per_unit_sum(self_s, is_train)
    m["agent.train.self_ms_per_episode"] = (_median(train_self[episodes > 0] / episodes[episodes > 0], 1e3), "ms")
    m["agent.train_steps"] = (steps, "count")

    for name in ("env.step", "env.reset"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.self_us"] = (us(name, self_s), "us")
    m["env.episode_log.us"] = (us("env.episode_log"), "us")
    attempted = count("signals.inject_interference")
    kept = tracer.kept[0]
    if len(set(tracer.kept)) > 1:
        unequal.append("env.samples_kept")
    m["env.samples_attempted"] = (attempted, "count")
    m["env.samples_kept"] = (kept, "count")
    m["env.kept_frac"] = (kept / attempted if attempted else 0.0, "ratio")
    for name in ("signals.synth_track", "signals.inject_interference", "signals.detect_events"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.us"] = (us(name), "us")
    for kind in ("fixed", "random", "threshold", "greedy_q"):
        m[f"baselines.{kind}.act.us"] = (us(f"baselines.{kind}.act"), "us")

    # evaluate_policy makes the four metric calls back to back once per episode
    score = np.sort(np.concatenate([idx(n) for n in SCORE_SPANS]))
    m["metrics.score.us"] = (_median(dur[score].reshape(-1, 4).sum(axis=1), 1e6), "us")

    loads = idx("ingest.load_trace")
    explicit = loads[parent[loads] < 0]
    lines = tracer.ingested[0][1] if tracer.ingested else 0
    m["ingest.load_trace.calls"] = (count("ingest.load_trace"), "count")
    m["ingest.load_trace.s"] = (_median(dur[loads]), "s")
    m["ingest.lines_per_s"] = (_median(lines / dur[explicit]), "1/s")
    if len(set(tracer.ingested)) > 1:
        unequal.append("ingest report")
    m["ingest.kept_frac"] = (tracer.ingested[0][0] / lines if lines else 0.0, "ratio")
    m["ingest.hold_fill.us"] = (us("ingest.hold_fill"), "us")
    is_load = np.zeros(len(dur), bool)
    is_load[loads] = True
    m["ingest.load_trace.wall_share"] = (_median(per_unit_sum(dur, is_load) / walls), "ratio")

    m["experiments.evaluate_policy.calls"] = (count("experiments.evaluate_policy"), "count")
    m["experiments.evaluate_policy.self_ms"] = (us("experiments.evaluate_policy", self_s) / 1e3, "ms")
    is_io = np.isin(ids, [tracer._ids[n] for n in IO_SPANS if n in tracer._ids])
    m["experiments.io.ms"] = (_median(per_unit_sum(dur, is_io), 1e3), "ms")

    traced_wall = _median(walls)
    plain_wall = _median(untraced_walls)
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    return m, sorted(unequal)


def train_step_cost(sizes: list[int], batch: int) -> dict:
    """Computed (not measured) flops and bytes of one training step.

    td_loss runs three forward passes of `batch` rows (target, online, and
    the one backward_batch repeats) and one backward pass; adam_step and
    soft_update then touch every parameter. Bytes are the float64 data each
    pass must read and write at least once (inputs, parameters, outputs);
    temporaries inside a pass are not counted.
    """
    flops = words = params = 0
    layers = list(zip(sizes[:-1], sizes[1:]))
    for k, (i, o) in enumerate(layers):
        relu = k < len(layers) - 1
        params += i * o + o
        # forward: matmul, bias and relu; reads x, W, b and writes the output
        flops += 3 * (2 * batch * i * o + batch * o + (batch * o if relu else 0))
        words += 3 * (batch * i + i * o + o + batch * o)
        # backward: weight and bias gradients from delta and x
        flops += 2 * batch * i * o + batch * o
        words += batch * o + batch * i + i * o + o
        if k > 0:  # delta through W and the relu mask; reads W and z, writes delta
            flops += 2 * batch * i * o + batch * i
            words += i * o + 2 * batch * i
    flops += (14 + 3) * params  # adam: moments, bias correction, update; soft blend
    words += (7 + 3) * params  # adam reads p, g, m, v, writes p, m, v; blend reads 2, writes 1
    return {"flops": flops, "bytes": 8 * words}
