#!/usr/bin/env python3
"""sensorq benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload, one child each

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`, and inputs, outputs, spans and results go under
`.bench_out/`. A run

1. writes the workload's inputs from --seed (untimed),
2. sets the program up SETUPS times (import in a fresh interpreter,
   spec from the config file, snapshot load, one warm-up call) and
   reports the median as setup_s,
3. repeats one fixed unit of work until --seconds have passed (and, with
   --trace 0, until at least MIN_UNITS units ran), checking each unit's
   outputs and hashing its output files; with --trace 0 it times each
   env step and trace line of each unit and a calibration kernel after
   each unit (see run_units),
4. prints every metric with its unit, a `details:` line (metadata,
   digests, sample counts) and, last, one JSON object with `correct`,
   `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
units with units where every layer function is wrapped in a span (see
tracing.py), and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(".bench_out")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5
MIN_UNITS = 8
CAL_REPS = 200  # calibration kernel runs after each unit
CAL_REF_S = 100e-6  # kernel time that defines the reference speed of the machine
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import sensorq.experiments, sensorq.ingest; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "eval_sweep", "replay", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def load_program():
    """Import sensorq from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "sensorq" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {src / 'sensorq'}")
    sys.path.insert(0, str(src))
    import sensorq

    if Path(sensorq.__file__).resolve().parent != (src / "sensorq").resolve():
        raise SystemExit(f"bench: sensorq imported from {sensorq.__file__}, not {src}")


def metadata() -> dict:
    import numpy as np

    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")  # None when the checkout is no git repository
    sha = git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_files = sorted((ROOT / "src").rglob("*.py"))
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "tz": os.environ.get("TZ"),
        "tzname": list(time.tzname),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


def import_seconds() -> float:
    """sensorq import time in a fresh interpreter (startup itself excluded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload) -> list[float]:
    times = []
    for _ in range(SETUPS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        times.append(t_import + time.perf_counter() - t0)
    return times


class _Reading:
    __slots__ = ("value", "index")

    def __init__(self, value, index):
        self.value = value
        self.index = index


def calibration_kernel(a, v) -> float:
    """Fixed work that shares no code with sensorq: one piece of each kind of
    work the program does, each about a third of the kernel's time. Python
    arithmetic and 64x64 matrix products (nn), small objects and calls on
    small arrays (env, agent), and splitting and converting trace-like text
    lines (ingest). Host load slows these kinds by different amounts; the mix
    follows the slowdown of all three workloads better than any one piece."""
    s = 0.0
    for i in range(150):
        s += i * 0.5
    for _ in range(3):
        a @ a
    held = {}
    for i in range(20):
        r = _Reading(i * 0.5, i)
        held[r.index] = r
        s += float((v * r.value).clip(0.0)[i])
    a[:4] @ a
    for i in range(20):
        fields = f"2004-03-01 10:{i:02d}:00.123456 {i} 3 19.{i}5 40.5 300.25 2.6".split()
        s += int(fields[2]) + sum(float(x) for x in fields[4:8])
    return s


def run_units(workload, seconds, min_units, clock, checks, digests, tracer=None, cal_reps=0):
    """Repeat the workload's unit; return the unit walls, the fastest time
    of each segment over the units, the segment layout and the fastest time
    of each of `cal_reps` calibration kernel runs made after every unit.

    The clock's timestamps cut a unit into segments (unit start to the
    first timestamp, one timestamp to the next, the last to unit end).
    Every unit does the same work, so segment i of one unit is the same
    piece of work as segment i of any other. Neighbours on a shared host
    only ever add time, in spells longer than a segment and shorter than a
    run, so the per-segment minimum is the steadiest estimate of the work
    itself. `resets` holds, for each SensorEnv.reset, the index of the
    segment it starts.

    Even that minimum drifts by 10% or more from one run to the next, with
    the load on the host; a calibration kernel, timed the same way in the
    same run, drifts with it, so the run reports times divided by the
    kernel's slowdown against CAL_REF_S."""
    import numpy as np  # not at module level: BLAS thread caps are set first
    from workloads import digest

    walls, best, resets = [], None, None
    cal_rng = np.random.default_rng(0)
    cal_a, cal_v = cal_rng.random((64, 64)), cal_rng.random(64)
    cal_best = np.full(cal_reps, np.inf)
    deadline = time.perf_counter() + seconds
    while True:
        workload.clear_out()
        clock.take()
        if tracer:
            tracer.begin_unit()
        t0 = time.perf_counter()
        result = workload.unit()
        t1 = time.perf_counter()
        if tracer:
            tracer.end_unit(t1 - t0)
        walls.append(t1 - t0)
        stamps, reset_at = clock.take()
        segments = np.diff(np.concatenate(([t0], stamps, [t1])))
        reset_at = [i + 1 for i in reset_at]
        if best is None:
            best, resets = segments, reset_at
        else:
            same = reset_at == resets and len(segments) == len(best)
            checks.expect(same, "segment layout repeats across units")
            if same:
                np.minimum(best, segments, out=best)
        workload.check(result, checks)
        digests.append(digest(workload.out))
        checks.expect(digests[-1] == digests[0], "output digest repeats across units")
        for k in range(cal_reps):
            c0 = time.perf_counter()
            calibration_kernel(cal_a, cal_v)
            cal_best[k] = min(cal_best[k], time.perf_counter() - c0)
        if time.perf_counter() >= deadline and len(walls) >= min_units:
            return walls, best, resets, cal_best


def run_one(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    load_program()
    import numpy as np
    import tracing
    import workloads
    from sensorq.env import SensorEnv

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    workload.make_inputs()
    setup_times = measure_setup(workload)

    checks = workloads.Checks()
    clock, patches = tracing.StepClock(), tracing.Patches()
    clock.install(patches)
    digests: list[str] = []
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "metadata": metadata(),
               "setup_s_samples": setup_times}
    if args.trace == 0:
        walls, best, resets, cal = run_units(workload, args.seconds, MIN_UNITS, clock, checks,
                                             digests, cal_reps=CAL_REPS)
        # > 1 when the machine ran slower than the reference speed in this run
        slowdown = float(cal.mean()) / CAL_REF_S
        wall = float(best.sum()) / slowdown
        episodes_ms = [float(best[a:b].sum()) * 1e3 / slowdown for a, b in zip(resets, resets[1:])]
        p50, p90 = np.percentile(episodes_ms, [50, 90])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setup_times) / slowdown, "s"),
            "wall_s": (wall, "s"),
            "env_steps_per_s": (len(resets) * workload.spec.env.epochs / wall, "1/s"),
            "episode_ms_p50": (float(p50), "ms"),
            "episode_ms_p90": (float(p90), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        details.update(units=len(walls), unit_wall_median_s=statistics.median(walls),
                       wall_uncalibrated_s=float(best.sum()), slowdown=slowdown,
                       segments=len(best), episode_samples=len(episodes_ms), digest=digests[0])
        samples = {"unit_walls": walls, "episodes_ms": episodes_ms}
        if args.workload == "replay":
            details["ingest_lines_per_s"] = workload.planted["total"] / min(workload.load_s)
    else:
        samples = {}
        # untraced and traced units alternate, so drift cancels out of the overhead
        tracer, traced = tracing.Tracer(), tracing.Patches()
        walls: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(tracer.units) < 2:
            walls += run_units(workload, 0, 1, clock, checks, digests)[0]
            tracer.install(traced)
            try:
                run_units(workload, 0, 1, clock, checks, digests, tracer)
            finally:
                traced.undo()
        hypers = workload.spec.hypers
        env = SensorEnv(workload.spec.env)
        sizes = [env.obs_dim, *hypers.hidden, env.num_actions]
        cost = tracing.train_step_cost(sizes, hypers.batch_size)
        metrics, unequal = tracing.per_layer(tracer, walls, cost)
        checks.expect(not unequal, f"counts repeat across traced units: {unequal}")
        epochs = workload.spec.env.epochs
        checks.expect(metrics["env.step.calls"][0] == metrics["env.reset.calls"][0] * epochs,
                      "env.step calls equal resets times epochs")
        spans_path = OUT / args.workload / f"spans_seed{args.seed}.npz"
        tracer.write(spans_path)
        details.update(units=len(walls), traced_units=len(tracer.units), digest=digests[0],
                       digest_traced=digests[-1], spans=spans_path.as_posix(), spans_count=len(tracer.start))
    patches.undo()

    details.update(checks_attempted=checks.attempted, checks_failed=len(checks.failures),
                   failed_frac=len(checks.failures) / checks.attempted,
                   failures=checks.failures[:20])
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    save = OUT / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    save.parent.mkdir(parents=True, exist_ok=True)
    save.write_text(json.dumps({"details": details, "result": result, **samples}) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<40} {value:>16.6g} {unit}")
    print(f"{args.workload:<10} {'failed_frac':<40} {details['failed_frac']:>16.6g} ratio")
    if "ingest_lines_per_s" in details:
        print(f"{args.workload:<10} {'ingest_lines_per_s':<40} {details['ingest_lines_per_s']:>16.6g} 1/s")
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own child process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("train", "eval_sweep", "replay"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"bench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
