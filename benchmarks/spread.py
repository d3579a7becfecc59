#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload train --seeds 1-10
    python3 benchmarks/spread.py --workload replay --seeds 3,5,8 --seconds 10

For every end-to-end metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (Q3 - Q1) / median,
next to the metric's bound in BENCHMARK.json. Runs go one after another;
the per-seed results and the summary are saved under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                         "bound": metric["bound"], "values": values}
        print(f"{name:<18} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {metric['bound']:>6}")
    print("all correct:", all(r["correct"] for r in runs))
    out = ROOT / ".bench_out" / f"spread_{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "runs": runs, "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
