#!/usr/bin/env python3
"""Self-test: counts and output digests repeat exactly for one seed.

    python3 benchmarks/selftest.py [--seed 7] [--seconds 4]

For each workload it makes two traced runs and one untraced run with the
same seed and fails (exit 1) unless

- every run is correct (no failed output check),
- every count metric, the computed nn.train_step figures and the ratios
  of counts are equal between the two traced runs,
- the output digest is the same in all three runs, traced or not.

Later changes can then cite these values as exact counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXACT_UNITS = {"count", "flop_computed", "B_computed"}
EXACT_RATIOS = {"env.kept_frac", "ingest.kept_frac"}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    details = json.loads(next(ln for ln in lines if ln.startswith("details: "))[len("details: "):])
    return json.loads(lines[-1]), details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=4.0)
    args = p.parse_args(argv)

    problems = []
    for workload in ("train", "eval_sweep", "replay"):
        (a, da), (b, db), (plain, dp) = (run(workload, args.seed, args.seconds, t) for t in (1, 1, 0))
        for name, res in (("traced run 1", a), ("traced run 2", b), ("untraced run", plain)):
            if not res["correct"]:
                problems.append(f"{workload}: {name} failed {res['failed']} of {res['attempted']} checks")
        exact = sorted(k for k, v in a["metrics"].items() if v["unit"] in EXACT_UNITS or k in EXACT_RATIOS)
        differ = [k for k in exact if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        if differ:
            problems.append(f"{workload}: counts differ between runs: {differ}")
        digests = {da["digest"], da["digest_traced"], db["digest"], db["digest_traced"], dp["digest"]}
        if len(digests) != 1:
            problems.append(f"{workload}: output digests differ: {sorted(digests)}")
        print(f"{workload}: {len(exact)} exact values repeat: {not differ}; "
              f"one digest across 3 runs: {len(digests) == 1}", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
