"""Command-line entry points for ingestion, training, and the experiments.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 a --check
assertion failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, ingest
from .errors import CheckFailure, ConfigError
from .experiments import (
    emit_plotdata,
    run_compare,
    run_interference_sweep,
    run_train,
    run_weight_sweep,
    spec_from_file,
)


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}") from exc


def _load_spec(args):
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    spec = spec_from_file(args.config, args.out, seeds)
    if getattr(args, "mode", None):
        spec.env.mode = args.mode
        spec.env.validate()
    if getattr(args, "checkpoint", None):
        spec.checkpoint = args.checkpoint
    return spec


def _plotdata(args, spec, stem: str) -> None:
    if args.plotdata:
        out = Path(spec.out_dir)
        emit_plotdata(out / f"{stem}.csv", out / f"{stem}.dat")


def cmd_ingest(args) -> int:
    trace, report = ingest.load_trace(args.trace, delta_t=args.delta_t)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_report_csv(report, out / "ingest_report.csv")
    if args.dump:
        ingest.write_aligned_csv(trace, out / "aligned.csv")
    print(
        f"ingested {report.total} lines: kept {report.kept}, "
        f"skipped {report.total_skipped} ({len(trace.motes)} motes)"
    )
    return 0


def cmd_train(args) -> int:
    spec = _load_spec(args)
    for seed, result in zip(spec.seeds, run_train(spec)):
        final = result.curve[-1] if result.curve else (0, 0.0, 0.0, spec.hypers.eps_start)
        print(f"seed {seed}: {spec.train_episodes} episodes, final return {final[1]:.2f}")
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args)
    spec.train_missing = args.train
    reports = run_compare(spec, check=args.check)
    for r in reports:
        print(
            f"{r.policy:16s} quality={r.quality:.3f} energy={r.energy_mj:7.1f}mJ "
            f"redundancy={r.redundancy_pct:5.1f}% detection={r.detection_pct:5.1f}%"
        )
    _plotdata(args, spec, "compare")
    return 0


def cmd_sweep_weights(args) -> int:
    spec = _load_spec(args)
    cells = run_weight_sweep(spec, check=args.check)
    for cell in cells:
        r = cell["report"]
        print(
            f"weights={cell['triple']}: quality={r.quality:.3f} "
            f"energy={r.energy_mj:.1f}mJ detection={r.detection_pct:.1f}%"
        )
    _plotdata(args, spec, "weight_sweep")
    return 0


def cmd_sweep_interference(args) -> int:
    spec = _load_spec(args)
    cells = run_interference_sweep(spec, check=args.check)
    for cell in cells:
        print(f"{cell['policy']:16s} eta={cell['eta']:.1f} quality={cell['quality']:.3f}")
    _plotdata(args, spec, "interference_sweep")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorq", description="adaptive multi-sensor sampling experiments"
    )
    parser.add_argument("--version", action="version", version=f"sensorq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and align a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta-t", type=float, default=60.0)
    p.add_argument("--dump", action="store_true", help="also write the aligned series CSV")
    p.set_defaults(fn=cmd_ingest)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seeds", default=None, help="comma-separated, overrides config")
        p.add_argument("--out", required=True)
        p.add_argument("--mode", choices=["synthetic", "replay"], default=None)

    def experiment(p):
        common(p)
        p.add_argument("--plotdata", action="store_true", help="emit gnuplot-style .dat")
        p.add_argument("--check", action="store_true", help="assert the directional orderings")

    p = sub.add_parser("train", help="train the sampling agent per seed")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", help="policy comparison table")
    experiment(p)
    p.add_argument("--checkpoint", default=None, help="reuse a trained network snapshot")
    p.add_argument("--train", action="store_true", help="train dqn when no checkpoint")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep-weights", help="reward-weight sweep")
    experiment(p)
    p.set_defaults(fn=cmd_sweep_weights)

    p = sub.add_parser("sweep-interference", help="interference robustness sweep")
    experiment(p)
    p.set_defaults(fn=cmd_sweep_interference)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
