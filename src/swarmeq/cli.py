"""Command-line driver: run a custom solve or a named experiment.

Examples:
    swarmeq experiment kp2 --output kp2.json
    swarmeq experiment multistate --set N=2048 --format csv --output runs/multi.csv
    swarmeq solve --set kernel=qanr --set eps=0.3 --set nu=0.001 --set stages=6
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ResultRecord,
    emit,
    run_experiment,
)


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise argparse.ArgumentTypeError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings like kernel=qanr
    return key.strip(), value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    and the appended `--set` list starts from a copy of its default."""
    parser = argparse.ArgumentParser(
        prog="swarmeq",
        description="Compute and verify critical points of the aggregation-diffusion energy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--set", dest="overrides", metavar="KEY=VALUE", action="append", default=[],
        type=_parse_override,
        help="override an experiment parameter (repeatable); values parse as JSON",
    )
    common.add_argument("--output", help="write results to this path")
    common.add_argument("--format", choices=("csv", "json"),
                        help="format of --output (default json)")
    common.add_argument("--seed", type=int, help="random seed (stochastic experiments)")

    run = sub.add_parser("experiment", parents=[common], help="run a named experiment")
    run.add_argument("name", choices=EXPERIMENT_NAMES)

    sub.add_parser("solve", parents=[common], help="run a single custom solve")
    return parser


def _summary_line(record: ResultRecord) -> str:
    status = record.metrics.get("converged")
    tag = {True: "converged", False: "NOT CONVERGED", None: "done"}[status]
    extras = []
    for key in ("total_energy", "lambda_inf", "iterations", "coarse_iterations",
                "total_iterations", "stages_converged", "aggregates", "effective_dimension",
                "l1_error_exact"):
        val = record.metrics.get(key)
        if val is not None and not (key == "coarse_iterations" and val == 0):
            extras.append(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}")
    label = ", ".join(
        f"{k}={v}" for k, v in list(record.parameters.items())[:3]
    )
    return f"[{record.experiment}] {label}: {tag} ({', '.join(extras)})"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = dict(args.overrides)
    name = args.name if args.command == "experiment" else "custom"
    try:
        if args.format and not args.output:
            raise ValueError("--format needs --output")
        if args.seed is not None and overrides.setdefault("seed", args.seed) != args.seed:
            raise ValueError(f"--seed {args.seed} disagrees with seed={overrides['seed']!r}")
        records = run_experiment(ExperimentConfig(name, overrides))
        for record in records:
            _print(_summary_line(record))
        if args.output:
            written = emit(records, args.format or "json", args.output)
            _print(f"wrote {len(written)} file(s); primary: {written[0]}")
    # OSError: --output unwritable; MemoryError: a grid (`make_grid`, before
    # any solve) or an operator (as its first record reaches it) that cannot
    # be allocated
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any(r.converged is False for r in records) else 0


def _print(line: str) -> None:
    """Print a line to stdout at once.  When the reader has closed stdout (as
    `swarmeq ... | head -1` does), this and later output go to os.devnull, so
    the run still writes its files and exits with its own status."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
