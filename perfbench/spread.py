#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload multistate --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload effdim --seeds 0-9 --trace 1

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the inter-quartile
range as a share of the median.  End-to-end metrics also show their bound
from BENCHMARK.json and are marked when the spread exceeds a third of it.
The runs are sequential, so only one benchmark process loads the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", default=["0-9"], help="seeds or ranges like 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--markdown", action="store_true", help="print a markdown table")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    results = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr)

    names = list(results[0]["metrics"])
    rows = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "  > bound/3" if bound is not None and not spread < bound / 3 else ""
        rows.append((name, results[0]["metrics"][name]["unit"], median, q1, q3, spread, bound, flag))

    if args.markdown:
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, unit, median, q1, q3, spread, bound, _ in rows:
            print(f"| `{name}` | {unit} | {median:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.2%} | {'' if bound is None else bound} |")
    else:
        for name, unit, median, q1, q3, spread, bound, flag in rows:
            print(f"{name:28s} {unit:6s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%}" + ("" if bound is None else f"  bound {bound}") + flag)
    print(f"runs {len(results)}; correct {sum(r['correct'] for r in results)}/{len(results)}; "
          f"failed {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
