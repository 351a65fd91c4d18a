#!/usr/bin/env python3
"""Compare the records that two source trees emit for a fixed list of CLI runs.

Run from anywhere:

    python3 scripts/compare_records.py OLD_SRC NEW_SRC

where each argument is a ``src`` directory that holds the ``swarmeq``
package.  Every run in ``RUNS`` goes through ``python -m swarmeq.cli`` once
with each directory on ``PYTHONPATH``, writing into a temporary directory.
The JSON records are compared field by field, key order included, and
``wall_time_s`` is ignored; when they parse equal, the raw texts are compared
too, with each ``"wall_time_s": <number>`` masked (with or without the space
after the colon), so that a change of layout or of how a number is written
(``1e16`` as ``1e+16``) shows.  A change of schema is one line; the records
are still compared, but not their texts.  The CSV run
compares the main file without its ``wall_time_s`` column, and every sidecar.
For each run the script prints ``identical``, or each field that moved with its
largest relative change over the records (``bytes differ`` with the offset
and an excerpt of the first difference when only the text moved) and, for a
solving run, its total iterations before and after; a density record that
settled on a neighbouring translate of its old state gets one line instead of
its fields.  A run whose only change is the schema gets that one line.  It
exits 1 if anything moved.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORED = "wall_time_s"
# IGNORED with its value as the JSON text writes it, in the spaced layout of
# `json.dumps` or the compact one; a string value that holds the key has its
# quotes escaped, so it cannot match.
_IGNORED_TEXT = re.compile(r'"wall_time_s":\s*-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')
# Largest relative change of total_energy, and smallest change of m1 in node
# spacings, of a record that moved to a neighbouring translate (see
# `translate`).  Converged records whose last bits moved shift m1 by at most
# 2.4e-6 of a node; the multistate records that settled on a translate, by
# 0.42 and 1.18 nodes.
TRANSLATE_ENERGY = 1e-12
TRANSLATE_SHIFT = 0.1
# Characters of context on each side of the first difference of two texts
# (`compare_json`): a compact JSON document is one line, so a line number
# would not locate it.
EXCERPT = 16
SCHEDULE = ["--set", "schedule=[0.02,0.01]", "--set", "N=128", "--set", "N_max=300"]
# CLI arguments of each compared run, without --output.
RUNS = (
    ["experiment", "kp2"],
    ["experiment", "kpsmall"],
    ["experiment", "kplarge"],
    ["experiment", "multistate"],
    ["experiment", "gamma-energy"],
    ["experiment", "effdim", "--seed", "0"],
    ["experiment", "effdim", "--seed", "3", "--set", "samples=123457"],
    ["experiment", "effdim", "--seed", "4", "--set", "samples=500000"],  # the benchmark's size
    ["experiment", "kpsmall", "--set", "N=8192"],
    ["experiment", "kpsmall", "--set", "N=1000", "--set", "p=[2.0]"],  # FFT length 2000
    ["experiment", "kplarge", "--set", "N=4096"],
    ["experiment", "kpsmall", "--set", "tau_c=0.2", "--set", "p=[2.0]", "--set", "N=256"],
    ["experiment", "kpsmall", "--set", "N=256", "--set", "p=[2.0]"],
    ["experiment", "kpsmall", "--set", "N=511"],  # the largest direct-sum grid
    ["experiment", "multistate", "--set", "nu=0.015625", "--set", "N=128",
     "--set", "stages=2", "--set", "N_max=300"],
    ["experiment", "multistate", *SCHEDULE],
    ["experiment", "multistate", "--set", "N=2048"],  # a refined continuation
    ["solve"],
    ["solve", "--set", "kernel=qanr", "--set", "eps=0.3", "--set", "nu=0.001",
     "--set", "stages=6"],
    ["solve", *SCHEDULE],
    ["solve", "--set", "p=32", "--set", "stages=3"],  # a continuation with a clipped kernel
    ["experiment", "kp2", "--format", "csv"],
)


def _number(value) -> float | None:
    """The value as a float if it is a number or a CSV cell that reads as one."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _change(old, new) -> float | None:
    """None when old and new are the same value (NaN is the same as NaN);
    otherwise their relative change, the largest over equal-length lists, and
    inf when they are not both numbers."""
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        changes = [c for c in map(_change, old, new) if c is not None]
        return max(changes) if changes else None
    if type(old) is type(new) and (old == new or old != old and new != new):
        return None
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return math.inf
    if a == b:
        return 0.0  # the same number written another way, as 1 and 1.0
    change = abs(a - b) / max(abs(a), abs(b))
    return change if math.isfinite(change) else math.inf


def _fields(record: dict, prefix: str = "") -> dict:
    """The record's fields in order, nested keys joined by dots, without IGNORED."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_fields(value, f"{prefix}{key}."))
        elif key != IGNORED:
            out[prefix + key] = value
    return out


def nodes(record: dict) -> list[float]:
    """The nodes of a density record: the uniform nodes x_i = L i/(N-1)
    placed from ``param_L`` and ``param_N``."""
    length, n = record["param_L"], record["param_N"]
    return [length * (i / (n - 1)) for i in range(n)]


def translate(index: int, old: dict, new: dict) -> str | None:
    """The one line of a density record whose samples moved to a neighbouring
    translate, or None.  A translate keeps ``total_energy`` within
    TRANSLATE_ENERGY relative, ``aggregates``, ``stages_converged`` and the
    nodes x (`nodes`), and moves ``m1`` by d, at least TRANSLATE_SHIFT times
    the mean node spacing h; its samples lie closer to the old ones shifted by
    d than to the old ones in place.  The distance to the old samples shifted by d is
    h sum_i |y_new(x_i) - y_old(x_i - d)|, with y_old interpolated linearly
    between its nodes and read as 0 past either end.  The line gives ``m1``
    before and after, that distance and d in units of h."""
    if not all(r.get("samples_kind") == "density" and "samples" in r and "m1" in r
               for r in (old, new)):
        return None
    change = _change(old.get("total_energy"), new.get("total_energy"))
    if change is not None and change > TRANSLATE_ENERGY or any(
            old.get(key) != new.get(key) for key in ("aggregates", "stages_converged")):
        return None
    x, y_old, y_new = nodes(old), old["samples"]["y"], new["samples"]["y"]
    if nodes(new) != x or len(x) < 2:
        return None
    h = (x[-1] - x[0]) / (len(x) - 1)
    shift = new["m1"] - old["m1"]
    if not abs(shift) >= TRANSLATE_SHIFT * h:
        return None

    def old_at(t: float) -> float:
        if not x[0] <= t <= x[-1]:
            return 0.0
        i = min(bisect.bisect_right(x, t), len(x) - 1)  # x[i - 1] <= t <= x[i]
        s = (t - x[i - 1]) / (x[i] - x[i - 1])
        return (1 - s) * y_old[i - 1] + s * y_old[i]

    def l1(d: float) -> float:
        return h * sum(abs(b - old_at(t - d)) for t, b in zip(x, y_new))

    distance = l1(shift)
    if not distance < l1(0.0):
        return None
    return (f"record {index}: neighbouring translate, m1 {old['m1']!r} -> {new['m1']!r}, "
            f"L1 {distance:.3g} after a shift of {shift / h:.3g} nodes")


def compare_records(old: list[dict], new: list[dict]) -> list[str]:
    """One line per change between two record lists: the record count, the
    keys or their order, each record that moved to a neighbouring translate
    (`translate`), and each other field that moved with its largest relative
    change over the records."""
    if len(old) != len(new):
        return [f"record count {len(old)} -> {len(new)}"]
    key_lines: dict[str, None] = {}
    translates: list[str] = []
    moved: dict[str, float] = {}
    for index, records in enumerate(zip(old, new)):
        a, b = map(_fields, records)
        if list(a) != list(b):
            added = [k for k in b if k not in a]
            removed = [k for k in a if k not in b]
            line = "; ".join([f"added keys {added}"] * bool(added)
                             + [f"removed keys {removed}"] * bool(removed)) or "key order"
            key_lines[line] = None
        line = translate(index, *records)
        if line is not None:
            translates.append(line)
            continue
        for key in (k for k in a if k in b):
            change = _change(a[key], b[key])
            if change is not None:
                moved[key] = max(moved.get(key, 0.0), change)
    return [*key_lines, *translates, *(f"{key}: largest relative change {change:.3g}"
                                       for key, change in moved.items())]


def total_iterations(records: list[dict]) -> int | None:
    """The iterations of a run: per record its ``total_iterations`` (a
    continuation) or else its ``iterations``, summed; None when no record has
    either."""
    counts = [_number(r.get("total_iterations", r.get("iterations"))) for r in records]
    counts = [int(c) for c in counts if c is not None]
    return sum(counts) if counts else None


def iteration_change(old: list[dict], new: list[dict]) -> list[str]:
    """The line ``total iterations OLD -> NEW`` of two record lists, or none
    when neither holds an iteration count."""
    counts = total_iterations(old), total_iterations(new)
    return [] if counts == (None, None) else [f"total iterations {counts[0]} -> {counts[1]}"]


def compare_documents(old: dict, new: dict) -> list[str]:
    """compare_records on two JSON documents, after a line for a change of
    schema."""
    lines = compare_records(old["records"], new["records"])
    if old["schema"] == new["schema"]:
        return lines
    return [f"schema {old['schema']!r} -> {new['schema']!r}", *lines]


def compare_json(old: str, new: str) -> list[str]:
    """compare_documents on two JSON texts, and when it finds nothing (so
    the schemas are equal), the texts themselves with each IGNORED value
    masked: their first difference as a character offset into the masked
    texts, with up to EXCERPT characters of each on either side of it."""
    lines = compare_documents(json.loads(old), json.loads(new))
    if lines:
        return lines
    old, new = (_IGNORED_TEXT.sub('"wall_time_s": ?', text) for text in (old, new))
    if old == new:
        return []
    at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    lo, hi = max(0, at - EXCERPT), at + EXCERPT
    return [f"bytes differ, first at offset {at}: {old[lo:hi]!r} -> {new[lo:hi]!r}"]


def _csv_records(path: Path) -> list[dict]:
    header, *rows = csv.reader(path.read_text().splitlines())
    return [dict(zip(header, row)) for row in rows]


def compare_run(old_src: str, new_src: str, args: list[str], workdir: Path) -> list[str]:
    """Run one CLI call on both trees and list what moved between their outputs."""
    fmt = args[args.index("--format") + 1] if "--format" in args else "json"
    dirs, codes, lines = [], [], []
    for side, src in (("old", old_src), ("new", new_src)):
        directory = workdir / side
        directory.mkdir(parents=True)
        out = directory / f"out.{fmt}"
        done = subprocess.run(
            [sys.executable, "-m", "swarmeq.cli", *args, "--output", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if not out.exists():
            error = " ".join(done.stderr.strip().splitlines()[-1:])
            lines.append(f"{side} wrote nothing (exit {done.returncode}): {error}")
        dirs.append(directory)
        codes.append(done.returncode)
    if codes[0] != codes[1]:
        lines.append(f"exit code {codes[0]} -> {codes[1]}")
    names = [sorted(p.name for p in d.iterdir()) for d in dirs]
    if names[0] != names[1]:
        return lines + [f"files {names[0]} -> {names[1]}"]
    counts = []
    for name in names[0]:
        old, new = (d / name for d in dirs)
        if fmt == "json":
            texts = old.read_text(), new.read_text()
            lines += compare_json(*texts)
            records = [json.loads(text)["records"] for text in texts]
        else:
            records = [_csv_records(old), _csv_records(new)]
            lines += [f"{name}: {line}" for line in compare_records(*records)]
        counts += iteration_change(*records)
    # a schema change alone moves no record, so it needs no iteration counts
    return lines if all(line.startswith("schema ") for line in lines) else lines + counts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_records.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = argv
    any_moved = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(RUNS):
            lines = compare_run(old_src, new_src, args, Path(tmp) / str(i))
            any_moved = any_moved or bool(lines)
            print(f"{' '.join(args)}: {'identical' if not lines else 'moved'}", flush=True)
            for line in lines:
                print(f"  {line}", flush=True)
    return 1 if any_moved else 0


if __name__ == "__main__":
    sys.exit(main())
