#!/usr/bin/env python3
"""Time to a converged critical point, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload powerlaw-sweep --seed 0 --seconds 20 --trace 0

The run imports ``swarmeq`` from ``src/`` and makes whole passes over the
workload (see ``workloads.py``) through ``swarmeq.cli.main``, as many as fit
in ``--seconds`` at the reference pass time ``workloads.PASS_SECONDS`` and at
least one.  Every record is read back from the emitted JSON and checked.
``--trace 0`` reports the end-to-end metrics, with times rescaled to the
reference speed of the machine: a fixed kernel (``reference.py``) is timed
every quarter second, also inside operations, and each operation's time,
less the kernel's, is multiplied by the kernel's nominal time over its
median time around the operation.  ``--trace 1`` alternates
untraced passes with passes under the span tracer (``tracer.py``), as many
pairs as fit, and reports the per-layer metrics, the tracing overhead among
them.  ``--smoke`` shrinks every workload to run in
seconds.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and the environment.

An operation is one emitted record.  A one-record call is timed from outside;
the calls that emit several records (gamma-energy, effdim) are timed per
record by the record's own ``wall_time_s``.  A record fails when it is not
converged or fails a value check (``workloads.check_record``); ``correct``
is false when any record fails a value check, a call exits with a
configuration error, or a pass does not reproduce the records of the first.
Non-convergence alone is counted in ``failed`` but leaves ``correct`` true:
the record states it honestly.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before NumPy loads, the same on every commit.  With
# the default threads the dense product is faster, but on a shared 2-core
# machine the FFT workload split between two speeds from run to run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    NOT_CONVERGED, PASS_SECONDS, REFERENCE_KERNEL, WORKLOADS, build_operations, check_record,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # emitted records (removed) and span files
SETUP_PROBES = 5
# Set-up is rescaled by the median of the SETUP_SAMPLES timings of the
# "sample" kernel before and of those after each probe.  With one timing on
# each side the rescaled set-up spread by up to 47 % over 5 runs: the first
# timing after a probe is the most disturbed.
SETUP_KERNEL = "sample"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # op_s_tail: highest percentile with this many samples above


def _import_package():
    if not (SRC / "swarmeq" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'swarmeq'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from swarmeq import cli

    return cli


def probe_setup(workload: str, seed: int, smoke: bool) -> None:
    """Body of a fresh setup process: import, build the inputs, report when ready."""
    _import_package()
    build_operations(workload, seed, smoke)
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int, smoke: bool, probes: int) -> tuple[float, float]:
    """Median time from launching a fresh interpreter to built inputs, at the
    reference speed and as measured.

    time.monotonic is one system-wide clock, so the child's ready time and the
    parent's launch time compare directly.  The reference kernel runs in this
    process before and after each probe, not during it, which would load the
    second core.
    """
    from reference import Reference

    reference = Reference(SETUP_KERNEL)
    times, measured = [], []
    for _ in range(SETUP_SAMPLES):
        reference.sample()
    for _ in range(probes):
        args = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        t0, launched = time.perf_counter(), time.monotonic()
        done = subprocess.run(args, capture_output=True, text=True, timeout=120, check=True)
        t1 = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            reference.sample()
        measured.append(float(done.stdout.split()[-1]) - launched)
        times.append(measured[-1] * reference.scale(t0, t1))
    return statistics.median(times), statistics.median(measured)


class Pass:
    """One timed pass over the operations, plus its read-back records.

    With a reference (``reference.py``), ``latencies`` and ``wall`` are in
    seconds at the reference speed and ``raw_wall`` is the sum of the measured
    times, both without the time of the reference samples; without one they
    are measured times.
    """

    def __init__(self, cli, ops: list[list[str]], outdir: Path, reference=None, tracer=None):
        self.records: list[list[dict]] = []
        self.codes: list[int] = []
        windows = []
        with reference or contextlib.nullcontext():
            for i, args in enumerate(ops):
                if tracer is not None:
                    tracer.operation = i
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*args, "--output", str(outdir / f"op{i}.json")])
                windows.append((t0, time.perf_counter()))
                self.codes.append(code)
        if reference is None:
            self.own = [1.0] * len(windows)
            self.scales = [1.0] * len(windows)
        else:
            self.own = [1 - reference.busy(t0, t1) / (t1 - t0) for t0, t1 in windows]
            self.scales = [reference.scale(t0, t1) for t0, t1 in windows]
        raw = [(t1 - t0) * own for (t0, t1), own in zip(windows, self.own)]
        self.raw_wall = sum(raw)
        self.latencies = [r * scale for r, scale in zip(raw, self.scales)]
        self.wall = sum(self.latencies)
        # read back outside the timed region, before the next pass overwrites
        for i, code in enumerate(self.codes):
            path = outdir / f"op{i}.json"
            self.records.append(json.loads(path.read_text())["records"] if code != 2 else [])
            path.unlink(missing_ok=True)

    def op_times(self) -> list[float]:
        out = []
        for latency, own, scale, records in zip(self.latencies, self.own, self.scales,
                                                self.records):
            if len(records) <= 1:  # a call that failed has no records
                out.append(latency)
            else:  # the samples' time, spread over the records in proportion
                out.extend(r["wall_time_s"] * own * scale for r in records)
        return out


class Outcome:
    """Checks over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()
        self.errors: list[str] = []
        self.stages = 0
        self.stages_converged = 0
        self._first: list[list[dict]] | None = None

    def add(self, p: Pass) -> None:
        for code, records in zip(p.codes, p.records):
            if code == 2:
                self.errors.append("a call exited with a configuration error")
                self.attempted += 1
                self.failed += 1
            for record in records:
                self.attempted += 1
                reasons = check_record(record)
                self.failed += bool(reasons)
                self.reasons.update(reasons)
                if record.get("converged") is not None:
                    self.stages += record.get("param_stages", 1)
                    self.stages_converged += record.get(
                        "stages_converged", int(record["converged"]))
        stripped = [[{k: v for k, v in r.items() if k != "wall_time_s"} for r in rs]
                    for rs in p.records]
        if self._first is None:
            self._first = stripped
        elif stripped != self._first:
            self.errors.append("a pass did not reproduce the records of the first pass")

    @property
    def correct(self) -> bool:
        return not self.errors and all(r == NOT_CONVERGED for r in self.reasons)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "swarmeq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable (git not found)"
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run(args) -> dict:
    cli = _import_package()
    probes = 1 if args.smoke else SETUP_PROBES
    if not args.trace:
        setup_s, setup_measured = measure_setup(args.workload, args.seed, args.smoke, probes)
    ops = build_operations(args.workload, args.seed, args.smoke)
    outcome = Outcome()
    OUT.mkdir(exist_ok=True)
    rounds = 1 if args.smoke else max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        outdir = Path(tmp)
        if not args.trace:
            from reference import Reference

            reference = Reference(REFERENCE_KERNEL[args.workload])
            passes = []
            for _ in range(rounds):
                passes.append(Pass(cli, ops, outdir, reference))
                outcome.add(passes[-1])
        else:
            from tracer import Tracer, median_metrics

            tracer = Tracer()
            plain, traced, layers = [], [], []
            for _ in range(max(1, rounds // 2)):
                plain.append(Pass(cli, ops, outdir))
                outcome.add(plain[-1])
                with tracer:
                    mark = tracer.start_pass()
                    traced.append(Pass(cli, ops, outdir, tracer=tracer))
                    layers.append(tracer.layer_metrics(mark))
                outcome.add(traced[-1])
            tracer.write(OUT / f"spans-{args.workload}.json")

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
             + ("  smoke" if args.smoke else "")]
    if not args.trace:
        ops_s = [t for p in passes for t in p.op_times()]
        tail_value, tail_pct = tail(ops_s)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "op_s_p50": (statistics.median(ops_s), "s"),
            "op_s_tail": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "setup_s": f"median of {probes} fresh processes; measured {setup_measured:.4g} s",
            "wall_s": f"median of {len(passes)} passes; measured "
                      f"{statistics.median(p.raw_wall for p in passes):.4g} s, scale "
                      f"{statistics.median(s for p in passes for s in p.scales):.3f}",
            "op_s_p50": f"{len(ops_s)} operations",
            "op_s_tail": f"p{tail_pct:.1f} of {len(ops_s)} operations, "
                         f"{TAIL_BEYOND if len(ops_s) > TAIL_BEYOND else 0} above it",
            "peak_rss_mb": "this process",
        }
    else:
        from tracer import PER_LAYER_UNITS

        layer = median_metrics(layers)
        layer["checks.failed_frac"] = outcome.failed / outcome.attempted
        layer["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                     - statistics.median(p.wall for p in plain))
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        notes = {"trace.overhead_s": "median traced pass minus median untraced pass, "
                                     f"{len(traced)} of each"}
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:28s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    frac = (f"{outcome.stages_converged}/{outcome.stages}" if outcome.stages else "n/a")
    lines.append(f"  converged stages {frac}; failed records {outcome.failed}/{outcome.attempted}"
                 + "".join(f"; {n} x {r}" for r, n in sorted(outcome.reasons.items())))
    lines.extend(f"  error: {e}" for e in sorted(set(outcome.errors)))
    print("\n".join(lines))
    print("environment " + json.dumps(environment(), sort_keys=True))
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny N, N_max and samples; checks that the harness runs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.smoke)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
