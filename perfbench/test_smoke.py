"""Smoke test of the benchmark harness; it keeps the harness from rotting.

    python -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced at the smoke size, checks the result
line against BENCHMARK.json, checks that the one-record-per-call split of each
solver workload emits the same records as the batched experiment, and checks
that the harness fails without printing a result when the package is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import SMOKE_FFT_N, SMOKE_OVERRIDES, WORKLOADS, build_operations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def _records(cli, tmp_path: Path, calls: list[list[str]]) -> list[dict]:
    out = []
    for i, args in enumerate(calls):
        path = tmp_path / f"{i}.json"
        cli.main([*args, "--output", str(path)])
        out += json.loads(path.read_text())["records"]
    for record in out:
        del record["wall_time_s"]
    key = lambda r: (r["experiment"], r.get("param_p", 0), r["param_g"] if "param_g" in r
                     else r["param_nu0_over_nu"])
    return sorted(out, key=key)


def _smoke_sets(**extra) -> list[str]:
    return [a for k, v in {**SMOKE_OVERRIDES, **extra}.items() for a in ("--set", f"{k}={v}")]


@pytest.mark.parametrize("workload, batched", [
    ("powerlaw-sweep", [["experiment", e, *_smoke_sets()] for e in ("kp2", "kpsmall", "kplarge")]),
    ("multistate", [["experiment", "multistate", *_smoke_sets()]]),
    ("fft-grid", [["experiment", "kpsmall", *_smoke_sets(N=SMOKE_FFT_N)]]),
])
def test_split_calls_match_the_batched_experiment(workload, batched, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from swarmeq import cli

    split = _records(cli, tmp_path, build_operations(workload, seed=3, smoke=True))
    assert split == _records(cli, tmp_path, batched)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_reference_rescales_by_the_samples_near_an_operation():
    from reference import INTERVAL, Reference

    reference = Reference("fft")
    # kernel timings of twice the nominal time inside [10, 11], a slow one far away
    reference.samples = [(10.0, 10.0 + 2 * reference.nominal),
                         (10.5, 10.5 + 2 * reference.nominal),
                         (11.0 + 2 * INTERVAL, 12.0)]
    assert reference.scale(10.0, 11.0) == pytest.approx(0.5)
    assert reference.busy(10.0, 11.0) == pytest.approx(4 * reference.nominal)
    assert reference.busy(10.0, 10.5) == pytest.approx(2 * reference.nominal)
