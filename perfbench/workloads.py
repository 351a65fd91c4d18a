"""The benchmark's workloads and the checks applied to their emitted records.

A workload is a list of operations.  Each operation is one argument list for
``swarmeq.cli.main``, the entry point a user runs, and writes its records to
a JSON file that the harness reads back and checks.  The solver workloads
split each default experiment into one call per emitted record through the
experiment's own ``--set`` keys (``g``, ``p``, ``schedule``), so every call
times one solve or one continuation schedule; the records equal those of the
batched call (``test_smoke.py`` checks this at a small size).
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("powerlaw-sweep", "multistate", "fft-grid", "effdim")

# Wall time of one untraced pass on the 2-core reference machine when the
# benchmark was written.  A run makes seconds // PASS_SECONDS passes (at least
# one), a count that depends on --seconds alone: every run and both commits of
# a comparison time the same operations, so the tail percentile always falls
# on the same operation.
PASS_SECONDS = {"powerlaw-sweep": 4.3, "multistate": 21.0, "fft-grid": 3.4, "effdim": 2.9}

# The reference kernel (reference.py) that rescales each workload's times.
REFERENCE_KERNEL = {"powerlaw-sweep": "dense", "multistate": "dense", "fft-grid": "fft",
                    "effdim": "sample"}

# The defaults of experiments._run_power_family and _run_multistate, restated
# so that each record can be requested on its own.
KPSMALL_P = (1.0625, 1.125, 1.25, 1.5, 2.0, 4.0, 8.0)
KPLARGE_P = (16.0, 32.0, 64.0, 128.0, 256.0)
FAMILY_NU = 2.0**-6
MULTISTATE_NU = 2.0**-13
MULTISTATE_STARTS = (10.0, 2.0)
MULTISTATE_STAGES = 8

# effdim samples per radius.  At the experiment's default of 10^5 the
# bounded-box estimate has a standard deviation of about 0.07 across seeds
# and left the +-0.15 band of acceptance criterion 8 on 1 seed of 40; at
# 5 * 10^5 a pass takes about 2.5 s and the band is about 4.7 deviations wide.
EFFDIM_SAMPLES = 500_000

# Smoke mode: every workload and the tracer at a size that runs in seconds.
SMOKE_OVERRIDES = {"N": 64, "N_max": 30}
SMOKE_FFT_N = 2048  # the smallest uniform grid that takes the FFT path
SMOKE_SAMPLES = 10_000  # the smallest count geometry accepts

# Acceptance gates read back from the emitted records.
KP2_L1_GATE = 1e-5  # ROADMAP gate on l1_error_exact
EFFDIM_BANDS = {  # acceptance criterion 8: (target, half-width)
    "bounded-box-3d": (0.0, 0.15),
    "cylinder-3d": (1.0, 0.15),
    "slab-3d": (2.0, 0.15),
    "full-space-3d": (3.0, 0.15),
}
FINITE_FIELDS = (
    "interaction_energy", "entropy", "potential_energy", "total_energy",
    "lambda", "min_energy",
)
NOT_CONVERGED = "not converged"


def _sets(**values) -> list[str]:
    """--set arguments; the CLI parses them as JSON, which round-trips floats."""
    return [arg for key, value in values.items()
            for arg in ("--set", f"{key}={json.dumps(value)}")]


def _family_ops(experiment: str, ps, extra: dict) -> list[list[str]]:
    return [
        ["experiment", experiment, *_sets(p=p, g=g, **extra)]
        for p in ps
        for g in (0.0, FAMILY_NU)
    ]


def build_operations(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """CLI argument lists (without --output) for one pass over the workload.

    The solver workloads are deterministic; the seed only fixes the order of
    their operations.  The effdim workload samples with the seed.
    """
    from swarmeq import ContinuationSchedule, critical_slope

    extra = dict(SMOKE_OVERRIDES) if smoke else {}
    if workload == "powerlaw-sweep":
        gc = critical_slope(FAMILY_NU)
        ops = [["experiment", "kp2", *_sets(g=m * gc, **extra)] for m in (0.25, 1.0, 4.0)]
        ops += _family_ops("kpsmall", KPSMALL_P, extra)
        ops += _family_ops("kplarge", KPLARGE_P, extra)
    elif workload == "fft-grid":
        # kpsmall runs on a uniform grid, where N >= 2048 takes the FFT path
        ops = _family_ops("kpsmall", KPSMALL_P, {**extra, "N": SMOKE_FFT_N if smoke else 8192})
    elif workload == "multistate":
        ops = []
        for start in MULTISTATE_STARTS:
            schedule = ContinuationSchedule.geometric(
                start * MULTISTATE_NU, MULTISTATE_NU, stages=MULTISTATE_STAGES
            )
            ops.append(["experiment", "multistate", *_sets(schedule=schedule.nus, **extra)])
    elif workload == "effdim":
        samples = SMOKE_SAMPLES if smoke else EFFDIM_SAMPLES
        return [
            ["experiment", "gamma-energy"],
            ["experiment", "effdim", "--seed", str(seed), *_sets(samples=samples)],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    return ops


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_record(record: dict) -> list[str]:
    """Reasons the emitted record fails; empty when it passes.

    Non-finite floats are written as null, which fails here too.
    """
    reasons = []
    if "converged" in record and record["converged"] is not None and record["converged"] is not True:
        reasons.append(NOT_CONVERGED)
    for key in FINITE_FIELDS:
        if key in record and not _finite(record[key]):
            reasons.append(f"non-finite {key}")
    if not all(_finite(v) for v in record["samples"]["y"]):
        reasons.append(f"non-finite {record['samples_kind']} sample")
    if record["experiment"] == "kp2" and not (
        _finite(record["l1_error_exact"]) and record["l1_error_exact"] <= KP2_L1_GATE
    ):
        reasons.append(f"l1_error_exact above {KP2_L1_GATE}")
    if record["experiment"] == "effdim":
        estimate = record["effective_dimension"]
        target, band = EFFDIM_BANDS.get(record["param_domain"], (None, None))
        if not _finite(estimate):
            reasons.append("non-finite effective_dimension")
        elif target is not None and abs(estimate - target) > band:
            reasons.append(f"{record['param_domain']} effective_dimension outside {target}+-{band}")
    return reasons
