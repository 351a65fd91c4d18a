"""Named experiments reproducing the benchmark figures, plus result emission.

One table, `_EXPERIMENTS`, lists every experiment with the override keys it
accepts and its runner.  A runner resolves its defaults, applies the
overrides, runs the relevant solves or estimates, and returns a list of
ResultRecord; the solving experiments share one runner and differ only in
their parameter points and extra metrics.  Records carry the full resolved
parameter set (no hidden defaults), scalar metrics, and a sampled curve
(density, energy curve, or volume profile).
"""

from __future__ import annotations

import csv
import math
import numbers
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np
import orjson

from .analytic import (
    critical_slope,
    exact_minimizer,
    truncated_gaussian_energy,
    unit_interval_limit_state,
)
from .energy import Problem
from .geometry import (
    DomainSpec,
    ball_cylinder_domain,
    box_domain,
    estimate_effective_dimension,
    estimate_volume_profiles,
    paraboloid_domain,
    slab_domain,
    wedge_domain,
)
from .grid import Density, Grid, indicator_density, integrate, make_grid
from .potentials import (
    ExternalPotential,
    InteractionKernel,
    LinearPotential,
    PowerLawKernel,
    RegularizedQanrKernel,
    ZeroPotential,
)
from .solver import (
    ContinuationSchedule,
    SolveReport,
    SolverConfig,
    count_aggregates,
    solve_with_continuation,
)

_PROMINENCE = 0.05  # default relative drop that separates two aggregates
_QANR_EPS = 0.3  # default regularization width of the qanr kernel
_STAGES = 8  # default number of continuation stages

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    overrides: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENT_NAMES}"
            )
        allowed = _EXPERIMENTS[self.experiment][0]
        unknown = set(self.overrides) - allowed
        if unknown:
            raise ValueError(
                f"unknown override keys {sorted(unknown)} for {self.experiment!r}; "
                f"allowed: {sorted(allowed)}"
            )


@dataclass
class ResultRecord:
    experiment: str
    parameters: dict[str, Any]
    metrics: dict[str, Any]
    samples_kind: str
    samples_x: np.ndarray
    samples_y: np.ndarray
    wall_time_s: float
    solve_reports: list[SolveReport] = field(default_factory=list, repr=False)

    def __post_init__(self):
        # float arrays in C order, the only layout orjson encodes
        self.samples_x = np.ascontiguousarray(self.samples_x, dtype=float)
        self.samples_y = np.ascontiguousarray(self.samples_y, dtype=float)

    @property
    def converged(self) -> bool | None:
        return self.metrics.get("converged")


def _integer(ov: dict[str, Any], key: str, default: int) -> int:
    """The override `key`, or the default, as an int: a number that `_real`
    accepts, whole (any other would be truncated) and within the 64 bits the
    JSON writer encodes.  Any other value is a configuration error."""
    value = ov.get(key, default)
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and _real(key, value).is_integer()
    ):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if not -(2**63) <= value < 2**64:
        raise ValueError(f"{key} must fit in 64 bits, got {value!r}")
    return int(value)


def _real(key: str, value: Any) -> float:
    """The override `key`, or one item of it, as a finite float.  Any other
    value is a configuration error, for the CLI and library calls alike: a
    bool would read as 0 or 1, a string, list or dict would fail later with a
    TypeError, and a NaN, an infinity or an int beyond the float range (which
    would read as one) would reach the records."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN fails too; an int compares exactly
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _reals(key: str, value: Any) -> list[float]:
    """The list override `key` (`schedule`, `rho0_interval`, a sweep), each
    item read by `_real`."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return [_real(key, v) for v in value]


def _sweep(ov: dict[str, Any], key: str, default: Any) -> list[float]:
    """The values the override `key`, or the default, sweeps: a list of
    numbers, or one number."""
    value = ov.get(key, default)
    values = _reals(key, value if isinstance(value, (list, tuple, np.ndarray)) else [value])
    if not values:
        raise ValueError(f"{key}: an empty parameter list sweeps no values")
    return values


def _prominence(ov: dict[str, Any]) -> float:
    """The override `prominence`, or its default; `count_aggregates` needs it positive."""
    prominence = _real("prominence", ov.get("prominence", _PROMINENCE))
    if not prominence > 0:
        raise ValueError(f"prominence must be positive, got {prominence!r}")
    return prominence


def _solve_metrics(
    report: SolveReport, coarse: list[SolveReport], prominence: float
) -> dict[str, Any]:
    """The metrics of a solved record whose last solve is `report`, after the
    solves `coarse` on coarser grids (`solve_with_continuation`)."""
    rho = report.density
    diag = report.diagnostics
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "coarse_iterations": sum(r.iterations for r in coarse),
        "residual": report.residual,
        "lambda": diag.lam,
        "interaction_energy": diag.energy.interaction,
        "entropy": diag.energy.entropy,
        "potential_energy": diag.energy.potential,
        "total_energy": diag.energy.total,
        "lambda_inf": diag.lambda_inf,
        "lambda_inf_support": diag.lambda_inf_support,
        "e0": diag.e0,
        "com_drift": diag.com_drift,
        "m1": diag.moments.m1,
        "m2": diag.moments.m2,
        "aggregates": count_aggregates(rho, prominence),
        "tail_value": float(rho.values[-1]),
        "tail_ok": bool(rho.values[-1] < 1e-12),
    }


def _record(experiment, params, metrics, kind, xs, ys, t0, reports) -> ResultRecord:
    return ResultRecord(
        experiment=experiment,
        parameters=params,
        metrics=metrics,
        samples_kind=kind,
        samples_x=xs,
        samples_y=ys,
        wall_time_s=time.perf_counter() - t0,
        solve_reports=reports,
    )


@dataclass
class _Solve:
    """One record of a solving experiment: what it solves and what it echoes.

    `lead` holds the parameters echoed before L, N, grid, tol and N_max, among
    them "nu", the diffusion the record describes (the last stage's when there
    is a schedule); `trail` holds those echoed after tau_c.  A "prominence"
    in `trail` is the one aggregates are counted with (`_PROMINENCE` when absent).
    """

    lead: dict[str, Any]
    kernel: InteractionKernel
    potential: ExternalPotential
    rho0: Density
    trail: dict[str, Any]
    schedule: ContinuationSchedule | None = None


@dataclass(frozen=True)
class _Solving:
    """The runner of every solving experiment: it reads the keys they share,
    given the experiment's default nu, L and N, and records each point that
    `points(overrides, grid, nu)` yields, solved by one `solve_with_continuation`
    call, with the common metrics plus `extra(point, stages)`, where `stages`
    holds the last solve at each nu of its schedule, in schedule order."""

    nu: float
    length: float
    size: int
    points: Callable[[dict[str, Any], Grid, float], Iterator[_Solve]]
    extra: Callable[[_Solve, list[SolveReport]], dict[str, Any]] = lambda point, stages: {}

    def __call__(self, experiment: str, ov: dict[str, Any]) -> list[ResultRecord]:
        nu = _real("nu", ov.get("nu", self.nu))
        grid = make_grid(_real("L", ov.get("L", self.length)), _integer(ov, "N", self.size))
        cfg = SolverConfig(
            tau_c=None if ov.get("tau_c") is None else _real("tau_c", ov["tau_c"]),
            tol=_real("tol", ov.get("tol", SolverConfig.tol)),
            max_iterations=_integer(ov, "N_max", SolverConfig.max_iterations),
        )
        points = list(self.points(ov, grid, nu))  # read every point before the first solve
        records = []
        for point in points:
            t0 = time.perf_counter()
            problem = Problem(grid, point.kernel, point.potential, point.lead["nu"])
            reports = solve_with_continuation(
                problem, point.schedule or ContinuationSchedule((problem.nu,)), point.rho0, cfg)
            final = reports[-1]
            coarse = [r for r in reports if r.problem.grid is not grid]
            stages = list({r.nu: r for r in reports}.values())  # last solve per nu, in order
            params = {
                **point.lead, "L": grid.length, "N": grid.size, "grid": "uniform",
                "tol": cfg.tol, "N_max": cfg.max_iterations,
                "tau_c": final.tau_c, **point.trail,
            }
            prominence = point.trail.get("prominence", _PROMINENCE)
            metrics = {**_solve_metrics(final, coarse, prominence), **self.extra(point, stages)}
            records.append(_record(experiment, params, metrics, "density",
                                   grid.nodes, final.density.values, t0, reports))
        return records


def _schedule(ov: dict[str, Any], nu: float, start: float | None) -> ContinuationSchedule:
    """The explicit `schedule` override, whose last value and length a `nu` or `stages`
    beside it must equal, else `stages` geometric stages from start * nu down to nu."""
    if "schedule" not in ov:
        stages = _integer(ov, "stages", _STAGES)
        return ContinuationSchedule.geometric(start * nu, nu, stages=stages)
    schedule = ContinuationSchedule(tuple(_reals("schedule", ov["schedule"])))
    for key, fixed in (("nu", schedule.nus[-1]), ("stages", len(schedule.nus))):
        given = _integer(ov, key, fixed) if key == "stages" else _real(key, ov.get(key, fixed))
        if given != fixed:
            raise ValueError(f"{key}={ov[key]!r} disagrees with the schedule's {key} {fixed!r}")
    return schedule


def _schedule_echo(schedule: ContinuationSchedule) -> dict[str, Any]:
    """What a continuation record echoes of its schedule: its span (the first
    stage's nu over the last), its stage count and the schedule itself."""
    return {"nu0_over_nu": schedule.nus[0] / schedule.nus[-1],
            "stages": len(schedule.nus), "schedule": list(schedule.nus)}


def _kp2_points(ov: dict[str, Any], grid: Grid, nu: float) -> Iterator[_Solve]:
    gc = critical_slope(nu)
    gs = _sweep(ov, "g", [0.25 * gc, gc, 4 * gc])
    if min(gs) <= 0:  # `_exact_metrics` compares with a minimizer only g > 0 has
        raise ValueError(f"g must be positive in kp2, got {min(gs)!r}")
    rho0 = indicator_density(grid, 0.0, 0.25)
    for g in gs:
        yield _Solve({"nu": nu, "g": g, "g_over_gc": g / gc}, PowerLawKernel(2.0),
                     LinearPotential(g), rho0, {"rho0": "indicator[0,0.25]"})


def _exact_metrics(point: _Solve, reports: list[SolveReport]) -> dict[str, Any]:
    grid = point.rho0.grid
    exact = exact_minimizer(point.lead["nu"], point.lead["g"])
    # compare unit-mass discretizations; raw samples carry a quadrature
    # mass defect that would dominate the distance
    l1 = integrate(grid, np.abs(reports[-1].density.values - exact.discretize(grid).values))
    return {"l1_error_exact": l1, "exact_shift": exact.c}


def _power_points(
    default_ps: tuple[float, ...], ov: dict[str, Any], grid: Grid, nu: float
) -> Iterator[_Solve]:
    ps = _sweep(ov, "p", default_ps)
    gs = _sweep(ov, "g", [0.0, nu])
    for p in ps:
        for g in gs:
            yield _Solve(
                {"nu": nu, "p": p, "g": g}, PowerLawKernel(p),
                ZeroPotential() if g == 0 else LinearPotential(g),
                indicator_density(grid, 0.0, 2.0 if g == 0 else 1.0),
                {"rho0": "indicator[0,2]" if g == 0 else "indicator[0,1]"},
            )


def _limit_metrics(point: _Solve, reports: list[SolveReport]) -> dict[str, Any]:
    grid, rho = point.rho0.grid, reports[-1].density.values
    com = reports[-1].diagnostics.moments.m1
    start = com - 0.5 if point.lead["g"] == 0 else 0.0
    limit = unit_interval_limit_state(point.potential, point.lead["nu"], support_start=start)
    window = np.abs(grid.nodes - com) <= 0.6
    return {
        "l1_limit_distance": integrate(grid, np.abs(rho - limit.discretize(grid).values)),
        "mass_in_window": float(grid.weights[window] @ rho[window]),
    }


def _multistate_points(ov: dict[str, Any], grid: Grid, nu: float) -> Iterator[_Solve]:
    eps = _real("eps", ov.get("eps", _QANR_EPS))
    prominence = _prominence(ov)
    rho0 = indicator_density(grid, 0.0, grid.length)
    if "schedule" not in ov and _integer(ov, "stages", _STAGES) < 2:
        # one stage ignores the start, so both records would be the same solve
        raise ValueError(f"multistate needs stages >= 2, got {ov['stages']!r}")
    kernel = RegularizedQanrKernel(eps)
    for start in [None] if "schedule" in ov else [10.0, 2.0]:
        schedule = _schedule(ov, nu, start)
        yield _Solve(
            {"nu": schedule.nus[-1], "eps": eps, **_schedule_echo(schedule)},
            kernel, ZeroPotential(), rho0,
            {"prominence": prominence, "rho0": "uniform"}, schedule,
        )


def _stage_metrics(point: _Solve, reports: list[SolveReport]) -> dict[str, Any]:
    return {
        "total_iterations": sum(r.iterations for r in reports),
        "stages_converged": sum(1 for r in reports if r.converged),
        "converged": all(r.converged for r in reports),
    }


def _custom_points(ov: dict[str, Any], grid: Grid, nu: float) -> Iterator[_Solve]:
    kind = ov.get("kernel", "power")
    kernels = {"power": ("p", 2.0, PowerLawKernel),  # name: (shape key, default, class)
               "qanr": ("eps", _QANR_EPS, RegularizedQanrKernel)}
    if not isinstance(kind, str) or kind not in kernels:
        raise ValueError(f"unknown kernel {kind!r}; use 'power' or 'qanr'")
    key, default, kernel_class = kernels[kind]
    for other, _, _ in kernels.values():
        if other != key and other in ov:
            raise ValueError(f"{other} is not a parameter of kernel {kind!r}")
    shape = {key: _real(key, ov.get(key, default))}
    g = _real("g", ov.get("g", 0.0))
    prominence = _prominence(ov)
    interval = _reals("rho0_interval", ov.get("rho0_interval", [0.0, grid.length]))
    if len(interval) != 2:
        raise ValueError(f"rho0_interval must hold two numbers, got {interval!r}")
    lo, hi = interval
    if not 0 <= lo < hi <= grid.length:  # else the start would not be the echoed interval
        raise ValueError(
            f"rho0_interval must be [lo, hi] with 0 <= lo < hi <= L = {grid.length!r}, "
            f"got {interval!r}"
        )
    schedule = _schedule(ov, nu, 10.0) if "schedule" in ov or "stages" in ov else None
    lead = {"kernel": kind, "nu": schedule.nus[-1] if schedule else nu, "g": g,
            **(_schedule_echo(schedule) if schedule else {})}
    yield _Solve(
        lead,
        kernel_class(shape[key]), ZeroPotential() if g == 0 else LinearPotential(g),
        indicator_density(grid, lo, hi),
        {"prominence": prominence, "rho0_interval": [lo, hi], **shape}, schedule,
    )


def _run_gamma_energy(experiment: str, ov: dict[str, Any]) -> list[ResultRecord]:
    nu = _real("nu", ov.get("nu", 2.0**-6))
    gc = critical_slope(nu)
    gs = _sweep(ov, "g", [0.0, 0.25 * gc, gc, 2 * gc, 4 * gc])
    c_min = _real("c_min", ov.get("c_min", -0.3))
    c_max = _real("c_max", ov.get("c_max", 1.0))
    if not c_min < c_max:  # a reversed range walks the curve backwards
        raise ValueError(f"c_min must be below c_max, got c_min={c_min!r}, c_max={c_max!r}")
    n_c = _integer(ov, "n_c", 200)
    if n_c < 2:  # `strictly_decreasing` compares neighbouring shifts
        raise ValueError(f"n_c must be at least 2, got {n_c!r}")
    cs = np.linspace(c_min, c_max, n_c)
    records = []
    for g in gs:
        t0 = time.perf_counter()
        energies = np.array([truncated_gaussian_energy(c, nu, g) for c in cs])
        params = {"nu": nu, "g": g, "g_over_gc": g / gc, "c_min": c_min,
                  "c_max": c_max, "n_c": n_c}
        argmin = int(np.argmin(energies))
        metrics = {
            "converged": None,
            "min_energy": float(energies[argmin]),
            "argmin_c": float(cs[argmin]),
            "strictly_decreasing": bool(np.all(np.diff(energies) < 0)),
        }
        records.append(_record(experiment, params, metrics, "energy_curve",
                               cs, energies, t0, []))
    return records


def builtin_domains() -> dict[str, tuple[DomainSpec, np.ndarray]]:
    """The effective-dimension benchmark domains with their probe radii."""
    return {
        "bounded-box-3d": (box_domain([2.0, 2.0, 2.0]), np.geomspace(2.0, 20.0, 6)),
        "cylinder-3d": (ball_cylinder_domain(1.0), np.geomspace(3.0, 30.0, 6)),
        "slab-3d": (slab_domain([1.0], free_dims=2), np.geomspace(3.0, 30.0, 6)),
        "full-space-3d": (box_domain([1e6] * 3), np.geomspace(3.0, 30.0, 6)),
        "wedge-2d": (wedge_domain(math.pi / 4, probe_distance=100.0),
                     np.geomspace(2.0, 20.0, 6)),
        "paraboloid-3d": (paraboloid_domain(3, probe_height=2500.0),
                          np.geomspace(3.0, 30.0, 6)),
    }


def _run_effdim(experiment: str, ov: dict[str, Any]) -> list[ResultRecord]:
    seed = _integer(ov, "seed", 0)
    if seed < 0:  # numpy's SeedSequence takes no negative entropy
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    samples = _integer(ov, "samples", 100_000)
    domains = builtin_domains()
    t0 = time.perf_counter()
    profiles = estimate_volume_profiles(list(domains.values()), samples, seed=seed)
    # the domains share their draws: a record's time is an equal share of the
    # batch plus its own fit
    share = (time.perf_counter() - t0) / len(domains)
    records = []
    for (name, (spec, radii)), profile in zip(domains.items(), profiles):
        t0 = time.perf_counter() - share
        estimate = estimate_effective_dimension(profile)
        params = {"domain": name, "dim": spec.dim, "seed": seed, "samples": samples,
                  "r_min": float(radii[0]), "r_max": float(radii[-1])}
        metrics = {
            "converged": None,
            "effective_dimension": estimate,
            "max_stderr_rel": float(np.max(profile.stderr / np.maximum(profile.volumes, 1e-300))),
        }
        records.append(_record(experiment, params, metrics, "volume_profile",
                               profile.radii, profile.volumes, t0, []))
    return records


_SOLVE_KEYS = frozenset({"nu", "g", "L", "N", "tol", "N_max", "tau_c"})
_CONTINUATION_KEYS = frozenset({"eps", "schedule", "stages", "prominence"})

# Every experiment, in CLI order: the override keys it accepts (any other key
# is rejected) and its runner, called with the experiment's name and overrides.
_EXPERIMENTS: dict[str, tuple[frozenset[str], Callable[[str, dict], list[ResultRecord]]]] = {
    # kp2's error against the closed form falls at second order in N: at
    # N = 1024 the 4 gc record misses the 1e-5 bound on l1_error_exact
    # (2.66e-5), at 4096 every record meets it (at most 1.65e-6), and grid
    # sequencing solves it from N = 1024 and 2048 first
    "kp2": (_SOLVE_KEYS, _Solving(2.0**-6, 2.0, 4096, _kp2_points, _exact_metrics)),
    "kpsmall": (_SOLVE_KEYS | {"p"}, _Solving(
        2.0**-6, 4.0, 1024,
        partial(_power_points, (1.0625, 1.125, 1.25, 1.5, 2.0, 4.0, 8.0)),
    )),
    "kplarge": (_SOLVE_KEYS | {"p"}, _Solving(
        2.0**-6, 4.0, 1024,
        partial(_power_points, (16.0, 32.0, 64.0, 128.0, 256.0)), _limit_metrics,
    )),
    "multistate": (_SOLVE_KEYS - {"g"} | _CONTINUATION_KEYS, _Solving(
        2.0**-13, 8.0, 1024, _multistate_points, _stage_metrics,
    )),
    "gamma-energy": (frozenset({"nu", "g", "c_min", "c_max", "n_c"}), _run_gamma_energy),
    "effdim": (frozenset({"seed", "samples"}), _run_effdim),
    "custom": (_SOLVE_KEYS | _CONTINUATION_KEYS | {"kernel", "p", "rho0_interval"}, _Solving(
        2.0**-6, 4.0, 1024, _custom_points, _stage_metrics,
    )),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run a named experiment and return its records (no I/O)."""
    return _EXPERIMENTS[cfg.experiment][1](cfg.experiment, dict(cfg.overrides))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_SAMPLE_HEADERS = {
    "density": ("x", "density"),
    "energy_curve": ("shift", "energy"),
    "volume_profile": ("radius", "volume"),
}


def record_scalars(record: ResultRecord) -> dict[str, Any]:
    """Flat scalar view of a record (parameters then metrics), with numpy
    scalars as the Python numbers they hold."""
    out = {
        "experiment": record.experiment,
        **{f"param_{key}": val for key, val in record.parameters.items()},
        **record.metrics,
    }
    return {key: val.item() if isinstance(val, np.generic) else val for key, val in out.items()}


def _json_document(records: list[ResultRecord], scalars: list[dict[str, Any]]) -> bytes:
    """The schema v2 document of the records, with the sample arrays passed
    to orjson as arrays."""
    return orjson.dumps({"schema": "swarmeq.records.v2", "records": [
        {**row, "wall_time_s": r.wall_time_s, "samples_kind": r.samples_kind,
         "samples": {"y": r.samples_y} if r.samples_kind == "density"
         else {"x": r.samples_x, "y": r.samples_y}}
        for r, row in zip(records, scalars)
    ]}, option=orjson.OPT_SERIALIZE_NUMPY)


def emit(records: list[ResultRecord], fmt: str, path: str | Path) -> list[Path]:
    """Write records to disk; returns the list of files written.

    JSON is one compact document with embedded samples (schema v2), encoded
    by orjson before the file is opened, so a record that cannot be encoded
    (a `set`, an int outside 64 bits) leaves no file.  A density record's
    samples hold `y` only: its nodes are `make_grid(param_L, param_N).nodes`,
    the uniform grid that `param_grid` names.  Other records keep `x`.  CSV
    writes one row per record plus a two-column sidecar file per record for
    the samples, nodes included.  Both write each float as the shortest
    decimal that round-trips exactly, with the digits of `repr`; CSV writes
    None as an empty cell, and JSON writes it and every non-finite float,
    scalar or sample, as null, so the document is strict JSON.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    path = Path(path)
    scalars = [record_scalars(r) for r in records]
    if fmt == "json":
        document = _json_document(records, scalars)  # a failed encoding leaves no file
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            with open(path, "wb") as fh:
                fh.write(document)
            return [path]
        columns = [*dict.fromkeys(key for row in scalars for key in row), "wall_time_s"]
        written = [path]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record", *columns, "samples_file"])
            for i, (r, row) in enumerate(zip(records, scalars)):
                sidecar = path.with_name(f"{path.stem}_record{i}_{r.samples_kind}.csv")
                with open(sidecar, "w", newline="") as sfh:
                    samples = csv.writer(sfh)
                    samples.writerow(_SAMPLE_HEADERS.get(r.samples_kind, ("x", "y")))
                    samples.writerows(zip(r.samples_x.tolist(), r.samples_y.tolist()))
                written.append(sidecar)
                row = {**row, "wall_time_s": r.wall_time_s}
                writer.writerow([i, *(row.get(col) for col in columns), sidecar.name])
        return written
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc
