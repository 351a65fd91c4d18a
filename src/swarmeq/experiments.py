"""Named experiments reproducing the benchmark figures, plus result emission.

Each experiment resolves its defaults, applies validated overrides, runs the
relevant solves or estimates, and returns a list of ResultRecord.  Records
carry the full resolved parameter set (no hidden defaults), scalar metrics,
and a sampled curve (density, energy curve, or volume profile).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .analytic import (
    critical_slope,
    exact_minimizer,
    truncated_gaussian_energy,
    unit_interval_limit_state,
)
from .energy import Problem
from .geometry import (
    DomainSpec,
    box_domain,
    estimate_effective_dimension,
    estimate_volume_profile,
    paraboloid_domain,
    slab_domain,
    wedge_domain,
)
from .grid import Grid, SpacingMode, indicator_density, integrate, make_grid
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
    solve,
    solve_with_continuation,
)

EXPERIMENT_NAMES = (
    "kp2",
    "kpsmall",
    "kplarge",
    "multistate",
    "gamma-energy",
    "effdim",
    "custom",
)

# Override keys accepted per experiment; unknown keys are rejected.
_COMMON_SOLVE_KEYS = {"nu", "g", "L", "N", "grid", "tol", "N_max", "tau_c"}
ALLOWED_OVERRIDES: dict[str, set[str]] = {
    "kp2": set(_COMMON_SOLVE_KEYS),
    "kpsmall": _COMMON_SOLVE_KEYS | {"p"},
    "kplarge": _COMMON_SOLVE_KEYS | {"p"},
    "multistate": _COMMON_SOLVE_KEYS | {"eps", "schedule", "stages", "prominence"},
    "gamma-energy": {"nu", "g", "c_min", "c_max", "n_c"},
    "effdim": {"seed", "samples"},
    "custom": _COMMON_SOLVE_KEYS
    | {"kernel", "p", "eps", "schedule", "stages", "prominence", "rho0_interval"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    overrides: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENT_NAMES}"
            )
        allowed = ALLOWED_OVERRIDES[self.experiment]
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

    @property
    def converged(self) -> bool | None:
        return self.metrics.get("converged")


def _spacing(name: str) -> SpacingMode:
    try:
        return SpacingMode(name)
    except ValueError:
        raise ValueError(
            f"unknown grid mode {name!r}; use 'uniform' or 'quadratic'"
        ) from None


def _as_list(value) -> list:
    if isinstance(value, (list, tuple, np.ndarray)):
        return list(value)
    return [value]


def _solve_metrics(report: SolveReport, prominence: float = 0.05) -> dict[str, Any]:
    rho = report.density
    diag = report.diagnostics
    return {
        "converged": report.converged,
        "iterations": report.iterations,
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
        samples_x=np.asarray(xs, dtype=float),
        samples_y=np.asarray(ys, dtype=float),
        wall_time_s=time.perf_counter() - t0,
        solve_reports=reports,
    )


def _solve_setup(
    ov: dict[str, Any], nu: float, length: float, mode: str
) -> tuple[float, Grid, SolverConfig, dict[str, Any]]:
    """Read the keys every solving experiment shares, given its defaults.

    Returns nu, the grid, the solver config and the echo of L, N, grid, tol
    and N_max, in the order the records list them.
    """
    nu = float(ov.get("nu", nu))
    grid = make_grid(
        float(ov.get("L", length)), int(ov.get("N", 1024)), _spacing(ov.get("grid", mode))
    )
    cfg = SolverConfig(
        tau_c=ov.get("tau_c"),
        tol=float(ov.get("tol", 1e-6)),
        max_iterations=int(ov.get("N_max", 2000)),
    )
    echo = {"L": grid.length, "N": grid.size, "grid": grid.mode.value,
            "tol": cfg.tol, "N_max": cfg.max_iterations}
    return nu, grid, cfg, echo


def _run_kp2(ov: dict[str, Any]) -> list[ResultRecord]:
    nu, grid, cfg, echo = _solve_setup(ov, 2.0**-6, 2.0, "quadratic")
    gc = critical_slope(nu)
    gs = [float(g) for g in _as_list(ov.get("g", [0.25 * gc, gc, 4 * gc]))]
    rho0 = indicator_density(grid, 0.0, 0.25)
    records = []
    for g in gs:
        t0 = time.perf_counter()
        problem = Problem(grid, PowerLawKernel(2.0), LinearPotential(g), nu)
        report = solve(problem, rho0, cfg)
        exact = exact_minimizer(nu, g)
        # compare unit-mass discretizations; raw samples carry a quadrature
        # mass defect that would dominate the distance
        l1 = integrate(grid, np.abs(report.density.values - exact.discretize(grid).values))
        params = {
            "nu": nu, "g": g, "g_over_gc": g / gc, **echo,
            "tau_c": cfg.effective_tau_c(nu), "rho0": "indicator[0,0.25]",
        }
        metrics = _solve_metrics(report)
        metrics["l1_error_exact"] = l1
        metrics["exact_shift"] = exact.c
        records.append(_record("kp2", params, metrics, "density",
                               grid.nodes, report.density.values, t0, [report]))
    return records


def _run_power_family(name: str, ov: dict[str, Any]) -> list[ResultRecord]:
    default_ps = {
        "kpsmall": [1.0625, 1.125, 1.25, 1.5, 2.0, 4.0, 8.0],
        "kplarge": [16.0, 32.0, 64.0, 128.0, 256.0],
    }[name]
    nu, grid, cfg, echo = _solve_setup(ov, 2.0**-6, 4.0, "uniform")
    ps = [float(p) for p in _as_list(ov.get("p", default_ps))]
    gs = [float(g) for g in _as_list(ov.get("g", [0.0, nu]))]
    records = []
    for p in ps:
        for g in gs:
            t0 = time.perf_counter()
            potential: ExternalPotential = (
                ZeroPotential() if g == 0 else LinearPotential(g)
            )
            rho0 = (
                indicator_density(grid, 0.0, 2.0)
                if g == 0
                else indicator_density(grid, 0.0, 1.0)
            )
            report = solve(Problem(grid, PowerLawKernel(p), potential, nu), rho0, cfg)
            params = {
                "nu": nu, "p": p, "g": g, **echo,
                "tau_c": cfg.effective_tau_c(nu),
                "rho0": "indicator[0,2]" if g == 0 else "indicator[0,1]",
            }
            metrics = _solve_metrics(report)
            if name == "kplarge":
                com = metrics["m1"]
                start = com - 0.5 if g == 0 else 0.0
                limit = unit_interval_limit_state(potential, nu, support_start=start)
                metrics["l1_limit_distance"] = integrate(
                    grid,
                    np.abs(report.density.values - limit.discretize(grid).values),
                )
                window = np.abs(grid.nodes - com) <= 0.6
                metrics["mass_in_window"] = float(
                    grid.weights[window] @ report.density.values[window]
                )
            records.append(_record(name, params, metrics, "density",
                                   grid.nodes, report.density.values, t0, [report]))
    return records


def _run_multistate(ov: dict[str, Any]) -> list[ResultRecord]:
    nu, grid, cfg, echo = _solve_setup(ov, 2.0**-13, 8.0, "uniform")
    eps = float(ov.get("eps", 0.3))
    stages = int(ov.get("stages", 8))
    prominence = float(ov.get("prominence", 0.05))
    rho0 = indicator_density(grid, 0.0, grid.length)
    if "schedule" in ov:
        schedules = [ContinuationSchedule(tuple(float(v) for v in ov["schedule"]))]
        nu = schedules[0].nus[-1]  # the records describe the last stage
        starts = [schedules[0].nus[0] / nu]
    else:
        starts = [10.0, 2.0]
        schedules = [
            ContinuationSchedule.geometric(s * nu, nu, stages=stages) for s in starts
        ]
    records = []
    for start, schedule in zip(starts, schedules):
        t0 = time.perf_counter()
        problem = Problem(grid, RegularizedQanrKernel(eps), ZeroPotential(), nu)
        reports = solve_with_continuation(problem, schedule, rho0, cfg)
        final = reports[-1]
        params = {
            "nu": nu, "eps": eps, "nu0_over_nu": start, "stages": len(schedule.nus),
            **echo, "tau_c": cfg.effective_tau_c(nu), "prominence": prominence,
            "rho0": "uniform",
        }
        metrics = _solve_metrics(final, prominence=prominence)
        metrics["total_iterations"] = sum(r.iterations for r in reports)
        metrics["stages_converged"] = sum(1 for r in reports if r.converged)
        metrics["converged"] = all(r.converged for r in reports)
        records.append(_record("multistate", params, metrics, "density",
                               grid.nodes, final.density.values, t0, reports))
    return records


def _run_gamma_energy(ov: dict[str, Any]) -> list[ResultRecord]:
    nu = float(ov.get("nu", 2.0**-6))
    gc = critical_slope(nu)
    gs = [float(g) for g in _as_list(ov.get("g", [0.0, 0.25 * gc, gc, 2 * gc, 4 * gc]))]
    c_min = float(ov.get("c_min", -0.3))
    c_max = float(ov.get("c_max", 1.0))
    n_c = int(ov.get("n_c", 200))
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
        records.append(_record("gamma-energy", params, metrics, "energy_curve",
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


def ball_cylinder_domain(radius: float) -> DomainSpec:
    """Right circular cylinder: unit disk cross-section, one free direction."""

    def indicator(points: np.ndarray) -> np.ndarray:
        return points[:, 0] ** 2 + points[:, 1] ** 2 <= radius * radius

    return DomainSpec(dim=3, indicator=indicator, probe_centers=np.zeros((1, 3)))


def _run_effdim(ov: dict[str, Any]) -> list[ResultRecord]:
    seed = int(ov.get("seed", 0))
    samples = int(ov.get("samples", 100_000))
    records = []
    for name, (spec, radii) in builtin_domains().items():
        t0 = time.perf_counter()
        profile = estimate_volume_profile(spec, radii, samples, seed=seed)
        estimate = estimate_effective_dimension(profile)
        params = {"domain": name, "dim": spec.dim, "seed": seed, "samples": samples,
                  "r_min": float(radii[0]), "r_max": float(radii[-1])}
        metrics = {
            "converged": None,
            "effective_dimension": estimate,
            "max_stderr_rel": float(np.max(profile.stderr / np.maximum(profile.volumes, 1e-300))),
        }
        records.append(_record("effdim", params, metrics, "volume_profile",
                               profile.radii, profile.volumes, t0, []))
    return records


def _run_custom(ov: dict[str, Any]) -> list[ResultRecord]:
    nu, grid, cfg, echo = _solve_setup(ov, 2.0**-6, 4.0, "uniform")
    kind = ov.get("kernel", "power")
    if kind == "power":
        kernel: InteractionKernel = PowerLawKernel(float(ov.get("p", 2.0)))
    elif kind == "qanr":
        kernel = RegularizedQanrKernel(float(ov.get("eps", 0.3)))
    else:
        raise ValueError(f"unknown kernel {kind!r}; use 'power' or 'qanr'")
    g = float(ov.get("g", 0.0))
    potential: ExternalPotential = ZeroPotential() if g == 0 else LinearPotential(g)
    prominence = float(ov.get("prominence", 0.05))
    lo, hi = ov.get("rho0_interval", (0.0, grid.length))
    rho0 = indicator_density(grid, float(lo), float(hi))
    t0 = time.perf_counter()
    problem = Problem(grid, kernel, potential, nu)
    if "schedule" in ov or "stages" in ov:
        if "schedule" in ov:
            schedule = ContinuationSchedule(tuple(float(v) for v in ov["schedule"]))
            nu = schedule.nus[-1]  # the record describes the last stage
        else:
            schedule = ContinuationSchedule.geometric(
                10 * nu, nu, stages=int(ov["stages"])
            )
        reports = solve_with_continuation(problem, schedule, rho0, cfg)
        final = reports[-1]
    else:
        final = solve(problem, rho0, cfg)
        reports = [final]
    params = {
        "kernel": kind, "nu": nu, "g": g, **echo,
        "tau_c": cfg.effective_tau_c(nu), "prominence": prominence,
        "rho0_interval": [float(lo), float(hi)],
    }
    if kind == "power":
        params["p"] = float(ov.get("p", 2.0))
    else:
        params["eps"] = float(ov.get("eps", 0.3))
    metrics = _solve_metrics(final, prominence=prominence)
    metrics["total_iterations"] = sum(r.iterations for r in reports)
    return [_record("custom", params, metrics, "density",
                    grid.nodes, final.density.values, t0, reports)]


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run a named experiment and return its records (no I/O)."""
    runner = {
        "kp2": _run_kp2,
        "kpsmall": lambda ov: _run_power_family("kpsmall", ov),
        "kplarge": lambda ov: _run_power_family("kplarge", ov),
        "multistate": _run_multistate,
        "gamma-energy": _run_gamma_energy,
        "effdim": _run_effdim,
        "custom": _run_custom,
    }[cfg.experiment]
    return runner(dict(cfg.overrides))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_SAMPLE_HEADERS = {
    "density": ("x", "density"),
    "energy_curve": ("shift", "energy"),
    "volume_profile": ("radius", "volume"),
}


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def record_scalars(record: ResultRecord) -> dict[str, Any]:
    """Flat scalar view of a record (parameters then metrics)."""
    out: dict[str, Any] = {"experiment": record.experiment}
    for key, val in record.parameters.items():
        out[f"param_{key}"] = val
    for key, val in record.metrics.items():
        out[key] = val
    return out


def emit(records: list[ResultRecord], fmt: str, path: str | Path) -> list[Path]:
    """Write records to disk; returns the list of files written.

    JSON is a single document with embedded samples.  CSV writes one row per
    record plus a two-column sidecar file per record for the samples.
    Floats are serialized with repr, which round-trips exactly.
    """
    path = Path(path)
    try:
        if fmt == "json":
            doc = {
                "schema": "swarmeq.records.v1",
                "records": [
                    {
                        **{k: _json_safe(v) for k, v in record_scalars(r).items()},
                        "wall_time_s": r.wall_time_s,
                        "samples_kind": r.samples_kind,
                        "samples": {
                            "x": [float(v) for v in r.samples_x],
                            "y": [float(v) for v in r.samples_y],
                        },
                    }
                    for r in records
                ],
            }
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
            return [path]
        if fmt == "csv":
            import csv as _csv

            path.parent.mkdir(parents=True, exist_ok=True)
            columns: list[str] = ["record"]
            for r in records:
                for key in record_scalars(r):
                    if key not in columns:
                        columns.append(key)
            columns += ["wall_time_s", "samples_file"]
            written = [path]
            with open(path, "w", newline="") as fh:
                writer = _csv.writer(fh)
                writer.writerow(columns)
                for i, r in enumerate(records):
                    sidecar = path.with_name(f"{path.stem}_record{i}_{r.samples_kind}.csv")
                    xh, yh = _SAMPLE_HEADERS.get(r.samples_kind, ("x", "y"))
                    with open(sidecar, "w", newline="") as sfh:
                        swriter = _csv.writer(sfh)
                        swriter.writerow([xh, yh])
                        for x, y in zip(r.samples_x, r.samples_y):
                            swriter.writerow([repr(float(x)), repr(float(y))])
                    written.append(sidecar)
                    scalars = record_scalars(r)
                    scalars["wall_time_s"] = r.wall_time_s
                    row = [i]
                    for col in columns[1:-1]:
                        row.append(_csv_cell(scalars.get(col)))
                    row.append(sidecar.name)
                    writer.writerow(row)
            return written
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        return repr(value)
    return value
