"""Relaxed fixed-point iteration on the Gibbs map, with continuation.

Each step replaces rho by (1 - tau) rho + tau T(rho).  The full step tau = 1
is taken whenever it lowers the energy; otherwise a conservative step
tau_c (proportional to the diffusion parameter) keeps the iteration from
oscillating.  Iteration stops when the L1 residual ||rho - T(rho)|| drops
below tolerance.  Small diffusion values are reached by continuation:
solve along a decreasing sequence of nu, warm-starting each stage from the
previous solution.

Every step reuses the kernel operator of the `Problem`, and the stages of a
continuation share it through `Problem.with_nu`.  The report carries
`diagnose` of the returned density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsReport, diagnose
from .energy import Problem, total_energy
from .gibbs import GibbsMapError, apply_gibbs_map
from .grid import Density, integrate


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls.

    tau_c = None derives the conservative step as min(5 nu, 0.95) at solve
    time; the clamp keeps the scheme defined when nu is not small.
    """

    tau_c: float | None = None
    tol: float = 1e-6
    max_iterations: int = 2000

    def __post_init__(self):
        if self.tau_c is not None and not 0 < self.tau_c < 1:
            raise ValueError(f"tau_c must lie in (0, 1), got {self.tau_c}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_iterations < 1:
            raise ValueError(f"need max_iterations >= 1, got {self.max_iterations}")

    def effective_tau_c(self, nu: float) -> float:
        if self.tau_c is not None:
            return self.tau_c
        return min(5.0 * nu, 0.95)


@dataclass(frozen=True)
class ContinuationSchedule:
    """Strictly decreasing diffusion values, largest first."""

    nus: tuple[float, ...]

    def __post_init__(self):
        nus = tuple(float(v) for v in self.nus)
        object.__setattr__(self, "nus", nus)
        if not nus:
            raise ValueError("schedule must contain at least one diffusion value")
        if any(v <= 0 for v in nus):
            raise ValueError("all diffusion values must be positive")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ValueError("diffusion values must be strictly decreasing")

    @classmethod
    def geometric(cls, nu_start: float, nu_target: float, stages: int = 8) -> "ContinuationSchedule":
        """Geometrically spaced stages from nu_start down to nu_target."""
        if stages < 1:
            raise ValueError(f"need at least one stage, got {stages}")
        if stages == 1 or nu_start == nu_target:
            return cls(nus=(nu_target,))
        if nu_start <= nu_target:
            raise ValueError("nu_start must exceed nu_target")
        ratio = (nu_target / nu_start) ** (1.0 / (stages - 1))
        nus = [nu_start * ratio**j for j in range(stages - 1)]
        nus.append(nu_target)  # pin the endpoint exactly
        return cls(nus=tuple(nus))


@dataclass
class SolveReport:
    """Outcome of one fixed-point solve; `diagnostics` describes `density`."""

    density: Density
    iterations: int
    residual: float
    diagnostics: DiagnosticsReport
    converged: bool
    energy_trace: list[float]
    tau_trace: list[float]
    nu: float


def solve(
    problem: Problem, rho0: Density, config: SolverConfig | None = None
) -> SolveReport:
    """Iterate the relaxed scheme from rho0 until the L1 residual is below
    tolerance or the iteration budget runs out (the latter is reported, not
    raised)."""
    grid = problem.grid
    if rho0.grid is not grid:
        raise ValueError("rho0 must be a density on the problem's grid")
    config = config or SolverConfig()
    tau_c = config.effective_tau_c(problem.nu)
    operator = problem.operator

    rho = rho0
    conv = operator.apply(rho.values)
    breakdown = total_energy(problem, rho, conv=conv)
    energy_trace = [breakdown.total]
    tau_trace: list[float] = []
    iterations = 0

    while True:
        try:
            image = apply_gibbs_map(problem, rho, conv=conv)
        except GibbsMapError as exc:
            raise GibbsMapError(f"iteration {iterations}: {exc}") from exc
        residual = integrate(grid, np.abs(rho.values - image.values))
        converged = residual < config.tol
        if iterations >= config.max_iterations:
            break  # budget exhausted; keep whatever the residual test said

        image_conv = operator.apply(image.values)
        image_breakdown = total_energy(problem, image, conv=image_conv)
        if not math.isfinite(image_breakdown.total):
            raise GibbsMapError(
                f"iteration {iterations}: non-finite energy {image_breakdown.total!r}"
            )
        if image_breakdown.total < breakdown.total:
            tau = 1.0
            rho, conv, breakdown = image, image_conv, image_breakdown
        else:
            tau = tau_c
            rho = Density(grid, (1 - tau) * rho.values + tau * image.values)
            # K * rho is linear in rho, so the combined convolution is exact.
            conv = (1 - tau) * conv + tau * image_conv
            breakdown = total_energy(problem, rho, conv=conv)
        tau_trace.append(tau)
        energy_trace.append(breakdown.total)
        iterations += 1
        if converged:
            # The residual test passed, so this last scheme update (a Gibbs
            # image whenever it lowers the energy, which it does near a
            # minimizer) is the reported state.
            break

    return SolveReport(
        density=rho,
        iterations=iterations,
        residual=residual,
        diagnostics=diagnose(problem, rho),
        converged=converged,
        energy_trace=energy_trace,
        tau_trace=tau_trace,
        nu=problem.nu,
    )


def solve_with_continuation(
    problem: Problem,
    schedule: ContinuationSchedule,
    rho0: Density,
    config: SolverConfig | None = None,
) -> list[SolveReport]:
    """Solve `problem.with_nu(nu)` for each nu of the schedule (the problem's
    own nu is not used), warm-starting each stage from the previous output
    density.  The conservative step is re-derived per stage unless the config
    pins it.  Returns one report per stage, final stage last."""
    reports: list[SolveReport] = []
    rho = rho0
    for j, nu in enumerate(schedule.nus):
        try:
            report = solve(problem.with_nu(nu), rho, config=config)
        except GibbsMapError as exc:
            raise GibbsMapError(f"continuation stage {j} (nu = {nu}): {exc}") from exc
        reports.append(report)
        rho = report.density
    return reports


def count_aggregates(rho: Density, prominence: float) -> int:
    """Count distinct clusters: strict interior maxima (plus endpoints that
    dominate their neighbour) whose drop to the neighbouring minima on each
    available side is at least prominence * max(rho)."""
    if prominence <= 0:
        raise ValueError(f"prominence must be positive, got {prominence}")
    v = rho.values
    n = v.size
    peak = v.max()
    if peak <= 0:
        return 0
    threshold = prominence * peak

    candidates = [i for i in range(1, n - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]
    if v[0] > v[1]:
        candidates.insert(0, 0)
    if v[-1] > v[-2]:
        candidates.append(n - 1)

    count = 0
    for k, i in enumerate(candidates):
        left_edge = candidates[k - 1] if k > 0 else 0
        right_edge = candidates[k + 1] if k + 1 < len(candidates) else n - 1
        ok = True
        if i > 0:
            ok = ok and v[i] - v[left_edge : i + 1].min() >= threshold
        if i < n - 1:
            ok = ok and v[i] - v[i : right_edge + 1].min() >= threshold
        if ok:
            count += 1
    return count
