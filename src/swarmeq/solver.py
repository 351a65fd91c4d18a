"""Safeguarded fixed-point iteration on the Gibbs map, with continuation.

Each step forms, from f = T(rho) - rho, the point

    y = rho + beta f,

with beta = 1 (y is the image T(rho)) when the image lowers the energy and
beta = tau_c, the paper's conservative step proportional to the diffusion
parameter, when it does not.  Both accelerations are one Anderson step
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011) from one history of differences
dy_j of y and df_j of f over successive steps of the same beta:

    x = y - sum_j gamma_j dy_j,

with gamma the trapezoid-weighted least-squares fit of f by the df_j, solved
through its normal equations: the Gram matrix of the weighted df_j gains one
row and column per difference pushed, and an m x m solve gives gamma.  The
history holds the last ANDERSON_DEPTH differences at beta = tau_c and the last
one at beta = 1, and it is cleared when beta switches.  A singular Gram
matrix, or a gamma that is not finite, gives no x.  x is taken when it is
finite, positive, of unit mass and of lower energy than both rho and T(rho);
otherwise the step takes y.  The steps are named "full" (y at beta = 1),
"secant" (x at beta = 1), "anderson" (x at beta = tau_c) and "conservative"
(y at beta = tau_c).

At beta = 1 with one difference, x is the secant step
(1 - gamma) T(rho) + gamma T(rho_prev).  It is fitted only while the residual
falls by less than SECANT_CONTRACTION per step, not in the SECANT_BACKOFF full
steps after a failed try, and not on the step that passes the residual test,
and it is tried only when the fit removes at least SECANT_MIN_GAIN of
||f||_w^2.  A difference is formed only on a step that fits.
Iteration stops when the L1 residual ||rho - T(rho)|| drops below tolerance.
Small diffusion values are reached by continuation: solve along a decreasing
sequence of nu, warm-starting each stage from the previous solution.
The exponent floor keeps f and its differences out of subnormal range (the
`gibbs` module docstring), so the fit takes them as they are.

Every step reuses the kernel operator of the `Problem` and applies it once:
K * rho is linear, so the convolution of y and of x is the same combination
of stored convolutions.  The loop carries each state it evaluates (the
start, the image T(rho), the candidate x and a y that the step takes) as one
`(values, conv, energy)` record built by `_iterate`, the only place the
energy is evaluated; a y that the step does not take is never evaluated.
The values are raw arrays, checked as a `Density` would check them where a
step could break it, and one `Density` is built for the returned state.  Each
stage of a continuation is a `Problem` with its own operator.  The report
gives `diagnose` of the returned density when it is read.

The number of iterations belongs to the continuum problem, not to the grid:
kpsmall takes about 1100 at N = 1024, 4096 and 8192 alike.  So a solve asked
on a fine uniform grid is first made on coarser ones, where an iteration is
cheap (grid sequencing; Knoll & Keyes, J. Comput. Phys. 193, 2004):
`solve_with_continuation` follows the schedule on the coarsest grid that
`refinement_grids` lists and the last nu on each finer one, each level from
the one below moved by the mass-conserving `transfer`, and stops every solve
off the requested grid at COARSE_TOL times the caller's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .diagnostics import DiagnosticsReport, diagnose
from .energy import Problem, _check_grid, energy_breakdown
from .gibbs import GibbsMapError, gibbs_values
from .grid import Density, Grid, check_density, integrate

# History depth at beta = tau_c.  Measured on the default multistate
# schedules: depths 5 and 6, and the undamped mixing beta = 1, left stages
# unconverged.  At beta = 1 a depth of 4 moved kplarge p = 16 and 32 at g = 0
# from 16 and 20 iterations to 36 and 58, so that history holds one.
ANDERSON_DEPTH = 4

# When the secant step is fitted and tried (module docstring).  Measured as
# total iterations of kp2 / kpsmall / kplarge at their defaults, and of kplarge
# p = 256, g = 0, with 55 / 1654 / 1443 and 1048 without the step and
# 35 / 1104 / 1229 and 1048 with these values, through the Gram fit:
# - Only while the residual falls by less than this factor per step.  At 0 the
#   p = 256, g = 0 record takes a secant step at iteration 70, where the
#   residual had fallen to a third, and needs 1060 iterations; at 0.8 kp2 and
#   kpsmall take 55 and 1176.
SECANT_CONTRACTION = 0.5
# - Only when the fit removes at least this share of ||f||_w^2.  At 0 the
#   p = 256, g = 0 record takes candidates that remove about 1e-5 of it and
#   needs 1060 iterations; at 0.1 kpsmall takes 1120.  Without the test kp2
#   and kplarge take 38 and 1241.
SECANT_MIN_GAIN = 0.01
# - Not in this many full steps after a failed try.  The p = 256, g = 0 record
#   fails every try; at 4 / 8 / 16 it makes 197 / 110 / 60 fits and kpsmall
#   takes 1075 / 1104 / 1146 iterations.
SECANT_BACKOFF = 8

# Grid sequencing (`refinement_grids`): the smallest coarse grid, the default
# N of every solving experiment but kp2.
REFINE_FROM = 1024
# A coarse level stops at this multiple of the caller's tolerance.  The level
# above starts from it, and needs it only as close as the two levels'
# solutions lie: solved to the default tol, they lie 7.7e-7 to 1.5e-3 apart in
# L1 (medians 6e-5 on kpsmall and 2.8e-5 on kplarge, at N = 8192).  Measured
# in process on a 2-core x86-64 machine, best of 3 in each of two processes,
# wall time in s and coarse iterations (the fine levels took 51 to 90):
#
#   factor   kpsmall N = 2048 / 4096 / 8192      kplarge N = 2048 / 4096 / 8192
#   1        0.18-0.19 / 0.24 / 0.31 (1101-1275)  0.18-0.19 / 0.24 / 0.33-0.34 (1130-1329)
#   3        0.18-0.19 / 0.23-0.24 / 0.30-0.31    0.08 / 0.12-0.13 / 0.21-0.22 (294-380)
#   10       0.18 / 0.22 / 0.29 (1067-1176)       0.07 / 0.11-0.12 / 0.19 (220-299)
#   30       0.17-0.18 / 0.21 / 0.28              0.07 / 0.11 / 0.17-0.18 (213-278)
#   100      0.17 / 0.20 / 0.27 (1048-1095)       0.07 / 0.10 / 0.17-0.18 (204-246)
#
# At 1, kplarge's coarse levels reach the plateau of p = 256, g = 0 (1048
# iterations at N = 1024).  Above 10 the gain is at most 8 %, and a coarse
# state stopped at 100 tol lies further from its own solution than the median
# distance to the next level's.
COARSE_TOL = 10.0

@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls.

    tau_c = None derives the conservative step, which is also the Anderson
    damping, as min(5 nu, 0.95) at solve time; the clamp keeps the scheme
    defined when nu is not small.
    """

    tau_c: float | None = None
    tol: float = 1e-6
    max_iterations: int = 2000

    def __post_init__(self):
        if self.tau_c is not None and not 0 < self.tau_c < 1:
            raise ValueError(f"tau_c must lie in (0, 1), got {self.tau_c}")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if isinstance(self.max_iterations, bool) or not isinstance(
                self.max_iterations, (int, np.integer)):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError(f"need max_iterations >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class ContinuationSchedule:
    """Strictly decreasing diffusion values, largest first."""

    nus: tuple[float, ...]

    def __post_init__(self):
        nus = tuple(float(v) for v in self.nus)
        object.__setattr__(self, "nus", nus)
        if not nus:
            raise ValueError("schedule must contain at least one diffusion value")
        if not all(v > 0 for v in nus):
            raise ValueError("all diffusion values must be positive")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ValueError("diffusion values must be strictly decreasing")

    @classmethod
    def geometric(cls, nu_start: float, nu_target: float, stages: int) -> "ContinuationSchedule":
        """Geometrically spaced stages from nu_start down to nu_target."""
        if isinstance(stages, bool) or not isinstance(stages, (int, np.integer)):
            raise ValueError(f"stages must be an integer, got {stages!r}")
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
    """Outcome of one fixed-point solve of `problem`; `tau_c` is the
    conservative step and Anderson damping the solve used."""

    density: Density
    residual: float
    converged: bool
    energy_trace: list[float]
    step_trace: list[str]  # per step: "full", "secant", "anderson" or "conservative"
    problem: Problem = field(repr=False)
    tau_c: float

    @cached_property
    def diagnostics(self) -> DiagnosticsReport:
        """`diagnose` of `density`, computed on first read: the coarse levels
        of grid sequencing are never read."""
        return diagnose(self.problem, self.density)

    @property
    def nu(self) -> float:
        return self.problem.nu

    @property
    def iterations(self) -> int:
        return len(self.step_trace)

    @property
    def tau_trace(self) -> list[float]:
        """Per step: beta, 1 on full and secant steps and tau_c on the others."""
        return [1.0 if step in ("full", "secant") else self.tau_c for step in self.step_trace]


class _Iterate(NamedTuple):
    """A state the loop has evaluated: its values, K * values and energy."""

    values: np.ndarray
    conv: np.ndarray
    energy: float


def _iterate(problem: Problem, values: np.ndarray, conv: np.ndarray) -> _Iterate:
    """The record of `values`, whose K * values is `conv`; the one energy
    evaluation of the solve loop."""
    return _Iterate(values, conv, energy_breakdown(problem, values, conv).total)


def solve(
    problem: Problem, rho0: Density, config: SolverConfig | None = None
) -> SolveReport:
    """Iterate the safeguarded scheme from rho0 until the L1 residual is below
    tolerance or the iteration budget runs out (the latter is reported, not
    raised)."""
    _check_grid(problem, rho0)
    grid = problem.grid
    config = config or SolverConfig()
    tau_c = min(5.0 * problem.nu, 0.95) if config.tau_c is None else config.tau_c
    operator = problem.operator
    sqrt_w = np.sqrt(grid.weights)
    # Ring buffer of the differences, over successive steps of one beta, of the
    # weighted f = T(rho) - rho, of y = rho + beta f and of K * y, and the Gram
    # matrix of the d_f rows; `stored` counts the differences pushed since beta
    # last switched, so the ring and its Gram matrix are refilled from slot 0.
    d_f, d_y, d_conv = np.empty((3, ANDERSON_DEPTH, grid.size))
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
    stored = 0
    previous = None  # (f, y, K * y, beta) of the last step
    wait = 0  # full steps left before the next secant try
    residual = math.inf

    rho = _iterate(problem, rho0.values, operator.apply(rho0.values))
    energy_trace = [rho.energy]
    step_trace: list[str] = []

    while True:
        try:
            values = gibbs_values(problem, rho.conv)
        except GibbsMapError as exc:
            raise GibbsMapError(f"iteration {len(step_trace)}: {exc}") from exc
        f = values - rho.values
        previous_residual, residual = residual, integrate(grid, np.abs(f))
        converged = residual < config.tol
        if len(step_trace) >= config.max_iterations:
            break  # budget exhausted; keep whatever the residual test said

        image = _iterate(problem, values, operator.apply(values))
        if not math.isfinite(image.energy):
            raise GibbsMapError(f"iteration {len(step_trace)}: non-finite energy {image.energy!r}")
        if image.energy < rho.energy:
            beta, y, y_conv = 1.0, image.values, image.conv
        else:
            beta = tau_c
            y = (1 - tau_c) * rho.values + tau_c * image.values
            # K * rho is linear in rho, so the combined convolution is exact.
            y_conv = (1 - tau_c) * rho.conv + tau_c * image.conv
        same = previous is not None and previous[3] == beta
        if not same:
            stored = 0
        if beta < 1:
            fits = same
        elif wait:
            wait -= 1
            fits = False
        else:
            fits = same and not converged and residual > SECANT_CONTRACTION * previous_residual
        candidate = None
        if fits:
            depth = ANDERSON_DEPTH if beta < 1 else 1
            slot = stored % depth
            d_f[slot] = sqrt_w * (f - previous[0])
            d_y[slot] = y - previous[1]
            d_conv[slot] = y_conv - previous[2]
            stored += 1
            m = min(stored, depth)
            wf = f * sqrt_w
            gamma, b = _fit(gram, d_f, slot, m, wf)
            if gamma is not None and (beta < 1 or gamma @ b > SECANT_MIN_GAIN * (wf @ wf)):
                candidate = _anderson_candidate(
                    problem, y - gamma @ d_y[:m], y_conv - gamma @ d_conv[:m],
                    min(rho.energy, image.energy),
                )
            if candidate is None and beta == 1:
                wait = SECANT_BACKOFF
        previous = (f, y, y_conv, beta)
        # y is evaluated only when the step takes it
        if candidate is not None:
            step, rho = ("secant" if beta == 1 else "anderson"), candidate
        elif beta == 1:
            step, rho = "full", image
        else:
            check_density(grid, y)
            step, rho = "conservative", _iterate(problem, y, y_conv)
        step_trace.append(step)
        energy_trace.append(rho.energy)
        if converged:
            # The residual test passed, so this last scheme update is the
            # reported state.  It is a Gibbs image only when the image lowered
            # the energy, which a state near a minimizer does not guarantee; on
            # a conservative or Anderson step `residual` is that of the state
            # before.
            break

    return SolveReport(
        density=Density(grid, rho.values),
        residual=residual,
        converged=converged,
        energy_trace=energy_trace,
        step_trace=step_trace,
        problem=problem,
        tau_c=tau_c,
    )


def _fit(
    gram: np.ndarray, d_f: np.ndarray, slot: int, m: int, wf: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """(gamma, b) of the least-squares fit of wf by the rows d_f[:m], after
    row `slot` was pushed: fill row and column `slot` of the Gram matrix
    gram[:m, :m] = d_f[:m] d_f[:m]^T, form b = d_f[:m] wf and solve the normal
    equations gram[:m, :m] gamma = b.  gamma is None when the Gram matrix is
    singular or gamma is not finite."""
    gram[slot, :m] = gram[:m, slot] = d_f[:m] @ d_f[slot]
    b = d_f[:m] @ wf
    try:
        gamma = np.linalg.solve(gram[:m, :m], b)
    except np.linalg.LinAlgError:
        return None, b
    return (gamma if all(map(math.isfinite, gamma.tolist())) else None), b


def _anderson_candidate(
    problem: Problem, values: np.ndarray, conv: np.ndarray, energy: float
) -> _Iterate | None:
    """The record of an Anderson combination, or None unless its values are
    positive, its mass is unit and its energy is below `energy`.  `min > 0`
    rejects NaN and -inf, and a value of +inf fails the mass check."""
    if not values.min() > 0:
        return None
    try:
        check_density(problem.grid, values)
    except ValueError:  # mass drifted beyond the density tolerance
        return None
    candidate = _iterate(problem, values, conv)
    return candidate if candidate.energy < energy else None


def solve_with_continuation(
    problem: Problem,
    schedule: ContinuationSchedule,
    rho0: Density,
    config: SolverConfig | None = None,
) -> list[SolveReport]:
    """Solve the problem along the schedule, which must end at `problem.nu`,
    each solve warm-started from the previous output density (moved by
    `transfer` when the grid changes).  On a grid that `refinement_grids`
    refines, every stage is solved on the coarsest level and the last nu then
    on each finer one, each solve off `problem.grid` to COARSE_TOL times the
    tolerance.  Each solve but the last is a new `Problem`, with its own
    operator and V; the last is `problem`.  The conservative step is
    re-derived per solve unless the config pins it.  Returns every solve's
    report in order."""
    if schedule.nus[-1] != problem.nu:
        raise ValueError(f"schedule ends at {schedule.nus[-1]!r}, not at problem.nu = {problem.nu!r}")
    _check_grid(problem, rho0)
    config = config or SolverConfig()
    coarse = replace(config, tol=COARSE_TOL * config.tol)
    grids = [*refinement_grids(problem.grid), problem.grid]
    last = len(schedule.nus) - 1
    plan = [(grids[0], j) for j in range(last)] + [(grid, last) for grid in grids]
    reports: list[SolveReport] = []
    rho = rho0
    for grid, j in plan:
        nu, fine = schedule.nus[j], grid is problem.grid
        stage = problem if fine and j == last else replace(problem, grid=grid, nu=nu)
        try:
            report = solve(stage, rho if rho.grid is grid else transfer(rho, grid),
                           config if fine else coarse)
        except GibbsMapError as exc:
            level = "" if fine else f"coarse grid of {grid.size} nodes, "
            raise GibbsMapError(f"{level}continuation stage {j} (nu = {nu}): {exc}") from exc
        reports.append(report)
        rho = report.density
    return reports


def refinement_grids(grid: Grid) -> list[Grid]:
    """The coarse grids a solve on `grid` starts from, coarsest first: for each
    k >= 1, the grid of ceil(N / 2^k) nodes on the same length, while that is
    at least REFINE_FROM nodes, so none when N < 2 REFINE_FROM - 1."""
    sizes = []
    n = grid.size
    while (n := -(-n // 2)) >= REFINE_FROM:  # ceil(ceil(N / 2^k) / 2) = ceil(N / 2^(k+1))
        sizes.append(n)
    return [Grid(grid.length, n) for n in reversed(sizes)]


def transfer(rho: Density, grid: Grid) -> Density:
    """rho moved to `grid`, a grid of the same length, with its mass.

    Each node of `grid` owns the cell between the midpoints to its neighbours
    (or the end of [0, L]), whose width is its trapezoid weight, and gets the
    mass that the piecewise-linear interpolant of rho puts in that cell,
    divided by the width.  The cells are summed from pieces that each lie
    within one cell and one interval of rho's nodes, where the interpolant is
    linear and its trapezoid integral exact, so the transfer keeps the mass,
    and every value is nonnegative, positive where the interpolant is: a
    start narrower than a cell keeps its mass.  Summing the pieces, rather
    than differencing a cumulative mass, keeps tails far below roundoff of
    the total from turning negative."""
    x, values = rho.grid.nodes, rho.values
    edges = np.concatenate(([0.0], (grid.nodes[:-1] + grid.nodes[1:]) / 2, [grid.length]))
    points = np.union1d(x, edges)
    heights = np.interp(points, x, values)
    pieces = np.diff(points) * (heights[:-1] + heights[1:]) / 2
    cells = np.add.reduceat(pieces, np.searchsorted(points, edges[:-1]))
    return Density(grid, cells / grid.weights)


def count_aggregates(rho: Density, prominence: float) -> int:
    """Count distinct clusters: maxima whose prominence is at least
    prominence * max(rho).  A maximum is a run of equal values (one node, or
    the flat top of a cluster) that lies above each neighbour it has; a
    constant density has none.  Its prominence is its drop, on each available
    side, to the lowest value before the nearest higher node (or the end of
    the grid), whichever drop is smaller; a node of equal value to its left
    counts as higher, so maxima of equal height count apart only when a deep
    enough dip separates them.  Roundoff ripples on the top of a cluster thus
    count once."""
    if not prominence > 0:
        raise ValueError(f"prominence must be positive, got {prominence}")
    v = rho.values
    n = v.size
    peak = v.max()
    if peak <= 0:
        return 0
    threshold = prominence * peak

    ends = np.flatnonzero(np.diff(v))  # the last node of every run but the last
    first = np.concatenate(([0], ends + 1))
    last = np.append(ends, n - 1)
    # a run is a maximum when it lies above the run before it (if any), above
    # the run after it (if any), and is not the whole grid
    above_left = np.concatenate(([True], v[ends] < v[ends + 1]))
    above_right = np.append(v[ends + 1] < v[ends], True)
    maxima = above_left & above_right & ((first > 0) | (last < n - 1))

    count = 0
    for a, b in zip(first[maxima].tolist(), last[maxima].tolist()):
        top = v[a]
        bases = []
        if a > 0:
            higher = np.flatnonzero(v[:a] >= top)
            start = higher[-1] + 1 if higher.size else 0
            bases.append(v[start:a].min())
        if b < n - 1:
            higher = np.flatnonzero(v[b + 1 :] > top)
            stop = b + 1 + higher[0] if higher.size else n
            bases.append(v[b + 1 : stop].min())
        if top - max(bases) >= threshold:
            count += 1
    return count
