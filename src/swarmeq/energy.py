"""The discretised problem and the energy of a density on it.

A `Problem` fixes the grid, the interaction kernel, the external potential
and the diffusion parameter; the energy of a density is interaction +
diffusion entropy + potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Density, Grid, KernelOperator
from .potentials import ExternalPotential, InteractionKernel


@dataclass(frozen=True, eq=False)
class Problem:
    """E[rho] = 1/2 <K*rho, rho> + nu <rho, log rho> + <V, rho> on a grid.

    Construction validates nu, builds the kernel operator for nu
    (`operator`) and samples V on the nodes (`v`), once, noting whether V
    vanishes on every node (`v_vanishes`).  Every problem builds its own: a
    problem at another nu, under another potential or on another grid, such
    as a continuation stage or a level of grid sequencing
    (`solver.refinement_grids`), is a new `Problem`.  At every N a build is
    2N - 1 kernel evaluations (15-40 us below 512 nodes), plus one FFT from
    512 nodes up.
    """

    grid: Grid
    kernel: InteractionKernel
    potential: ExternalPotential
    nu: float
    operator: KernelOperator = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    v_vanishes: bool = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.nu < math.inf:
            raise ValueError(f"diffusion parameter must be positive and finite, got {self.nu}")
        object.__setattr__(self, "operator", KernelOperator(self.grid, self.kernel, self.nu))
        v = np.asarray(self.potential(self.grid.nodes), dtype=float)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "v_vanishes", not np.any(v))


def _check_grid(problem: Problem, rho: Density) -> None:
    """Every function of a problem and a density goes through this check:
    its operator and V are sampled on `problem.grid` only."""
    if rho.grid is not problem.grid:
        raise ValueError("the density must be on the problem's grid")


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three energy components and their weighted total."""

    interaction: float
    entropy: float
    potential: float
    total: float


def entropy(rho: Density) -> float:
    """sum_i w_i rho_i log(rho_i), with 0 log 0 = 0."""
    return _entropy(rho.grid, rho.values)


def _entropy(grid: Grid, v: np.ndarray) -> float:
    # On a positive array, as every solver iterate is, the plain log gives the
    # sum.  Otherwise log 1 = 0 stands in at v <= 0, so 0 log 0 = 0 (a NaN
    # stays NaN); that masked log takes twice as long.
    if v.min() > 0:
        return float(grid.weights @ (v * np.log(v)))
    return float(grid.weights @ (v * np.log(np.where(v > 0, v, 1.0))))


def total_energy(problem: Problem, rho: Density) -> EnergyBreakdown:
    """The full breakdown of rho: interaction, entropy, potential and total."""
    _check_grid(problem, rho)
    return energy_breakdown(problem, rho.values, problem.operator.apply(rho.values))


def energy_breakdown(problem: Problem, values: np.ndarray, conv: np.ndarray) -> EnergyBreakdown:
    """The breakdown of the density with `values` on `problem.grid`, given
    conv = K * values; the array-level form of `total_energy`.  The potential
    term is +0.0 without an integral when V vanishes on every node."""
    grid = problem.grid
    interaction = 0.5 * float(grid.weights @ (values * conv))
    ent = _entropy(grid, values)
    potential = 0.0 if problem.v_vanishes else float(grid.weights @ (problem.v * values))
    return EnergyBreakdown(
        interaction, ent, potential, interaction + problem.nu * ent + potential
    )
