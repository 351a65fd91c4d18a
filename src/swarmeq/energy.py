"""Discrete energy of a density: interaction + diffusion entropy + potential."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Density, KernelOperator, convolve_kernel, integrate
from .potentials import ExternalPotential, InteractionKernel


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three energy components and their weighted total."""

    interaction: float
    entropy: float
    potential: float
    nu: float
    total: float

    @classmethod
    def assemble(
        cls, interaction: float, entropy: float, potential: float, nu: float
    ) -> "EnergyBreakdown":
        return cls(
            interaction=interaction,
            entropy=entropy,
            potential=potential,
            nu=nu,
            total=interaction + nu * entropy + potential,
        )


def interaction_energy(
    kernel: InteractionKernel, rho: Density, conv: np.ndarray | None = None
) -> float:
    """(1/2) sum_ij w_i w_j K(x_i - x_j) rho_i rho_j.

    `conv` may carry a precomputed K * rho to avoid redoing the convolution.
    """
    if conv is None:
        conv = convolve_kernel(rho.grid, kernel, rho)
    return 0.5 * integrate(rho.grid, rho.values * conv)


def entropy(rho: Density) -> float:
    """sum_i w_i rho_i log(rho_i), with 0 log 0 = 0."""
    v = rho.values
    terms = v * np.log(v, out=np.zeros_like(v), where=v > 0)
    return integrate(rho.grid, terms)


def potential_energy(potential: ExternalPotential, rho: Density) -> float:
    return integrate(rho.grid, np.asarray(potential(rho.grid.nodes)) * rho.values)


def total_energy(
    kernel: InteractionKernel,
    potential: ExternalPotential,
    nu: float,
    rho: Density,
    conv: np.ndarray | None = None,
    operator: KernelOperator | None = None,
) -> EnergyBreakdown:
    """Assemble the full breakdown; reuses `conv` or `operator` when given."""
    if conv is None and operator is not None:
        conv = operator.apply(rho.values)
    return EnergyBreakdown.assemble(
        interaction=interaction_energy(kernel, rho, conv=conv),
        entropy=entropy(rho),
        potential=potential_energy(potential, rho),
        nu=nu,
    )
