"""Quantitative checks on computed critical points.

The headline diagnostic is the sup-norm residual of the critical-point
identity K*rho + nu log(rho) + V = const, with the constant taken as
total + interaction energy (the two agree for any exact critical point).
The boundary identity rho(0) = g/nu and the centre-of-mass drift give
independent checks tied to the domain boundary.  `diagnose` computes all of
them, with the energy and the multiplier, from one convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import EnergyBreakdown, Problem, _check_grid, energy_breakdown
from .gibbs import DEFAULT_CLAMP_FLOOR, gibbs_log_partition
from .grid import Density, integrate
from .potentials import LinearPotential


class Moments(NamedTuple):
    m1: float
    m2: float


@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything reported about a density.

    lam is the multiplier -nu log Z; lambda_inf is the critical-point residual
    over the full grid (inf if the density has a zero node) and
    lambda_inf_support the same residual on the nodes clearly above the
    exponent-clamp floor; e0 is None unless the potential is linear with g > 0.
    """

    energy: EnergyBreakdown
    lam: float
    lambda_inf: float
    lambda_inf_support: float
    e0: float | None
    com_drift: float
    moments: Moments


def _support_mask(values: np.ndarray) -> np.ndarray:
    """Nodes whose value is clearly above the exponent-clamp floor."""
    return values > values.max() * math.exp(DEFAULT_CLAMP_FLOOR) * 1e6


def euler_lagrange_residual(problem: Problem, rho: Density) -> float:
    """max_i | K*rho + nu log(rho) + V - (total + interaction energy) |, the
    `lambda_inf` of `diagnose`.

    Vanishes (to accumulated roundoff) exactly on discrete fixed points of the
    Gibbs map.  Requires a strictly positive density, which Gibbs-map outputs
    are by construction.
    """
    values = rho.values
    if np.any(values <= 0):
        i = int(np.argmax(values <= 0))
        raise ValueError(
            f"density is not strictly positive at node {i} "
            f"(x = {float(rho.grid.nodes[i])!r}); not a Gibbs-map output"
        )
    return diagnose(problem, rho).lambda_inf


def boundary_condition_error(problem: Problem, rho: Density) -> float:
    """Relative error of the boundary identity rho(0) = g/nu (exact on the
    half-line when the far tail is negligible)."""
    _check_grid(problem, rho)
    potential = problem.potential
    if not isinstance(potential, LinearPotential) or potential.g <= 0:
        raise ValueError(
            "boundary identity needs a linear potential with g > 0; "
            "for g = 0 use com_drift instead"
        )
    target = potential.g / problem.nu
    return abs(float(rho.values[0]) - target) / target


def com_drift(problem: Problem, rho: Density) -> float:
    """Instantaneous centre-of-mass drift of the evolution at this density.

    In one dimension on [0, L] this is -int V' rho + nu (rho(0) - rho(L));
    it vanishes at critical points.  Positive drift pushes the swarm right
    (mass escaping from the x = 0 wall).
    """
    _check_grid(problem, rho)
    nodes = rho.grid.nodes
    vprime = np.asarray(problem.potential.derivative(nodes), dtype=float)
    forcing = integrate(rho.grid, vprime * rho.values)
    return -forcing + problem.nu * (float(rho.values[0]) - float(rho.values[-1]))


def moments(rho: Density) -> Moments:
    """First and second moments about the origin."""
    nodes = rho.grid.nodes
    m1 = integrate(rho.grid, nodes * rho.values)
    m2 = integrate(rho.grid, nodes * nodes * rho.values)
    return Moments(m1=m1, m2=m2)


def diagnose(problem: Problem, rho: Density) -> DiagnosticsReport:
    """Run all diagnostics on a density and collect them in one report."""
    _check_grid(problem, rho)
    conv = problem.operator.apply(rho.values)
    breakdown = energy_breakdown(problem, rho.values, conv)
    # | K*rho + nu log(rho) + V - (total + interaction energy) | per node; inf
    # on zero nodes
    with np.errstate(divide="ignore"):
        profile = conv + problem.nu * np.log(rho.values) + problem.v
    deviation = np.abs(profile - (breakdown.total + breakdown.interaction))
    potential = problem.potential
    e0: float | None = None
    if isinstance(potential, LinearPotential) and potential.g > 0:
        e0 = boundary_condition_error(problem, rho)
    return DiagnosticsReport(
        energy=breakdown,
        lam=-problem.nu * gibbs_log_partition(problem, conv),
        lambda_inf=float(np.max(deviation)),
        lambda_inf_support=float(np.max(deviation[_support_mask(rho.values)])),
        e0=e0,
        com_drift=com_drift(problem, rho),
        moments=moments(rho),
    )
