"""The self-consistent Gibbs map whose fixed points are critical densities.

One application sends rho to exp(-(K*rho + V)/nu) / Z.  For small nu the raw
exponents span thousands of log units, so each application shifts the
exponent by its minimum before exponentiating, which changes nothing
algebraically.  The multiplier of the critical-point equation is
-nu log Z, evaluated stably by `log_partition` from the same exponent.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import Problem, convolved
from .grid import Density, integrate

# Shifted exponents below this are flushed to the floor instead of
# underflowing to zero, keeping every output value strictly positive.
DEFAULT_CLAMP_FLOOR = -700.0


class GibbsMapError(RuntimeError):
    """Raised when a map application produces a non-finite partition value."""


def _exponent(problem: Problem, conv: np.ndarray) -> tuple[np.ndarray, float]:
    """(-(u - min u)/nu floored at DEFAULT_CLAMP_FLOOR, min u) for
    u = conv + V, where conv = K * rho."""
    u = conv + problem.v
    if not np.all(np.isfinite(u)):
        i = int(np.argmax(~np.isfinite(u)))
        raise GibbsMapError(
            f"non-finite exponent at node {i} (x = {problem.grid.nodes[i]!r}); "
            "check kernel and potential values"
        )
    shift = float(u.min())
    return np.maximum(-(u - shift) / problem.nu, DEFAULT_CLAMP_FLOOR), shift


def gibbs_values(problem: Problem, conv: np.ndarray) -> np.ndarray:
    """The values of the image of the density whose K * rho is `conv`; the
    array-level form of `apply_gibbs_map`."""
    values = np.exp(_exponent(problem, conv)[0])
    scale = float(problem.grid.weights @ values)
    if not math.isfinite(scale) or scale <= 0:
        raise GibbsMapError(
            f"partition value {scale!r} after normalization; "
            f"nu = {problem.nu} is too small for this grid"
        )
    return values / scale


def apply_gibbs_map(
    problem: Problem, rho: Density, conv: np.ndarray | None = None
) -> Density:
    """Apply the map once and return the image of rho.

    `conv` may carry a precomputed K * rho.
    """
    return Density(problem.grid, gibbs_values(problem, convolved(problem, rho, conv)))


def log_partition(
    problem: Problem, rho: Density, conv: np.ndarray | None = None
) -> float:
    """log Z of rho, evaluated stably.

    Minus nu times this is the multiplier estimate; at a critical point it
    equals total + interaction energy.
    """
    exponent, shift = _exponent(problem, convolved(problem, rho, conv))
    total = float(problem.grid.weights @ np.exp(exponent))
    return math.log(total) - shift / problem.nu


def fixed_point_residual(problem: Problem, rho: Density) -> float:
    """L1 distance between rho and its image under the map."""
    image = apply_gibbs_map(problem, rho)
    return integrate(rho.grid, np.abs(rho.values - image.values))
