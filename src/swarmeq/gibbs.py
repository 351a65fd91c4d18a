"""The self-consistent Gibbs map whose fixed points are critical densities.

One application sends rho to exp(-(K*rho + V)/nu) / Z.  For small nu the raw
exponents span thousands of log units, so each application shifts the
exponent by its minimum before exponentiating, which changes nothing
algebraically.  With u = K*rho + V, the shifted exponent is formed as
(min u - u)/nu, which rounds to the same doubles as -(u - min u)/nu, in place
in the fresh array of u.  The multiplier of the critical-point equation is
-nu log Z, evaluated stably by `gibbs_log_partition` from the same exponent.

The shifted exponent is floored at F = DEFAULT_CLAMP_FLOOR, so every value of
an image is positive, and F is chosen so that the solver's arithmetic on
images stays normal.  The exponent is at most 0 (0 at the node of least u),
so Z <= sum(w) = L and every value of an image is at least v = e^F / L.  All
doubles at or above v are multiples of ulp(v) > 2^-53 v.  So when rho is at
least v too, as an image and a convex combination of images are,
f = T(rho) - rho, a difference df of two such f, and sqrt(w) df are either 0
or at least about 2^-53 v sqrt(w_min), with w_min the least trapezoid weight.
At L = 4 and N = 1024 that bound is 2e-322 for F = -700, which is subnormal
(below 2.2e-308), and 5e-279 for F = -600, normal with a margin of 1e29 that
no grid of this package uses up.  Subnormal operands made the Anderson fit
more than twice as slow and the residual about five times as slow.  A floored
node carries a mass of at most L e^F, about 1e-260, so the floor moves no
unfloored value of an image.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import Problem, _check_grid
from .grid import Density, integrate

# Shifted exponents below this are raised to it instead of underflowing to
# zero; the module docstring derives the value.
DEFAULT_CLAMP_FLOOR = -600.0


class GibbsMapError(RuntimeError):
    """Raised when a map application meets a non-finite exponent or a
    non-finite or non-positive partition value."""


def _gibbs(problem: Problem, conv: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(exp of the floored exponent, Z = its weighted sum, min u) for
    u = conv + V, where conv = K * rho; the exponent is -(u - min u)/nu
    floored at DEFAULT_CLAMP_FLOOR.  The values overwrite u; `conv` is only
    read."""
    u = conv + problem.v
    shift = float(u.min())
    # a NaN makes both reductions NaN, -inf the min and +inf the max
    if not (math.isfinite(shift) and math.isfinite(u.max())):
        i = int(np.argmax(~np.isfinite(u)))
        raise GibbsMapError(
            f"non-finite exponent at node {i} (x = {float(problem.grid.nodes[i])!r}); "
            "check kernel and potential values"
        )
    values = np.subtract(shift, u, out=u)
    values /= problem.nu
    np.maximum(values, DEFAULT_CLAMP_FLOOR, out=values)
    np.exp(values, out=values)
    z = float(problem.grid.weights @ values)
    if not math.isfinite(z) or z <= 0:
        raise GibbsMapError(
            f"partition value {z!r} after normalization; "
            f"nu = {problem.nu} is too small for this grid"
        )
    return values, z, shift


def gibbs_values(problem: Problem, conv: np.ndarray) -> np.ndarray:
    """The values of the image of the density whose K * rho is `conv`; the
    array-level form of `apply_gibbs_map`."""
    values, z, _ = _gibbs(problem, conv)
    values /= z
    return values


def gibbs_log_partition(problem: Problem, conv: np.ndarray) -> float:
    """log Z of the density whose K * rho is `conv`, evaluated stably; the
    array-level form of `log_partition`."""
    _, z, shift = _gibbs(problem, conv)
    return math.log(z) - shift / problem.nu


def apply_gibbs_map(problem: Problem, rho: Density) -> Density:
    """Apply the map once and return the image of rho."""
    _check_grid(problem, rho)
    return Density(problem.grid, gibbs_values(problem, problem.operator.apply(rho.values)))


def log_partition(problem: Problem, rho: Density) -> float:
    """log Z of rho.

    Minus nu times this is the multiplier estimate; at a critical point it
    equals total + interaction energy.
    """
    _check_grid(problem, rho)
    return gibbs_log_partition(problem, problem.operator.apply(rho.values))


def fixed_point_residual(problem: Problem, rho: Density) -> float:
    """L1 distance between rho and its image under the map."""
    image = apply_gibbs_map(problem, rho)
    return integrate(rho.grid, np.abs(rho.values - image.values))
