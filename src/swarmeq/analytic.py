"""Closed-form critical points for quadratic attraction on the half-line.

For K(x) = x^2/2 and V(x) = g*x on [0, inf), every image of the Gibbs map is a
truncated Gaussian, so critical points reduce to a scalar equation for the
Gaussian shift.  These closed forms are the exact oracles the iterative solver
is benchmarked against.  The limiting compactly supported state of the
hard-attraction (large power) regime lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erf  # re-exported: the package's error function

import numpy as np

from .grid import Density, Grid
from .potentials import ExternalPotential

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
# From s = 4 on, 32 terms of the continued fraction in _left_tail reach about
# 4e-16 relative error (checked against 60-digit arithmetic on [4, 1e6]).
_CF_START = 4.0
_CF_TERMS = 32
# solve_critical_shift bisects until |f' - target| is at most this.
_SHIFT_VALUE_TOL = 1e-12


def log_retained_mass(t: float) -> tuple[float, float, float]:
    """log(1 + erf(t)) and its first two derivatives.

    1 + erf(t) is (twice) the mass a unit-width Gaussian centred at t keeps on
    the half-line, so this function controls both the normalizer and the
    energy of the truncated-Gaussian family.  The first derivative
    f' = (2/sqrt(pi)) exp(-t^2) / (1 + erf(t)) is positive and strictly
    decreasing.  The second derivative f'' = -2 t f' - f'^2 satisfies
    -2 < f'' < 0 on the whole line, because 1 + f''/2 is the variance of a
    standard normal truncated to (-inf, sqrt(2) t], which lies in (0, 1)
    (Sampford 1953); f'' -> -2 as t -> -inf.  On t >= 0 the sharper bound
    f'' >= -4/pi holds, attained at t = 0.

    Evaluation goes through the scaled complementary error function
    erfcx(-t) = exp(t^2) (1 + erf(t)) for t < 0.  On -_CF_START < t < 0 it is
    exp(t^2) erfc(-t), both factors finite; from t <= -_CF_START the excess
    f' - 2|t| comes from a continued fraction and gives f' and erfcx, so
    f'' = -f' (f' - 2|t|) carries no cancellation far into the left tail (in
    float64 it rounds to -2 once |t| exceeds ~7e7).  Both pieces agree with
    scipy.special.erfcx to a few parts in 1e15.
    """
    t = float(t)
    if t >= 0:
        mass = 1.0 + erf(t)
        value = math.log1p(erf(t))
        d1 = _TWO_OVER_SQRT_PI * math.exp(-t * t) / mass
        d2 = -2.0 * t * d1 - d1 * d1
    else:
        # scaled = exp(t^2) (1 + erf(t)) = erfcx(-t), without cancellation
        if t > -_CF_START:
            scaled = math.exp(t * t) * math.erfc(-t)
            d1 = _TWO_OVER_SQRT_PI / scaled
            excess = d1 + 2.0 * t
        else:
            excess = _left_tail(-t)[0]
            d1 = excess - 2.0 * t
            scaled = _TWO_OVER_SQRT_PI / d1
        value = math.log(scaled) - t * t
        d2 = -d1 * excess
    return value, d1, d2


def _left_tail(s: float) -> tuple[float, float]:
    """f'(-s) - 2s and 1 + f''(-s)/2 for s >= _CF_START, without cancellation.

    Laplace's continued fraction for the Mills ratio,
    1 / (sqrt(pi) erfcx(s)) = s + (1/2)/(s + (2/2)/(s + (3/2)/(s + ...))),
    gives f'(-s) = 2s + e with e = 1/(s + q), q = 1/(s + (3/2)/(s + ...)).
    Then f'' = -(2s + e) e and, using s e = 1 - q e,
    1 + f''/2 = e (q - e/2) ~ 1/(2 s^2).
    """
    q = 0.0
    for k in range(_CF_TERMS, 1, -1):
        q = 0.5 * k / (s + q)
    excess = 1.0 / (s + q)
    return excess, excess * (q - 0.5 * excess)


def critical_slope(nu: float) -> float:
    """The gravity value at which the optimal shift is exactly zero."""
    return math.sqrt(2.0 * nu / math.pi)


@dataclass(frozen=True)
class TruncatedGaussian:
    """The family A(c) exp(-(x - c)^2 / (2 nu)) restricted to [0, inf)."""

    c: float
    nu: float

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"diffusion parameter must be positive, got {self.nu}")

    @property
    def scaled_shift(self) -> float:
        return self.c / math.sqrt(2.0 * self.nu)

    @property
    def log_normalizer(self) -> float:
        """log A(c), through log_retained_mass: A itself overflows once the
        retained mass 1 + erf(t) underflows, from t = c / sqrt(2 nu) of
        about -26.6 down."""
        return math.log(2.0 / math.sqrt(2.0 * math.pi * self.nu)) - log_retained_mass(
            self.scaled_shift
        )[0]

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(self.log_normalizer - (x - self.c) ** 2 / (2.0 * self.nu))
        return float(out) if out.ndim == 0 else out

    @property
    def mean(self) -> float:
        _, d1, _ = log_retained_mass(self.scaled_shift)
        return self.c + math.sqrt(self.nu / 2.0) * d1

    def discretize(self, grid: Grid) -> Density:
        """Sample onto a grid and renormalize under its quadrature."""
        return Density.normalized(grid, self.density(grid.nodes))


def truncated_gaussian_energy(c: float, nu: float, g: float = 0.0) -> float:
    """Energy of the shift-c member under quadratic attraction and gravity g."""
    if not nu > 0:
        raise ValueError(f"diffusion parameter must be positive, got {nu}")
    t = c / math.sqrt(2.0 * nu)
    value, d1, _ = log_retained_mass(t)
    base = nu * math.log(2.0 / math.sqrt(2.0 * math.pi * nu)) - nu * (
        value + 0.25 * d1 * d1
    )
    return base + g * (math.sqrt(nu / 2.0) * d1 + math.sqrt(2.0 * nu) * t)


def truncated_gaussian_energy_derivative(c: float, nu: float, g: float = 0.0) -> float:
    """d/dc of the family energy; g = 0 makes this negative everywhere.

    The derivative is (1 + f''/2) (g - sqrt(nu/2) f') with f = log(1 + erf)
    at t = c / sqrt(2 nu).  Since f' > 0 and 1 + f''/2 > 0 (see
    log_retained_mass), it is negative whenever g = 0.  In the far left tail
    1 + f''/2 is taken from _left_tail, so the sign survives rounding.
    """
    t = c / math.sqrt(2.0 * nu)
    _, d1, d2 = log_retained_mass(t)
    spread = _left_tail(-t)[1] if t <= -_CF_START else 1.0 + 0.5 * d2
    return spread * (g - math.sqrt(nu / 2.0) * d1)


def solve_critical_shift(nu: float, g: float) -> float:
    """Solve f'(c / sqrt(2 nu)) = sqrt(2/nu) g for the unique critical shift.

    The left side is smooth, positive and strictly decreasing with range
    (0, inf), so a root exists and is unique for every g > 0; it is found by
    outward bracket doubling followed by bisection until the residual in
    function value is at most _SHIFT_VALUE_TOL.  For g = 0 there is no root
    (the family energy decreases forever), which is reported as an error.
    """
    if not nu > 0:
        raise ValueError(f"diffusion parameter must be positive, got {nu}")
    if not g > 0:
        raise ValueError(
            "no critical shift exists for g <= 0: the energy on the "
            "truncated-Gaussian family has no stationary point"
        )
    target = math.sqrt(2.0 / nu) * g

    def d1(t: float) -> float:
        return log_retained_mass(t)[1]

    lo, hi = -1.0, 1.0
    while d1(lo) < target:
        lo *= 2.0
        if lo < -1e9:
            raise RuntimeError("bracket expansion failed on the left")
    while d1(hi) > target:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("bracket expansion failed on the right")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = d1(mid)
        if abs(val - target) <= _SHIFT_VALUE_TOL:
            return math.sqrt(2.0 * nu) * mid
        if val > target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        f"bisection stalled at interval [{lo}, {hi}] without reaching "
        f"|f' - target| <= {_SHIFT_VALUE_TOL}"
    )


def exact_minimizer(nu: float, g: float) -> TruncatedGaussian:
    """The unique critical point for quadratic attraction plus gravity g > 0.

    Its density at the origin equals g / nu, the exact boundary identity on
    the half-line.
    """
    return TruncatedGaussian(c=solve_critical_shift(nu, g), nu=nu)


class UnitIntervalState:
    """Limit state of ever-harder power-law attraction: supported on a unit
    interval and proportional to exp(-V/nu) there."""

    def __init__(self, potential: ExternalPotential, nu: float, support_start: float = 0.0):
        if not nu > 0:
            raise ValueError(f"diffusion parameter must be positive, got {nu}")
        self.potential = potential
        self.nu = nu
        self.support_start = float(support_start)
        # Normalizer over the support, by fine trapezoid quadrature; exact
        # closed forms exist for the zero and linear cases but the generic
        # path keeps tabulated potentials usable.
        xs = np.linspace(self.support_start, self.support_start + 1.0, 20001)
        vals = np.exp(-np.asarray(potential(xs), dtype=float) / nu)
        dx = xs[1] - xs[0]
        self._scale = float((vals.sum() - 0.5 * (vals[0] + vals[-1])) * dx)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.support_start) & (x <= self.support_start + 1.0)
        out = np.zeros_like(x)
        if np.any(inside):
            v = np.asarray(self.potential(x[inside]), dtype=float)
            out[inside] = np.exp(-v / self.nu) / self._scale
        return float(out) if out.ndim == 0 else out

    def discretize(self, grid: Grid) -> Density:
        return Density.normalized(grid, self.density(grid.nodes))


def unit_interval_limit_state(
    potential: ExternalPotential, nu: float, support_start: float = 0.0
) -> UnitIntervalState:
    """Generator of the compactly supported limit state (see UnitIntervalState)."""
    return UnitIntervalState(potential, nu, support_start)
