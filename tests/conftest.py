"""Shared test helpers: trivial kernels and independent special-function oracles."""

import math

import numpy as np
import pytest

from swarmeq import TabulatedKernel
from swarmeq.gibbs import DEFAULT_CLAMP_FLOOR


def zero_kernel(reach: float = 100.0) -> TabulatedKernel:
    """A kernel that is identically zero on [-reach, reach]."""
    return TabulatedKernel(displacements=[0.0, reach], values=[0.0, 0.0])


def erf_series_oracle(x: float, terms: int = 30) -> float:
    """Independent error-function oracle: Maclaurin series for small |x|,
    continued fraction for the complement at large |x| (30 levels each)."""
    ax = abs(x)
    if ax <= 2.0:
        total = 0.0
        term = ax
        for n in range(terms):
            total += term / (2 * n + 1)
            term *= -ax * ax / (n + 1)
        value = 2.0 / math.sqrt(math.pi) * total
    else:
        # Laplace continued fraction for erfc, evaluated bottom-up
        cf = 0.0
        for n in range(terms, 0, -1):
            cf = (n / 2.0) / (ax + cf)
        erfc = math.exp(-ax * ax) / math.sqrt(math.pi) / (ax + cf)
        value = 1.0 - erfc
    return -value if x < 0 else value


def brute_force_convolution(grid, kernel, values) -> np.ndarray:
    """Direct double loop over nodes; the reference for all fast paths."""
    n = grid.size
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += grid.weights[j] * kernel(grid.nodes[i] - grid.nodes[j]) * values[j]
        out[i] = acc
    return out


def exact_gibbs_image(problem, rho) -> tuple[np.ndarray, np.ndarray]:
    """(exponent, image) of the Gibbs map with the dense product of the exact
    kernel: the reference for the clipped FFT operator."""
    grid = rho.grid
    kmat = problem.kernel(grid.nodes[:, None] - grid.nodes[None, :])
    u = (kmat * grid.weights) @ rho.values + problem.v
    exponent = np.maximum(-(u - u.min()) / problem.nu, DEFAULT_CLAMP_FLOOR)
    values = np.exp(exponent)
    return exponent, values / (grid.weights @ values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
