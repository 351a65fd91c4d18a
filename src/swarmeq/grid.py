"""Quadrature grids on [0, L], densities, and discrete convolution.

Everything downstream (energies, the Gibbs map, diagnostics) integrates with
the trapezoid weights defined here, so the discrete fixed point of the Gibbs
map is a critical point of the discrete energy.

The convolution K * rho is a dense matrix-vector product, except on uniform
grids of at least 512 nodes whose kernel is at most 1e6 in magnitude: there
it is a real FFT product with the kernel spectrum computed once per operator.
FFT roundoff is spread over every node in proportion to max|K|, so harder
kernels keep the dense product, which is exact to roundoff node by node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

if TYPE_CHECKING:
    from .potentials import InteractionKernel

# Mass tolerance for a valid probability density under the grid quadrature.
MASS_TOL = 1e-10

# Uniform grids at least this large use the FFT convolution path.  With one
# BLAS thread on a 2-core x86-64 machine the dense product and the
# cached-spectrum rFFT product cross over between N = 384 and N = 512
# (at N = 1024: 430 us dense, 76 us rFFT).
_FFT_THRESHOLD = 512

# The FFT path is taken only when max|K| over the grid lags is at most this.
# Its roundoff is about 2e-16 * max|K| on every node (measured at N = 4096),
# so this bounds it near 2e-10, which moves the density about 1e-8 relative at
# nu = 2**-6.  Harder kernels (power laws with p >= 16 on [0, 4]) would lose
# the small values of K * rho where the density lives, and stay dense.
_FFT_MAX_KERNEL = 1e6


class SpacingMode(enum.Enum):
    """Node placement on [0, L]."""

    UNIFORM = "uniform"
    QUADRATIC = "quadratic"  # x_i = L (i/(N-1))^2, clusters nodes at x = 0


@dataclass(frozen=True)
class Grid:
    """Quadrature nodes ``0 = x_0 < ... < x_{N-1} = L`` with trapezoid weights."""

    nodes: np.ndarray
    weights: np.ndarray
    length: float
    mode: SpacingMode

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if not np.all(self.weights > 0):
            raise ValueError("all quadrature weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def is_uniform(self) -> bool:
        return self.mode is SpacingMode.UNIFORM


def make_grid(length: float, n: int, mode: SpacingMode = SpacingMode.UNIFORM) -> Grid:
    """Build an n-node grid on [0, length] with trapezoid weights.

    Uniform mode places x_i = L*i/(N-1); quadratic mode places
    x_i = L*(i/(N-1))^2, concentrating resolution at the x = 0 boundary.
    """
    if not length > 0:
        raise ValueError(f"domain length must be positive, got {length}")
    if n < 3:
        raise ValueError(f"need at least 3 quadrature nodes, got {n}")
    s = np.arange(n, dtype=float) / (n - 1)
    if mode is SpacingMode.UNIFORM:
        nodes = length * s
    elif mode is SpacingMode.QUADRATIC:
        nodes = length * s * s
    else:
        raise ValueError(f"unknown spacing mode {mode!r}")
    gaps = np.diff(nodes)
    weights = np.empty(n)
    weights[0] = gaps[0] / 2
    weights[-1] = gaps[-1] / 2
    weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2
    return Grid(nodes=nodes, weights=weights, length=float(length), mode=mode)


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid integral of a grid function: sum_i w_i f_i."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"grid function has {values.shape} values for {grid.size} nodes"
        )
    return float(grid.weights @ values)


@dataclass(frozen=True)
class Density:
    """Nonnegative grid function with unit mass under the grid quadrature."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"density has {self.values.shape} values for {self.grid.size} nodes"
            )
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")
        mass = float(self.grid.weights @ self.values)
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ValueError(
                f"density mass {mass!r} differs from 1 by more than {MASS_TOL}"
            )

    @classmethod
    def normalized(cls, grid: Grid, values: np.ndarray) -> "Density":
        """Rescale nonnegative values to unit mass and wrap them."""
        values = np.asarray(values, dtype=float)
        if np.any(~np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        mass = float(grid.weights @ values)
        if mass <= 0:
            raise ValueError("cannot normalize a density with zero total mass")
        return cls(grid=grid, values=values / mass)

    @property
    def mass(self) -> float:
        return float(self.grid.weights @ self.values)


def indicator_density(grid: Grid, lo: float, hi: float) -> Density:
    """Normalized indicator of [lo, hi] sampled on the grid nodes."""
    values = ((grid.nodes >= lo) & (grid.nodes <= hi)).astype(float)
    return Density.normalized(grid, values)


class KernelOperator:
    """Precomputed discrete convolution u_i = sum_j w_j K(x_i - x_j) v_j.

    Building the operator evaluates the kernel once; applying it afterwards is
    a matrix-vector product, or an FFT product on uniform grids of at least
    512 nodes.  There the displacement matrix is Toeplitz, so the sum is a
    linear convolution with the 2N-1 kernel lags, whose real spectrum is
    cached at build time.  The FFT path needs max|K| over the lags to be at
    most 1e6: its roundoff, about 2e-16 * max|K| on every node, would swamp
    the small values of K * rho on the support of a density under a harder
    kernel, which therefore keeps the dense product.
    """

    def __init__(self, grid: Grid, kernel: "InteractionKernel"):
        self.grid = grid
        self._matrix = None
        n = grid.size
        if grid.is_uniform and n >= _FFT_THRESHOLD:
            lags = np.arange(-(n - 1), n) * (grid.length / (n - 1))
            kvals = np.asarray(kernel(lags), dtype=float)
            _check_finite(kvals, lags)
            if np.max(np.abs(kvals)) <= _FFT_MAX_KERNEL:
                # a circular convolution of length >= 2N-1 leaves outputs
                # N-1 .. 2N-2 of the linear one free of wrap-around
                self._fft_len = next_fast_len(2 * n - 1, real=True)
                self._spectrum = rfft(kvals, self._fft_len)
                return
        disp = grid.nodes[:, None] - grid.nodes[None, :]
        kmat = np.asarray(kernel(disp), dtype=float)
        _check_finite(kmat, disp)
        self._matrix = kmat * grid.weights[None, :]

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"grid function has {values.shape} values for {self.grid.size} nodes"
            )
        if self._matrix is not None:
            return self._matrix @ values
        n = self.grid.size
        wv = rfft(self.grid.weights * values, self._fft_len)
        return irfft(self._spectrum * wv, self._fft_len)[n - 1 : 2 * n - 1]


def _check_finite(kvals: np.ndarray, displacements: np.ndarray) -> None:
    bad = ~np.isfinite(kvals)
    if np.any(bad):
        where = np.argwhere(bad)[0]
        d = displacements[tuple(where)]
        raise ValueError(
            f"kernel evaluated to a non-finite value at displacement {d!r}"
        )


def convolve_kernel(grid: Grid, kernel: "InteractionKernel", rho: Density) -> np.ndarray:
    """Trapezoid discretization of (K * rho)(x_i) over [0, L].

    One-off convenience; iterative callers should build a KernelOperator once
    and reuse it.
    """
    return KernelOperator(grid, kernel).apply(rho.values)
