"""Quadrature grids on [0, L], densities, and discrete convolution.

Everything downstream (energies, the Gibbs map, diagnostics) integrates with
the trapezoid weights defined here, so the discrete fixed point of the Gibbs
map is a critical point of the discrete energy.

The convolution K * rho is a dense matrix-vector product, except on uniform
grids of at least 512 nodes: there it is a real FFT product with the kernel
spectrum computed once per operator, through NumPy's pocketfft (`numpy.fft`,
the same C++ code as `scipy.fft`; the package loads no SciPy).
FFT roundoff is spread over every node in proportion to max|K|, so the lags
are first clipped to a cap proportional to the diffusion parameter nu, above
which the Gibbs image cannot see them; `KernelOperator` derives the cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.fft import irfft, rfft

if TYPE_CHECKING:
    from .potentials import InteractionKernel

# Mass tolerance for a valid probability density under the grid quadrature.
MASS_TOL = 1e-10

# Uniform grids at least this large use the FFT convolution path.  With one
# BLAS thread on a 2-core x86-64 machine the dense product and the
# cached-spectrum rFFT product cross over between N = 384 and N = 512
# (at N = 1024: 430 us dense, 76 us rFFT).
_FFT_THRESHOLD = 512

# Roundoff of the FFT product on each node per unit of max|K| over the lags,
# kappa eps with kappa at most 3.9 (clipped power laws on kplarge solutions
# at N = 1024 and 4096, against an extended-precision dense product).
_FFT_ROUNDOFF = 4 * np.finfo(float).eps

# The largest perturbation kappa eps C / nu of the Gibbs exponent that the cap
# C may cause: a thousandth of the solver's default tolerance.
_EXPONENT_ROUNDOFF = 1e-9

# The dense operator is filled in row blocks of about this many entries
# (512 kB per temporary), so a build holds the N×N matrix plus one block of
# displacements, kernel values and mask, where a whole-matrix build held four
# N×N arrays: one quadratic N = 2048 build grows the peak RSS by 1.01 times
# its 32 MiB matrix, against 2.95 times whole.  On a 2-core x86-64 machine a
# quadratic N = 1024 build with p = 2 took 5.9 ms at 2^16 entries, 6.0-6.2 ms
# at 2^14 or 2^18, 8.4 ms at 2^12 (per-block overhead) and 12-15 ms at 2^20 or
# whole (temporaries beyond the cache).
_BUILD_BLOCK = 2**16


def _next_fast_len(target: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c at or above target: a length
    that pocketfft transforms with its fastest radices."""
    best = 1 << max(target - 1, 0).bit_length()  # the power of two at or above
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            n = p35
            while n < target:
                n *= 2
            best = min(best, n)
            p35 *= 3
        p5 *= 5
    return best


def _kernel_cap(nu: float) -> float:
    """The cap C on |K| over the FFT lags at diffusion nu (`KernelOperator`)."""
    return _EXPONENT_ROUNDOFF / _FFT_ROUNDOFF * nu


class SpacingMode(enum.Enum):
    """Node placement on [0, L]."""

    UNIFORM = "uniform"
    QUADRATIC = "quadratic"  # x_i = L (i/(N-1))^2, clusters nodes at x = 0


@dataclass(frozen=True)
class Grid:
    """The `size`-node grid on [0, `length`] in spacing `mode`, with trapezoid
    weights: equality and hashing follow these three values, and `nodes` and
    `weights` are computed from them.

    `mode` is a SpacingMode or its name ("uniform" or "quadratic").  Uniform
    mode places x_i = L*i/(N-1), the spacing the FFT path assumes; quadratic
    mode places x_i = L*(i/(N-1))^2, concentrating resolution at the x = 0
    boundary.  `length` must be positive and finite and `size` an integer of
    at least 3.
    """

    length: float
    size: int
    mode: SpacingMode
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            mode = SpacingMode(self.mode)
        except ValueError:
            raise ValueError(
                f"unknown grid mode {self.mode!r}; use 'uniform' or 'quadratic'"
            ) from None
        length, n = float(self.length), self.size
        if not 0 < length < math.inf:
            raise ValueError(f"grid length must be positive and finite, got {length!r}")
        if not isinstance(n, (int, np.integer)) or n < 3:
            raise ValueError(f"grid size n must be an integer of at least 3, got {n!r}")
        s = np.arange(n, dtype=float) / (n - 1)
        nodes = length * s if mode is SpacingMode.UNIFORM else length * s * s
        gaps = np.diff(nodes)
        weights = np.empty(n)
        weights[0] = gaps[0] / 2
        weights[-1] = gaps[-1] / 2
        weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2
        for name, value in (("length", length), ("size", int(n)), ("mode", mode),
                            ("nodes", nodes), ("weights", weights)):
            object.__setattr__(self, name, value)

    @property
    def is_uniform(self) -> bool:
        return self.mode is SpacingMode.UNIFORM


def make_grid(length: float, n: int, mode: SpacingMode | str = SpacingMode.UNIFORM) -> Grid:
    """The n-node grid on [0, length] in spacing `mode` (see `Grid`)."""
    return Grid(length, n, mode)


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid integral of a grid function: sum_i w_i f_i."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(
            f"grid function has {values.shape} values for {grid.size} nodes"
        )
    return float(grid.weights @ values)


def check_density(grid: Grid, values: np.ndarray) -> None:
    """Raise ValueError unless `values` is a nonnegative grid function of unit
    mass within MASS_TOL: what makes a `Density`, checked on a raw array."""
    if values.shape != grid.nodes.shape:
        raise ValueError(f"density has {values.shape} values for {grid.size} nodes")
    # one reduction decides a valid array; a NaN fails it, and then only a
    # negative value gives this error (a NaN gives the mass error below)
    if not values.min() >= 0 and np.any(values < 0):
        raise ValueError("density values must be nonnegative")
    mass = float(grid.weights @ values)
    if not abs(mass - 1.0) <= MASS_TOL:
        raise ValueError(f"density mass {mass!r} differs from 1 by more than {MASS_TOL}")


@dataclass(frozen=True)
class Density:
    """Nonnegative grid function with unit mass under the grid quadrature."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        check_density(self.grid, self.values)

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
    """Precomputed discrete convolution u_i = sum_j w_j K(x_i - x_j) v_j for the
    Gibbs map at diffusion nu.

    Building the operator evaluates the kernel once; applying it afterwards is
    a matrix-vector product, or an FFT product on uniform grids of at least
    512 nodes.  There the displacement matrix is Toeplitz, so the sum is a
    linear convolution with the 2N-1 kernel lags, whose real spectrum is
    cached at build time after the lags are clipped to [-C, C], with
    C = 1e-9 nu / (4 eps), about 1.1e6 nu (`_kernel_cap`).  A kernel with
    max|K| <= C is not clipped, and its FFT product is the plain one.

    The dense matrix is filled in row blocks of about 2^16 entries
    (`_BUILD_BLOCK`), each the same products as over the whole matrix, so a
    build's peak is the matrix plus one block: `swarmeq experiment kp2 --set
    N=4096 --set 'g=[0.1]'` peaks at 161 MB where a whole-matrix build peaked
    at 416 MB, and takes 0.20 s against 0.35 s (medians of 7 runs, 2-core
    x86-64 machine).

    Why C is proportional to nu.  The dense product is exact node by node; the
    FFT product has an error of about kappa eps max|K| on every node, with
    kappa at most 3.9 measured at N = 1024 and 4096.  The Gibbs map reads
    u = K * rho + V only through exp(-(u - min u) / nu), so an error d in u
    moves the image by d / nu relatively, and its L1 residual by about as much.

    Upper bound, from roundoff: kappa eps C / nu is held at 1e-9, a thousandth
    of the default solver tolerance of 1e-6.  It must stay well below nu * tol,
    not just below it, because every step also compares energies, whose
    roundoff grows with C: at nu = 2^-6 a cap of 1e5 took kplarge p = 256 to
    1325 iterations and 1e6 left it at N_max.

    Lower bound, from the floor: clipping lowers u_i only through lags above C,
    and the capped lags still add C times the mass beyond them.  So it changes
    no exponent the map keeps while the support spans no lag above C and every
    node that does reach mass across such a lag has u_i - min u of at least
    -F nu with the cap as without it, where F = -600 is the exponent floor of
    the Gibbs map.  Both conditions scale with nu.  On the kplarge solutions
    (p = 16 to 256 on [0, 4], N = 1024, nu = 2^-4, 2^-6 and 2^-9, solved with
    the dense product) the smallest cap that keeps the exponents on the
    support to 1e-12 is at most 5.1e4 nu, and the smallest that keeps every
    floored node at the floor is at most 1.5e5 nu, or 8.0e5 nu for p = 256 at
    nu = 2^-4.  Those caps were measured at F = -700.  The condition only
    weakens as F rises, since u_i - min u >= 700 nu implies >= 600 nu, and
    tests/test_grid.py checks the clipped image at F = -600.

    Both bounds are linear in nu, so one ratio C / nu meets them at every nu.
    The lower bound assumes that K stays well below C over the lags within the
    support: a kernel shifted by a constant above C, which has the same
    critical points, needs the shift removed first.  nu = inf gives C = inf,
    the exact kernel, for a convolution that feeds no Gibbs map.
    """

    def __init__(self, grid: Grid, kernel: "InteractionKernel", nu: float):
        if not nu > 0:
            raise ValueError(f"diffusion parameter must be positive, got {nu}")
        self.grid = grid
        self._matrix = None
        n = grid.size
        if grid.is_uniform and n >= _FFT_THRESHOLD:
            lags = np.arange(-(n - 1), n) * (grid.length / (n - 1))
            kvals = np.asarray(kernel(lags), dtype=float)
            _check_finite(kvals, lags)
            self._peak = float(np.max(np.abs(kvals)))
            self._cap = _kernel_cap(nu)
            # a circular convolution of length >= 2N-1 leaves outputs
            # N-1 .. 2N-2 of the linear one free of wrap-around
            self._fft_len = _next_fast_len(2 * n - 1)
            self._spectrum = rfft(np.clip(kvals, -self._cap, self._cap), self._fft_len)
            return
        # each block's displacements, kernel values and mask are made and
        # dropped in turn, and each entry is the same product as over the whole
        # matrix; blocks run in row order, so the first non-finite value found
        # is the first in row-major order, as a whole-matrix scan finds it
        nodes, weights = grid.nodes, grid.weights
        self._matrix = np.empty((n, n))
        rows = max(1, _BUILD_BLOCK // n)
        for a in range(0, n, rows):
            disp = nodes[a : a + rows, None] - nodes[None, :]
            kvals = np.asarray(kernel(disp), dtype=float)
            _check_finite(kvals, disp)
            np.multiply(kvals, weights[None, :], out=self._matrix[a : a + rows])

    def serves(self, nu: float) -> bool:
        """Whether this operator is the one built for diffusion nu: the dense
        product serves every nu, the FFT product every nu whose cap clips the
        lags as this one's does."""
        if self._matrix is not None:
            return True
        cap = _kernel_cap(nu)
        return cap == self._cap or self._peak <= min(cap, self._cap)

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
            f"kernel evaluated to a non-finite value at displacement {float(d)!r}"
        )


def convolve_kernel(grid: Grid, kernel: "InteractionKernel", rho: Density) -> np.ndarray:
    """Trapezoid discretization of (K * rho)(x_i) over [0, L].

    One-off convenience with the exact kernel (no cap), so on uniform grids
    of at least 512 nodes its error is about 4 eps max|K| on every node;
    iterative callers should build a KernelOperator once and reuse it.
    """
    return KernelOperator(grid, kernel, math.inf).apply(rho.values)
