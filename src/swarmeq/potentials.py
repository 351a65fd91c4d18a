"""Interaction kernels K and external potentials V.

All kernels are even by construction (they evaluate at |x|) and accept scalars
or numpy arrays.  Tabulated variants can be loaded from two-column CSV files.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


class InteractionKernel:
    """Base class for even interaction kernels; subclasses define __call__."""

    def __call__(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawKernel(InteractionKernel):
    """Purely attractive power law |x|^p / p."""

    p: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"power-law exponent p must be positive, got {self.p}")

    def __call__(self, x):
        ax, scalar = _as_array(np.abs(x))
        return _maybe_scalar(ax**self.p / self.p, scalar)


@dataclass(frozen=True)
class RegularizedQanrKernel(InteractionKernel):
    """Quadratic attraction with C^1-regularized Newtonian repulsion.

    K(x) = x^2/2 + 2*phi(x), where phi(x) = -|x| for |x| > eps and
    phi(x) = -eps/2 - x^2/(2 eps) for |x| <= eps.  The two branches match in
    value and slope at |x| = eps.
    """

    eps: float

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError(f"regularization width eps must lie in (0, 1], got {self.eps}")

    def __call__(self, x):
        ax, scalar = _as_array(np.abs(x))
        eps = self.eps
        phi = np.where(ax > eps, -ax, -eps / 2 - ax * ax / (2 * eps))
        return _maybe_scalar(ax * ax / 2 + 2 * phi, scalar)


@dataclass(frozen=True)
class ShiftedKernel(InteractionKernel):
    """A base kernel plus a constant offset (critical points are unchanged)."""

    base: InteractionKernel
    offset: float

    def __call__(self, x):
        ax, scalar = _as_array(x)
        return _maybe_scalar(np.asarray(self.base(ax), dtype=float) + self.offset, scalar)


@dataclass(frozen=True)
class TabulatedKernel(InteractionKernel):
    """Kernel interpolated linearly from (displacement, value) samples.

    Evaluation uses |x|; displacements outside the tabulated range raise.
    """

    displacements: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        d, v = _sorted_table(self.displacements, self.values)
        object.__setattr__(self, "displacements", d)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TabulatedKernel":
        d, v = _read_two_column_csv(path)
        return cls(displacements=d, values=v)

    def __call__(self, x):
        ax, scalar = _as_array(np.abs(x))
        lo, hi = self.displacements[0], self.displacements[-1]
        if np.any(ax < lo) or np.any(ax > hi):
            raise ValueError(
                f"displacement outside tabulated range [{lo}, {hi}]"
            )
        return _maybe_scalar(np.interp(ax, self.displacements, self.values), scalar)


class ExternalPotential:
    """Base class for external potentials; subclasses define __call__."""

    def __call__(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroPotential(ExternalPotential):
    def __call__(self, x):
        ax, scalar = _as_array(x)
        return _maybe_scalar(np.zeros_like(ax), scalar)

    def derivative(self, x):
        return self(x)


@dataclass(frozen=True)
class LinearPotential(ExternalPotential):
    """Confining field g*x (gravity toward the x = 0 boundary)."""

    g: float

    def __post_init__(self):
        if not self.g >= 0:
            raise ValueError(f"linear potential slope g must be nonnegative, got {self.g}")

    def __call__(self, x):
        ax, scalar = _as_array(x)
        return _maybe_scalar(self.g * ax, scalar)

    def derivative(self, x):
        ax, scalar = _as_array(x)
        return _maybe_scalar(np.full_like(ax, self.g), scalar)


@dataclass(frozen=True)
class TabulatedPotential(ExternalPotential):
    """Potential interpolated linearly from (node, value) samples."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n, v = _sorted_table(self.nodes, self.values)
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TabulatedPotential":
        n, v = _read_two_column_csv(path)
        return cls(nodes=n, values=v)

    def _check_range(self, ax: np.ndarray) -> None:
        lo, hi = self.nodes[0], self.nodes[-1]
        if np.any(ax < lo) or np.any(ax > hi):
            raise ValueError(f"point outside tabulated range [{lo}, {hi}]")

    def __call__(self, x):
        ax, scalar = _as_array(x)
        self._check_range(ax)
        return _maybe_scalar(np.interp(ax, self.nodes, self.values), scalar)

    def derivative(self, x):
        ax, scalar = _as_array(x)
        self._check_range(ax)
        slopes = np.diff(self.values) / np.diff(self.nodes)
        idx = np.clip(np.searchsorted(self.nodes, ax, side="right") - 1,
                      0, slopes.size - 1)
        return _maybe_scalar(slopes[idx], scalar)


def _sorted_table(abscissae, values) -> tuple[np.ndarray, np.ndarray]:
    """Matching 1-d float tables of at least 2 finite entries, sorted by
    abscissa.  The sorted abscissae must strictly increase: at a repeated one
    linear interpolation jumps and a slope divides by zero."""
    x = np.asarray(abscissae, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != v.shape or x.size < 2:
        raise ValueError("need matching 1-d tables with at least 2 entries")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ValueError("tabulated entries must be finite")
    order = np.argsort(x)
    x, v = x[order], v[order]
    repeated = x[1:][np.diff(x) == 0]
    if repeated.size:
        raise ValueError(f"tabulated abscissa {float(repeated[0])!r} is repeated")
    return x, v


def _read_two_column_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(filter(None, csv.reader(fh))):  # skip blank lines
            try:
                x, y = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if i == 0:  # tolerate a single header line
                    continue
                raise ValueError(f"malformed row {row!r} in {path}")
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise ValueError(f"{path} must contain at least two data rows")
    return np.asarray(xs), np.asarray(ys)


class ExistenceRegime(enum.Enum):
    """Outcome of the asymptotic-growth classifier."""

    DIFFUSION_DOMINATED = "diffusion-dominated"
    GROWTH_SUFFICIENT = "growth-sufficient"
    INCONCLUSIVE = "inconclusive"


def classify_existence(
    kernel: InteractionKernel,
    nu: float,
    f_d: float,
    probe_radii: Sequence[float],
    band: float = 0.05,
) -> ExistenceRegime:
    """Compare the kernel's large-distance growth against the sharp threshold.

    Fits K(r) ~ a*log(r) + C over the probe radii by least squares and
    compares the slope a with 2*f_d*nu: attraction growing slower than the
    threshold means diffusion wins (no ground state); faster growth is
    sufficient for the energy to be bounded below.  A dead band of `band`
    around the sharp constant absorbs finite-probe ambiguity.  This is a
    numerical classifier, not a proof.
    """
    radii = np.asarray(probe_radii, dtype=float)
    if radii.size < 2:
        raise ValueError("need at least two probe radii")
    if np.any(np.diff(radii) <= 0) or radii[0] <= 1:
        raise ValueError("probe radii must be increasing and all > 1")
    kvals = np.asarray(kernel(radii), dtype=float)
    design = np.column_stack([np.log(radii), np.ones_like(radii)])
    slope = float(np.linalg.lstsq(design, kvals, rcond=None)[0][0])
    threshold = 2.0 * f_d * nu
    if slope < threshold * (1 - band):
        return ExistenceRegime.DIFFUSION_DOMINATED
    if slope > threshold * (1 + band):
        return ExistenceRegime.GROWTH_SUFFICIENT
    return ExistenceRegime.INCONCLUSIVE
