"""Monte-Carlo estimation of the effective volume dimension of a domain.

The largest volume of the domain intersected with a ball of radius r grows
like r^s for some exponent s between 0 (bounded domains) and the ambient
dimension; s counts the orthogonal directions extending independently to
infinity and enters the sharp diffusion-vs-attraction existence threshold.
The estimator samples uniformly inside balls around caller-chosen probe
centres and fits the growth exponent on a log-log scale.  The (radius,
probe) task t of every domain reads the same random stream t, and a stream's
points in dimension d are built from a prefix of the normals it gives in a
higher dimension.  So a batch of domains (`estimate_volume_profiles`) makes
one generator per stream and draws its normals once, for the largest
dimension that reads it; every task that reads the stream places and counts
the points chunk by chunk, column by column, in a scratch buffer.  Memory
traffic stays in cache, and the draws are shared instead of repeated per
domain or per dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class DomainSpec:
    """A domain given by its indicator plus probe points known to lie inside.

    indicator maps an (n, dim) array of points to a boolean (or 0/1) array,
    row by row: the sampler calls it on one chunk of a ball's points at a time.
    """

    dim: int
    indicator: Callable[[np.ndarray], np.ndarray]
    probe_centers: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"domain dimension dim must be at least 1, got {self.dim}")
        centers = np.asarray(self.probe_centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] == 0:
            raise ValueError(
                f"probe centers must be a non-empty (k, {self.dim}) array, "
                f"got shape {centers.shape}"
            )
        if centers.shape[1] != self.dim:
            raise ValueError(
                f"probe centers have dimension {centers.shape[1]}, domain has {self.dim}"
            )
        object.__setattr__(self, "probe_centers", centers)
        inside = np.asarray(self.indicator(centers), dtype=bool)
        if not inside.all():
            bad = centers[~inside][0]
            raise ValueError(f"probe center {bad!r} is not inside the domain")


@dataclass(frozen=True)
class VolumeProfile:
    """Estimated intersected volumes over a set of radii."""

    radii: np.ndarray
    volumes: np.ndarray
    stderr: np.ndarray


def ball_volume(radius: float, dim: int) -> float:
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * radius**dim


# Rows per pass of the sampler: its two (rows, dim) scratch buffers take a few
# hundred kB, so every step of a pass runs in cache.
_CHUNK = 8192


def _sum_of_squares(points: np.ndarray) -> np.ndarray:
    """Row sums of squares in the order `np.linalg.norm` and `np.sum` use.

    NumPy adds fewer than 8 terms left to right, so the sum is built column
    by column, which reads each column once; from 8 columns (and for none)
    NumPy's own row reduction gives its pairwise order.
    """
    if not 0 < points.shape[1] < 8:
        return np.add.reduce(points * points, axis=1)
    total = points[:, 0] * points[:, 0]
    for k in range(1, points.shape[1]):
        total += points[:, k] * points[:, k]
    return total


def estimate_volume_profile(
    spec: DomainSpec,
    radii: Sequence[float],
    samples_per_radius: int,
    seed: int = 0,
) -> VolumeProfile:
    """Estimate the largest ball-intersected volume at each radius.

    For every radius and probe centre, the intersected volume is the hit
    fraction of uniform samples in the ball times the ball volume; the
    profile keeps the maximum over probes.  Standard errors come from the
    binomial variance of the hit fraction.  Sampling is deterministic per
    seed, with independent streams per (radius, probe) task: task
    `t = i * n_probes + j` reads child t of `SeedSequence(seed)`, which does
    not depend on the domain.  This is a batch of one domain,
    `estimate_volume_profiles([(spec, radii)], ...)[0]`; that function says
    how the points are drawn and counted.
    """
    return estimate_volume_profiles([(spec, radii)], samples_per_radius, seed)[0]


def estimate_volume_profiles(
    domains: Sequence[tuple[DomainSpec, Sequence[float]]],
    samples_per_radius: int,
    seed: int = 0,
) -> list[VolumeProfile]:
    """`estimate_volume_profile` of each `(spec, radii)`, sharing the draws.

    A sample is `center + radius * u**(1/dim) * g / |g|` for a standard
    normal row g and a uniform u.  Stream t gives task t of a dim-dimensional
    domain its first `dim * n` normals, then n uniforms, whatever the domain.
    So each stream has one generator, and the dimensions that read it are
    taken in ascending order: the normals are drawn on from where the last
    dimension stopped, into one buffer sized for the largest dimension, and
    the uniforms are drawn with the generator's state saved and restored, so
    the next dimension's normals follow the last ones.  Then, chunk by chunk,
    the directions `g / |g|` are written column by column to a scratch
    buffer (the raw normals stay for the next dimension) and `u**(1/dim)` is
    taken in place, once; every (domain, radius, probe) task that reads the
    stream places the chunk, column by column, in another scratch buffer and
    counts its hits there.  The indicator sees only that buffer, so one that
    writes into its argument cannot change another task's points.

    Each profile equals its domain's whole-task draw bit for bit: NumPy's
    normal fill takes the same draws in the same order whether it fills a
    buffer in one call or in two, so the buffers hold the values of
    `standard_normal((n, dim))` and `random(n)`; each step is the same
    elementwise operation on the same operands (`_sum_of_squares` keeps
    NumPy's summation order), so the points are identical row for row; the
    indicator acts row by row, and the hit count over the sample count is
    the mean of the indicator, exactly.  The maximum over probes is taken in
    probe order, as for a single domain.
    """
    tasks = []  # (spec, radii, hit counts by radius and probe)
    for spec, radii in domains:
        radii = np.asarray(radii, dtype=float)
        if not np.all(np.isfinite(radii) & (radii > 0)):
            raise ValueError(f"radii must be positive and finite, got {radii.tolist()}")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        tasks.append((spec, radii, [[0] * spec.probe_centers.shape[0] for _ in radii]))
    if not isinstance(samples_per_radius, (int, np.integer)):
        raise TypeError(
            f"samples_per_radius must be an integer, got {samples_per_radius!r}"
        )
    if samples_per_radius < 10_000:
        raise ValueError(
            f"need at least 10^4 samples per radius, got {samples_per_radius}"
        )
    n = int(samples_per_radius)
    n_streams = max((r.size * s.probe_centers.shape[0] for s, r, _ in tasks), default=0)
    streams = np.random.SeedSequence(seed).spawn(n_streams)
    max_dim = max((spec.dim for spec, _, _ in tasks), default=0)
    normals = np.empty(n * max_dim)
    uniforms = np.empty(n)
    directions = np.empty(_CHUNK * max_dim)
    placed = np.empty(_CHUNK * max_dim)
    scale = np.empty(_CHUNK)
    for t, stream in enumerate(streams):
        readers = {}  # dim -> (spec, radius, probe, hits row) of each task t
        for spec, radii, hits in tasks:
            i, j = divmod(t, spec.probe_centers.shape[0])
            if i < radii.size:
                readers.setdefault(spec.dim, []).append((spec, radii[i], j, hits[i]))
        rng = np.random.default_rng(stream)
        drawn = 0
        for dim in sorted(readers):
            # a task in dim reads the stream's first dim * n normals, then n
            # uniforms: the uniforms leave the state where the normals stop
            rng.standard_normal(out=normals[drawn * n:dim * n])
            drawn = dim
            state = rng.bit_generator.state
            rng.random(out=uniforms)
            rng.bit_generator.state = state
            points = normals[:n * dim].reshape(n, dim)
            for start in range(0, n, _CHUNK):
                rows = points[start:start + _CHUNK]
                c = rows.shape[0]
                dirs = directions[:c * dim].reshape(c, dim)
                x = placed[:c * dim].reshape(c, dim)
                s = scale[:c]
                norm = np.sqrt(_sum_of_squares(rows))
                for k in range(dim):
                    np.divide(rows[:, k], norm, out=dirs[:, k])
                u = uniforms[start:start + c]
                u **= 1.0 / dim
                for spec, r, j, row in readers[dim]:
                    center = spec.probe_centers[j]
                    np.multiply(u, r, out=s)
                    for k in range(dim):
                        np.multiply(dirs[:, k], s, out=x[:, k])
                        x[:, k] += center[k]
                    row[j] += np.count_nonzero(np.asarray(spec.indicator(x), dtype=bool))
    profiles = []
    for spec, radii, hits in tasks:
        volumes = np.empty(radii.size)
        stderr = np.empty(radii.size)
        for i, r in enumerate(radii):
            best_vol = -math.inf
            best_err = math.nan
            vball = ball_volume(float(r), spec.dim)
            for count in hits[i]:
                frac = count / n
                vol = frac * vball
                err = vball * math.sqrt(frac * (1 - frac) / n)
                if vol > best_vol:
                    best_vol, best_err = vol, err
            volumes[i] = best_vol
            stderr[i] = best_err
        profiles.append(VolumeProfile(radii=radii, volumes=volumes, stderr=stderr))
    return profiles


def estimate_effective_dimension(profile: VolumeProfile) -> float:
    """Least-squares slope of log V against log r over the largest decade of
    radii: the finite surrogate of the asymptotic growth exponent.

    A radius of the window whose sample had no hit (V estimated as 0, when
    the domain's share of the ball is below about one in `samples`) has no
    logarithm, so the fit leaves it out; fewer than two radii with a hit in
    the window is a degenerate profile."""
    radii = profile.radii
    if radii.size < 3 or radii[-1] / radii[0] < 10:
        raise ValueError("need at least 3 radii spanning at least one decade")
    window = radii >= radii[-1] / 10 * (1 - 1e-12)
    if window.sum() < 2:
        window = np.ones_like(window, dtype=bool)
    window &= profile.volumes > 0
    if window.sum() < 2:
        raise ValueError(
            "degenerate volume profile: fewer than two radii with a hit in the window"
        )
    slope = np.polyfit(np.log(radii[window]), np.log(profile.volumes[window]), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# Built-in domain constructors
# ---------------------------------------------------------------------------


def box_domain(side_lengths: Sequence[float]) -> DomainSpec:
    """Axis-aligned box centred at the origin."""
    return slab_domain(side_lengths, free_dims=0)


def ball_domain(radius: float, dim: int) -> DomainSpec:
    def indicator(points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(points, axis=1) <= radius

    return DomainSpec(
        dim=dim,
        indicator=indicator,
        probe_centers=np.zeros((1, dim)),
    )


def ball_cylinder_domain(radius: float) -> DomainSpec:
    """Right circular cylinder: a disk of the given radius in (x, y), z free."""

    def indicator(points: np.ndarray) -> np.ndarray:
        return points[:, 0] ** 2 + points[:, 1] ** 2 <= radius * radius

    return DomainSpec(dim=3, indicator=indicator, probe_centers=np.zeros((1, 3)))


def half_space_domain(dim: int) -> DomainSpec:
    """Points with nonnegative last coordinate."""

    def indicator(points: np.ndarray) -> np.ndarray:
        return points[:, -1] >= 0

    return DomainSpec(dim=dim, indicator=indicator, probe_centers=np.zeros((1, dim)))


def slab_domain(side_lengths: Sequence[float], free_dims: int) -> DomainSpec:
    """Product of a centred box with free Euclidean directions: F x R^k."""
    sides = np.asarray(side_lengths, dtype=float)
    half = sides / 2
    m = sides.size
    dim = m + free_dims

    def indicator(points: np.ndarray) -> np.ndarray:
        # |x_k| <= half_k for every k < m, tested column by column
        inside = np.ones(points.shape[0], dtype=bool)
        for k in range(m):
            inside &= np.abs(points[:, k]) <= half[k]
        return inside

    return DomainSpec(dim=dim, indicator=indicator, probe_centers=np.zeros((1, dim)))


def wedge_domain(angle: float, probe_distance: float = 1.0) -> DomainSpec:
    """Planar wedge 0 <= y <= tan(angle) * x for an opening angle in (0, pi/2)."""
    if not 0 < angle < math.pi / 2:
        raise ValueError(f"wedge angle must lie in (0, pi/2), got {angle}")
    slope = math.tan(angle)

    def indicator(points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        return (x >= 0) & (y >= 0) & (y <= slope * x)

    probe = np.array([[probe_distance, slope * probe_distance / 2]])
    return DomainSpec(dim=2, indicator=indicator, probe_centers=probe)


def paraboloid_domain(dim: int, probe_height: float = 1.0) -> DomainSpec:
    """Region above the paraboloid: last coordinate at least |rest|^2."""

    def indicator(points: np.ndarray) -> np.ndarray:
        return points[:, -1] >= _sum_of_squares(points[:, :-1])

    probe = np.zeros((1, dim))
    probe[0, -1] = probe_height
    return DomainSpec(dim=dim, indicator=indicator, probe_centers=probe)
