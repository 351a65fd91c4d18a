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
dimension that reads it.  Chunk by chunk, the directions are scaled once per
radius that reads the stream, and every task of that radius places them
around its probe in a column-major scratch buffer and adds their hits to its
cell of the domain's (radius, probe) hit array.  Memory traffic stays in
cache, and the draws are shared instead of repeated per domain or dimension.
Where two CPUs are usable, the calling thread and one helper thread take
whole streams in turn, so one stream's normal fill, which releases the GIL,
runs beside another stream's count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def _lengths(name: str, values) -> np.ndarray:
    """`values` as a float array whose entries are all positive and finite."""
    lengths = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(lengths) & (lengths > 0)):
        raise ValueError(f"{name} must be positive and finite, got {lengths.tolist()}")
    return lengths


def _is_integer(value) -> bool:
    """Whether `value` is a Python or NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_dim(dim) -> None:
    """Raise unless `dim` is an integer of at least 1."""
    if not _is_integer(dim):
        raise TypeError(f"domain dimension dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError(f"domain dimension dim must be at least 1, got {dim}")


@dataclass(frozen=True)
class DomainSpec:
    """A domain given by its indicator plus probe points known to lie inside.

    indicator maps an (n, dim) array of points to a boolean (or 0/1) array,
    row by row: the sampler calls it on one chunk of a ball's points at a time,
    a column-major view whose columns are contiguous.  (NumPy sums a row of 8
    or more entries in another order in that layout; `ball_domain` and
    `paraboloid_domain` sum in one order for either.)
    It may be called from two threads at once, on distinct arrays, so it must
    keep no shared mutable state (the built-in indicators keep none).
    """

    dim: int
    indicator: Callable[[np.ndarray], np.ndarray]
    probe_centers: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        # a copy: the caller's array may change after the probe check
        centers = np.array(self.probe_centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] == 0:
            raise ValueError(
                f"probe centers must be a non-empty (k, {self.dim}) array, "
                f"got shape {centers.shape}"
            )
        if centers.shape[1] != self.dim:
            raise ValueError(
                f"probe centers have dimension {centers.shape[1]}, domain has {self.dim}"
            )
        if not np.all(np.isfinite(centers)):
            raise ValueError(f"probe centers must be finite, got {centers.tolist()}")
        object.__setattr__(self, "probe_centers", centers)
        # on a copy: an indicator that writes into its argument keeps the probes
        inside = np.asarray(self.indicator(centers.copy()), dtype=bool)
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


# Rows per pass of the sampler.  A worker's three (3, rows) scratch buffers
# take 786 kB each and its two (rows,) buffers 262 kB, 2.9 MB in all; each
# step reads one block of 3 * rows doubles and writes another, 1.6 MB, which
# stays in a core's 2 MB L2 cache.  Every NumPy call on a chunk takes the GIL
# again: with two workers, the six effdim domains at 5 * 10^5 samples took
# 0.28 s at 16384 rows, 0.26 s at 32768 and 0.28 s at 65536 (medians of 15,
# sizes interleaved; 2-core x86-64 Xeon, 2 MB L2 a core).  On one worker the
# medians of two such runs were 0.32 and 0.43 s at 16384 rows, 0.34 and
# 0.37 s at 32768 and 0.38 and 0.45 s at 65536.
_CHUNK = 32768


def _sum_of_squares(points: np.ndarray) -> np.ndarray:
    """Row sums of squares in the order `np.linalg.norm` and `np.sum` use.

    NumPy adds fewer than 8 terms left to right, so the sum is built column
    by column, which reads each column once; from 8 columns (and for none)
    NumPy's own row reduction gives its pairwise order.  That order holds
    only along contiguous rows, so the squares are laid out row-major
    whatever the layout of `points` (the sampler passes column-major views).
    """
    if not 0 < points.shape[1] < 8:
        return np.add.reduce(np.multiply(points, points, order="C"), axis=1)
    total = points[:, 0] * points[:, 0]
    for k in range(1, points.shape[1]):
        total += points[:, k] * points[:, k]
    return total


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_stream(stream, plan, n, scratch) -> None:
    """Count the hits of the tasks that read one stream into their arrays.

    `plan` lists (dim, radii) in ascending dim, each radius an (r, readers)
    and each reader a (spec, hits, (i, j)) that adds probe j's hits to cell
    (i, j) of `hits`; `scratch` holds one worker's buffers: n * max_dim
    normals, three chunks of max_dim columns held column-major (directions,
    scaled directions, placed points) and two chunks of one.
    """
    normals, directions, scaled, placed, uniforms, scale = scratch
    rng = np.random.default_rng(stream)
    drawn = 0
    for dim, radii in plan:
        # a task in dim reads the stream's first dim * n normals, then n
        # uniforms: these are drawn on from where the normals stop, a chunk
        # at a time, and the state is restored after the last chunk
        rng.standard_normal(out=normals[drawn * n:dim * n])
        drawn = dim
        state = rng.bit_generator.state
        points = normals[:n * dim].reshape(n, dim)
        for start in range(0, n, _CHUNK):
            rows = points[start:start + _CHUNK]
            c = rows.shape[0]
            # (dim, c) buffers: each coordinate is one contiguous row
            dirs = directions[:dim * c].reshape(dim, c)
            r_dirs = scaled[:dim * c].reshape(dim, c)
            x = placed[:dim * c].reshape(dim, c)
            s = scale[:c]
            np.divide(rows.T, np.sqrt(_sum_of_squares(rows)), out=dirs)
            u = uniforms[:c]
            rng.random(out=u)
            u **= 1.0 / dim
            for r, readers in radii:
                np.multiply(u, r, out=s)
                np.multiply(dirs, s, out=r_dirs)
                for spec, hits, cell in readers:
                    # every reader places its points afresh: an indicator
                    # that writes into its argument changes no other task
                    np.add(r_dirs, spec.probe_centers[cell[1]][:, None], out=x)
                    hits[cell] += np.count_nonzero(np.asarray(spec.indicator(x.T), dtype=bool))
        rng.bit_generator.state = state


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
    the uniforms are drawn a chunk at a time with the generator's state
    saved before and restored after, so the next dimension's normals follow
    the last ones.  Chunk by chunk, the directions `g / |g|` are written to
    a scratch buffer (the raw normals stay for the next dimension) and
    `u**(1/dim)` is taken in place, once; for each radius that reads the
    stream, `radius * u**(1/dim) * g / |g|` is written once to a second
    buffer, and every (domain, radius, probe) task of that radius adds its
    centre to it in a third buffer and adds its hits to its cell of the
    domain's `int64` hit array.  The three buffers hold `max_dim` columns of
    a chunk each, column-major, so every step is one NumPy call on
    contiguous coordinates.  The indicator sees only the third buffer, which
    each task writes afresh, so one that writes into its argument cannot
    change another task's points.

    The streams run on `min(2, usable CPUs, streams)` workers: the calling
    thread, and one helper thread when there are two, so no more than two
    threads are busy and one usable CPU starts no thread.  Each worker takes
    whole streams in order from a shared counter, has its own normal buffer
    (`8 * n * max_dim` bytes) and chunk scratch (three buffers of
    `8 * max_dim` bytes a row and two of 8); no two streams add to the
    same cell.  An exception in either worker stops the other at its next
    stream and is raised here as it was, with the hit arrays dropped; the
    helper is joined on every path.

    Each profile equals its domain's whole-task draw bit for bit, whichever
    worker takes which stream: NumPy's normal fill takes the same draws in
    the same order whether it fills a buffer in one call or in two, and its
    uniform fill turns one 64-bit output into one double, so the buffers
    hold the values of `standard_normal((n, dim))` and `random(n)`; each
    step is the same elementwise operation on the same operands
    (`_sum_of_squares` keeps NumPy's summation order), so the points are
    identical row for row; the indicator acts row by row (and, if it sums
    along rows, in one order for either layout, as the built-in ones do),
    and the hit count over the sample count is the mean of the indicator,
    exactly.  The
    profile keeps, at each radius, the first probe of largest volume.
    """
    tasks = []  # (spec, radii, hit counts by radius and probe)
    for spec, radii in domains:
        radii = _lengths("radii", radii)
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        tasks.append((spec, radii, np.zeros((radii.size, spec.probe_centers.shape[0]), np.int64)))
    if not _is_integer(samples_per_radius):
        raise TypeError(
            f"samples_per_radius must be an integer, got {samples_per_radius!r}"
        )
    if samples_per_radius < 10_000:
        raise ValueError(
            f"need at least 10^4 samples per radius, got {samples_per_radius}"
        )
    n = int(samples_per_radius)
    n_streams = max((hits.size for _, _, hits in tasks), default=0)
    streams = np.random.SeedSequence(seed).spawn(n_streams)
    max_dim = max((spec.dim for spec, _, _ in tasks), default=0)
    # per stream: (dim, [(radius, [(spec, hits, (i, j))])]), dims ascending
    plans = []
    for t in range(n_streams):
        readers = {}
        for spec, radii, hits in tasks:
            i, j = divmod(t, hits.shape[1])
            if i < radii.size:
                by_radius = readers.setdefault(spec.dim, {})
                by_radius.setdefault(float(radii[i]), []).append((spec, hits, (i, j)))
        plans.append([(dim, list(by_radius.items())) for dim, by_radius in sorted(readers.items())])
    order = iter(range(n_streams))
    lock = threading.Lock()
    stop = threading.Event()
    errors = []  # the helper's exception

    def work(errors=None):
        # whole streams in order, until none is left or a worker has failed;
        # the helper keeps its exception in `errors`, the caller's is raised
        try:
            scratch = (np.empty(n * max_dim), *(np.empty(_CHUNK * max_dim) for _ in range(3)),
                       np.empty(_CHUNK), np.empty(_CHUNK))
            while not stop.is_set():
                with lock:
                    t = next(order, None)
                if t is None:
                    return
                _count_stream(streams[t], plans[t], n, scratch)
        except BaseException as exc:
            stop.set()
            if errors is None:
                raise
            errors.append(exc)

    helper = None
    try:
        if min(2, _usable_cpus(), n_streams) > 1:
            helper = threading.Thread(target=work, args=(errors,), name="swarmeq-sampler")
            helper.start()
        work()
    finally:
        stop.set()
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    profiles = []
    for spec, radii, hits in tasks:
        vball = np.array([ball_volume(float(r), spec.dim) for r in radii])[:, None]
        frac = hits / n
        volumes = frac * vball
        stderr = vball * np.sqrt(frac * (1 - frac) / n)
        best = np.arange(radii.size), volumes.argmax(axis=1)  # the first largest probe
        profiles.append(VolumeProfile(radii=radii, volumes=volumes[best], stderr=stderr[best]))
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
    radius = float(_lengths("radius", radius))
    _check_dim(dim)

    def indicator(points: np.ndarray) -> np.ndarray:
        # np.linalg.norm's sum, in its order for either memory layout
        return np.sqrt(_sum_of_squares(points)) <= radius

    return DomainSpec(
        dim=dim,
        indicator=indicator,
        probe_centers=np.zeros((1, dim)),
    )


def ball_cylinder_domain(radius: float) -> DomainSpec:
    """Right circular cylinder: a disk of the given radius in (x, y), z free."""
    radius = float(_lengths("radius", radius))

    def indicator(points: np.ndarray) -> np.ndarray:
        return points[:, 0] ** 2 + points[:, 1] ** 2 <= radius * radius

    return DomainSpec(dim=3, indicator=indicator, probe_centers=np.zeros((1, 3)))


def half_space_domain(dim: int) -> DomainSpec:
    """Points with nonnegative last coordinate."""
    _check_dim(dim)

    def indicator(points: np.ndarray) -> np.ndarray:
        return points[:, -1] >= 0

    return DomainSpec(dim=dim, indicator=indicator, probe_centers=np.zeros((1, dim)))


def slab_domain(side_lengths: Sequence[float], free_dims: int) -> DomainSpec:
    """Product of a centred box with free Euclidean directions: F x R^k."""
    sides = _lengths("side lengths", side_lengths)
    if not _is_integer(free_dims) or free_dims < 0:
        raise ValueError(f"free_dims must be a nonnegative integer, got {free_dims!r}")
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
    _check_dim(dim)

    def indicator(points: np.ndarray) -> np.ndarray:
        return points[:, -1] >= _sum_of_squares(points[:, :-1])

    probe = np.zeros((1, dim))
    probe[0, -1] = probe_height
    return DomainSpec(dim=dim, indicator=indicator, probe_centers=probe)
