import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest

from swarmeq import (
    DomainSpec,
    VolumeProfile,
    ball_cylinder_domain,
    ball_domain,
    ball_volume,
    box_domain,
    estimate_effective_dimension,
    estimate_volume_profile,
    estimate_volume_profiles,
    half_space_domain,
    paraboloid_domain,
    slab_domain,
    wedge_domain,
)
from swarmeq import geometry
from swarmeq.experiments import builtin_domains

SAMPLES = 10_000  # light for unit tests; the acceptance suite uses 10^5


class TestVolumeEstimates:
    def test_ball_fully_inside_large_domain(self):
        spec = ball_domain(10.0, dim=2)
        profile = estimate_volume_profile(spec, [1.0, 2.0, 4.0], SAMPLES, seed=7)
        assert profile.volumes[0] == pytest.approx(math.pi, abs=3 * max(profile.stderr[0], 1e-9))
        # radius 1 ball is entirely inside: the hit fraction is exactly 1
        assert profile.stderr[0] == 0.0

    def test_half_space_is_half_the_ball(self):
        spec = half_space_domain(dim=3)
        profile = estimate_volume_profile(spec, [2.0, 5.0, 8.0], 40_000, seed=3)
        for r, v, e in zip(profile.radii, profile.volumes, profile.stderr):
            assert v == pytest.approx(ball_volume(r, 3) / 2, abs=3 * e)

    def test_slab_between_product_bounds(self):
        # [0,1] x R^2 at r = 10: between |F| (2r/sqrt(3))^2 and |F| (2r)^2
        spec = slab_domain([1.0], free_dims=2)
        profile = estimate_volume_profile(spec, [5.0, 10.0], 50_000, seed=1)
        v = profile.volumes[-1]
        assert v <= 400.0
        assert v >= (20.0 / math.sqrt(3)) ** 2 * 0.8
        assert v == pytest.approx(math.pi * 100.0, rel=0.1)

    def test_deterministic_per_seed(self):
        spec = box_domain([2.0, 2.0])
        a = estimate_volume_profile(spec, [1.0, 3.0, 10.0], SAMPLES, seed=11)
        b = estimate_volume_profile(spec, [1.0, 3.0, 10.0], SAMPLES, seed=11)
        np.testing.assert_array_equal(a.volumes, b.volumes)
        c = estimate_volume_profile(spec, [1.0, 3.0, 10.0], SAMPLES, seed=12)
        assert np.any(c.volumes != a.volumes)

    def test_volumes_nondecreasing_in_radius(self):
        spec = ball_cylinder_domain(1.0)
        profile = estimate_volume_profile(spec, np.geomspace(2.0, 30.0, 8), 30_000, seed=9)
        slack = 3 * np.maximum(profile.stderr[:-1], profile.stderr[1:])
        assert np.all(np.diff(profile.volumes) >= -slack)

    def test_monotone_under_domain_inclusion(self):
        radii = np.geomspace(1.0, 10.0, 5)
        small = estimate_volume_profile(box_domain([2.0] * 3), radii, SAMPLES, seed=5)
        large = estimate_volume_profile(box_domain([3.0] * 3), radii, SAMPLES, seed=5)
        noise = 3 * np.maximum(small.stderr, large.stderr)
        assert np.all(large.volumes >= small.volumes - noise)

    def test_validation_errors(self):
        spec = box_domain([1.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            estimate_volume_profile(spec, [2.0, 1.0], SAMPLES)
        with pytest.raises(ValueError, match="10\\^4"):
            estimate_volume_profile(spec, [1.0, 2.0], 100)

    @pytest.mark.parametrize("samples", [1e4, 20_000.0, "20000", None, True], ids=repr)
    def test_samples_per_radius_must_be_an_integer(self, samples):
        # 1e4 used to fail inside np.empty with a TypeError about '20000.0'
        with pytest.raises(TypeError, match="samples_per_radius must be an integer"):
            estimate_volume_profile(box_domain([1.0, 1.0]), [1.0, 2.0], samples)

    def test_numpy_integer_samples_per_radius(self):
        spec, radii = box_domain([1.0, 1.0]), [1.0, 2.0]
        a = estimate_volume_profile(spec, radii, np.int64(SAMPLES), seed=1)
        b = estimate_volume_profile(spec, radii, SAMPLES, seed=1)
        np.testing.assert_array_equal(a.volumes, b.volumes)

    @pytest.mark.parametrize("radii", [
        [1.0, math.nan, 3.0], [-2.0, 1.0, 3.0], [1.0, 2.0, math.inf], [0.0, 1.0, 2.0],
    ], ids=repr)
    def test_rejects_radii_not_positive_and_finite(self, radii):
        # without the check these gave the volumes -inf, -7.95 and -inf
        with pytest.raises(ValueError, match="radii must be positive and finite"):
            estimate_volume_profile(box_domain([2.0] * 3), radii, SAMPLES)

    def test_probe_center_must_lie_inside(self):
        with pytest.raises(ValueError, match="probe center"):
            DomainSpec(
                dim=2,
                indicator=lambda pts: pts[:, 0] >= 1.0,
                probe_centers=np.zeros((1, 2)),
            )

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_must_be_positive(self, dim):
        # dim = 0 with (1, 0) probes used to reach the sampler and divide by zero
        with pytest.raises(ValueError, match=f"dim must be at least 1, got {dim}"):
            DomainSpec(dim=dim, indicator=lambda pts: np.ones(len(pts), bool),
                       probe_centers=np.zeros((1, max(dim, 0))))

    @pytest.mark.parametrize("dim", [2.0, np.float64(2.0), True, False, "2"], ids=repr)
    def test_dimension_must_be_an_integer(self, dim):
        # dim = 2.0 used to build and then fail in the sampler's np.empty, and
        # dim = True to fail there with "an integer is required"
        with pytest.raises(TypeError, match=f"dim must be an integer, got {re.escape(repr(dim))}"):
            DomainSpec(dim=dim, indicator=lambda pts: np.ones(len(pts), bool),
                       probe_centers=np.zeros((1, 2)))

    @pytest.mark.parametrize("build", [lambda dim: ball_domain(1.0, dim), half_space_domain,
                                       paraboloid_domain], ids=["ball", "half-space", "paraboloid"])
    @pytest.mark.parametrize("dim", [2.0, True], ids=repr)
    def test_constructors_check_the_dimension_first(self, build, dim):
        # np.zeros((1, dim)) failed first, without naming the value
        with pytest.raises(TypeError, match=f"dim must be an integer, got {dim!r}"):
            build(dim)

    def test_numpy_integer_dimension(self):
        def spec(dim):
            return DomainSpec(dim=dim, indicator=lambda pts: pts[:, 0] <= 0.5,
                              probe_centers=np.zeros((1, 2)))

        a = estimate_volume_profile(spec(np.int64(2)), [1.0, 2.0], SAMPLES, seed=1)
        b = estimate_volume_profile(spec(2), [1.0, 2.0], SAMPLES, seed=1)
        np.testing.assert_array_equal(a.volumes, b.volumes)

    @pytest.mark.parametrize("build, message", [
        # the indicator squared the radius: this built the radius-1 cylinder
        (lambda: ball_cylinder_domain(-1.0), "radius must be positive and finite, got -1.0"),
        # these failed in the probe check, blaming the probe centre
        (lambda: ball_domain(-1.0, 3), "radius must be positive and finite, got -1.0"),
        (lambda: ball_domain(math.inf, 2), "radius must be positive and finite, got inf"),
        (lambda: box_domain([-1.0, 2.0]),
         re.escape("side lengths must be positive and finite, got [-1.0, 2.0]")),
        (lambda: slab_domain([1.0, 0.0], free_dims=1),
         re.escape("side lengths must be positive and finite, got [1.0, 0.0]")),
        # an IndexError, and a TypeError, from inside the indicator
        (lambda: slab_domain([1.0, 1.0], free_dims=-1),
         "free_dims must be a nonnegative integer, got -1"),
        (lambda: slab_domain([1.0, 1.0], free_dims=1.5),
         "free_dims must be a nonnegative integer, got 1.5"),
        (lambda: slab_domain([1.0], free_dims=True),
         "free_dims must be a nonnegative integer, got True"),
    ], ids=["cylinder", "ball", "ball-inf", "box", "slab-side", "slab-negative", "slab-float",
            "slab-bool"])
    def test_constructors_reject_bad_sizes(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: wedge_domain(math.pi / 4, probe_distance=math.inf),
        lambda: paraboloid_domain(3, probe_height=math.inf),
        lambda: DomainSpec(dim=2, indicator=lambda pts: pts[:, 0] <= 1.0,
                           probe_centers=[[0.0, math.nan]]),
    ], ids=["wedge", "paraboloid", "nan"])
    def test_probe_centers_must_be_finite(self, build):
        # an infinite probe passed the check, and every sample around it was
        # inside: the profile read the whole ball at every radius
        with pytest.raises(ValueError, match="probe centers must be finite"):
            build()

    def test_probe_centers_are_copied(self):
        # the spec used to keep the caller's array, which could then move the
        # probes out of the domain after the check
        centers = np.zeros((1, 2))
        spec = DomainSpec(dim=2, indicator=lambda pts: pts[:, 0] <= 1.0, probe_centers=centers)
        centers[:] = 5.0
        np.testing.assert_array_equal(spec.probe_centers, np.zeros((1, 2)))

    def test_probe_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            DomainSpec(dim=3, indicator=lambda pts: np.ones(len(pts), bool),
                       probe_centers=np.zeros((1, 2)))

    @pytest.mark.parametrize("centers", [np.zeros((0, 2)), np.zeros((1, 2, 1)), np.zeros(2)],
                             ids=["empty", "3-d", "1-d"])
    def test_probe_centers_must_be_a_non_empty_matrix(self, centers):
        # an empty set of probes gave the volumes -inf and the stderr nan
        with pytest.raises(ValueError, match=rf"non-empty \(k, 2\) array, got shape "
                                             rf"{re.escape(str(centers.shape))}"):
            DomainSpec(dim=2, indicator=lambda pts: np.ones(len(pts), bool),
                       probe_centers=centers)

    def test_a_domain_without_radii_gets_empty_arrays(self):
        ball = ball_domain(1.0, 3)
        empty, full = estimate_volume_profiles(
            [(box_domain([1.0, 1.0]), []), (ball, [0.5, 1.0, 2.0])], SAMPLES)
        for values in (empty.radii, empty.volumes, empty.stderr):
            assert values.dtype == np.float64 and values.shape == (0,)
        alone = estimate_volume_profile(ball, [0.5, 1.0, 2.0], SAMPLES)
        np.testing.assert_array_equal(full.volumes, alone.volumes)
        np.testing.assert_array_equal(full.stderr, alone.stderr)



def _sample_in_ball(rng, center, radius, n):
    """The whole-task sampler the chunked count replaced."""
    dim = center.size
    directions = rng.standard_normal((n, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(n) ** (1.0 / dim)
    return center[None, :] + radii[:, None] * directions


def _reference_profile(spec, radii, samples, seed):
    """Volumes and standard errors as the whole-task sampler computed them."""
    radii = np.asarray(radii, dtype=float)
    n_probes = spec.probe_centers.shape[0]
    streams = np.random.SeedSequence(seed).spawn(radii.size * n_probes)
    volumes, stderr = [], []
    for i, r in enumerate(radii):
        vball = ball_volume(float(r), spec.dim)
        best = (-math.inf, math.nan)
        for j in range(n_probes):
            rng = np.random.default_rng(streams[i * n_probes + j])
            points = _sample_in_ball(rng, spec.probe_centers[j], float(r), samples)
            frac = float(np.asarray(spec.indicator(points), dtype=bool).mean())
            vol = frac * vball
            if vol > best[0]:
                best = (vol, vball * math.sqrt(frac * (1 - frac) / samples))
        volumes.append(best[0])
        stderr.append(best[1])
    return np.array(volumes), np.array(stderr)


def _extra_domains():
    three_probes = DomainSpec(dim=2, indicator=lambda pts: pts[:, 1] >= 0.0,
                              probe_centers=[[0.0, 0.0], [0.0, 1.5], [3.0, 0.5]])
    integer_cylinder = DomainSpec(
        dim=3, indicator=lambda pts: (pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0).astype(int),
        probe_centers=np.zeros((1, 3)),
    )
    radii = np.geomspace(1.0, 10.0, 4)
    return {
        "three-probes-2d": (three_probes, radii),
        "integer-indicator-3d": (integer_cylinder, radii),
        # nine columns: NumPy's pairwise row sum, not the column-by-column one
        "box-9d": (box_domain([2.0] * 9), radii),
        "paraboloid-9d": (paraboloid_domain(9, probe_height=5.0), radii),
    }


def _pin_cpus(monkeypatch, cpus):
    """Let the sampler see `cpus` usable CPUs, and so run min(2, cpus) workers."""
    monkeypatch.setattr(geometry.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def _points_seen_and_drawn(dim):
    """The chunks a 2-probe, 2-radius domain's indicator sees at 40 001 samples,
    and each task's points as the whole-task sampler draws them."""
    seen = []

    def indicator(pts):
        seen.append(pts.copy())
        return pts[:, 0] >= 0

    spec = DomainSpec(dim=dim, indicator=indicator, probe_centers=np.full((2, dim), 0.25))
    seen.clear()  # the probe check
    radii, samples = [1.5, 7.0], 40_001
    estimate_volume_profile(spec, radii, samples, seed=2)
    streams = np.random.SeedSequence(2).spawn(len(radii) * 2)
    tasks = [(r, j) for r in radii for j in range(2)]
    expected = [_sample_in_ball(np.random.default_rng(stream), spec.probe_centers[j], r, samples)
                for stream, (r, j) in zip(streams, tasks)]
    assert len(seen) == len(tasks) * -(-samples // geometry._CHUNK)
    assert sum(map(len, seen)) == len(tasks) * samples
    return seen, expected


def _sorted_rows(points):
    return points[np.lexsort(points.T)]


class TestStreamedSampler:
    """The chunked count reproduces the whole-task sampler bit for bit: below
    one chunk (10 000 samples) and with a ragged last chunk (40 001)."""

    @pytest.mark.parametrize("samples", [10_000, 40_001])
    @pytest.mark.parametrize("name", [*builtin_domains(), *_extra_domains()])
    def test_bit_equal_to_whole_task_sampler(self, name, samples):
        spec, radii = {**builtin_domains(), **_extra_domains()}[name]
        profile = estimate_volume_profile(spec, radii, samples, seed=4)
        volumes, stderr = _reference_profile(spec, radii, samples, seed=4)
        np.testing.assert_array_equal(profile.volumes, volumes)
        np.testing.assert_array_equal(profile.stderr, stderr)

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_indicator_sees_the_whole_task_points(self, monkeypatch, dim):
        # A one-ulp change in a point rarely flips a hit, so compare the points.
        # One worker takes the streams in order, so the calls come in order.
        _pin_cpus(monkeypatch, 1)
        seen, expected = _points_seen_and_drawn(dim)
        np.testing.assert_array_equal(np.concatenate(seen), np.concatenate(expected))

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_two_workers_show_the_indicator_the_whole_task_points(self, monkeypatch, dim):
        # two workers interleave the calls of their streams: compare the rows
        # as sets
        _pin_cpus(monkeypatch, 2)
        seen, expected = _points_seen_and_drawn(dim)
        np.testing.assert_array_equal(_sorted_rows(np.concatenate(seen)),
                                      _sorted_rows(np.concatenate(expected)))

    @pytest.mark.parametrize("samples", [10_000, 40_001])
    def test_one_batch_equals_the_whole_task_sampler(self, samples):
        domains = {**builtin_domains(), **_extra_domains()}
        profiles = estimate_volume_profiles(list(domains.values()), samples, seed=4)
        assert len(profiles) == len(domains)
        for (spec, radii), profile in zip(domains.values(), profiles):
            volumes, stderr = _reference_profile(spec, radii, samples, seed=4)
            np.testing.assert_array_equal(profile.radii, radii)
            np.testing.assert_array_equal(profile.volumes, volumes)
            np.testing.assert_array_equal(profile.stderr, stderr)

    def test_one_normal_fill_per_stream_and_dimension(self, monkeypatch):
        generators, fills, uniform_fills = [], {}, {}
        generator = np.random.default_rng

        class Counting:
            def __init__(self, stream):
                self.rng = generator(stream)
                self.key = stream.spawn_key
                generators.append(self.key)
                fills[self.key] = []
                uniform_fills[self.key] = []

            @property
            def bit_generator(self):
                return self.rng.bit_generator

            def standard_normal(self, out):
                fills[self.key].append(out.size)
                uniform_fills[self.key].append([])
                return self.rng.standard_normal(out=out)

            def random(self, out):
                uniform_fills[self.key][-1].append(out.size)
                return self.rng.random(out=out)

        monkeypatch.setattr(geometry.np.random, "default_rng", Counting)
        domains = builtin_domains()
        n = 40_001
        estimate_volume_profiles(list(domains.values()), n, seed=0)
        # six radii and one probe each: streams 0..5, each read in 2-d and then
        # in 3-d from one generator, which draws 3n normals in all: the 2-d
        # points' 2n, then the n that extend them to the 3-d points' 3n
        assert sorted(generators) == [(t,) for t in range(6)]
        assert fills == {(t,): [2 * n, n] for t in range(6)}
        # after each normal fill, the n uniforms come a chunk at a time
        for per_dim in uniform_fills.values():
            assert [sum(sizes) for sizes in per_dim] == [n, n]
            assert max(map(max, per_dim)) <= geometry._CHUNK

    @pytest.mark.parametrize("samples", [10_000, 40_001])
    @pytest.mark.parametrize("radii_2d, radii_3d", [(6, 2), (2, 3)],
                             ids=["2-d-only-streams", "3-d-only-streams"])
    def test_streams_read_by_only_one_of_two_dimensions(self, samples, radii_2d, radii_3d):
        # the 3-d domain has two probes: with 6 and 2 radii streams 0..3 are
        # read in both dimensions and 4..5 only in 2-d; with 2 and 3 radii
        # streams 0..1 in both and 2..5 only in 3-d, drawn 3n at once
        two_probes = DomainSpec(dim=3, indicator=lambda pts: pts[:, 2] >= 0.0,
                                probe_centers=[[0.0, 0.0, 0.5], [1.0, -1.0, 0.0]])
        domains = [(wedge_domain(math.pi / 4, probe_distance=10.0),
                    np.geomspace(1.0, 20.0, radii_2d)),
                   (two_probes, np.geomspace(2.0, 9.0, radii_3d))]
        profiles = estimate_volume_profiles(domains, samples, seed=3)
        for (spec, radii), profile in zip(domains, profiles):
            volumes, stderr = _reference_profile(spec, radii, samples, seed=3)
            np.testing.assert_array_equal(profile.volumes, volumes)
            np.testing.assert_array_equal(profile.stderr, stderr)

    @pytest.mark.parametrize("samples", [10_000, 40_001])
    def test_domains_that_share_their_radii(self, samples):
        # the two cylinders' tasks of one stream share one scaling of the
        # directions and place it around their own centres
        radii, cylinder = np.geomspace(2.0, 20.0, 4), ball_cylinder_domain(2.0).indicator
        near = DomainSpec(dim=3, indicator=cylinder,
                          probe_centers=[[0.0, 0.0, 0.0], [1.0, 0.5, -3.0]])
        far = DomainSpec(dim=3, indicator=cylinder,
                         probe_centers=[[0.5, -1.0, 7.0], [-1.5, 0.0, 2.0]])
        domains = [(near, radii), (far, radii), (box_domain([2.0] * 3), radii * 1.5)]
        profiles = estimate_volume_profiles(domains, samples, seed=8)
        for (spec, radii), profile in zip(domains, profiles):
            alone = estimate_volume_profile(spec, radii, samples, seed=8)
            volumes, stderr = _reference_profile(spec, radii, samples, seed=8)
            for expected in ((alone.volumes, alone.stderr), (volumes, stderr)):
                np.testing.assert_array_equal(profile.volumes, expected[0])
                np.testing.assert_array_equal(profile.stderr, expected[1])
        assert np.any(profiles[0].volumes != profiles[1].volumes)

    def test_an_indicator_that_writes_its_argument_changes_no_other_domain(self):
        def scribble(pts):
            inside = pts[:, 0] >= 0
            pts[:] = 1e9
            return inside

        radii, samples = [1.0, 4.0, 10.0], 40_001
        half_plane = half_space_domain(2)
        vandal = DomainSpec(dim=2, indicator=scribble, probe_centers=np.full((2, 2), 0.5))
        # the half-plane's radii and centre: it reads the same scaled rows
        twin = DomainSpec(dim=2, indicator=scribble, probe_centers=np.zeros((1, 2)))
        # the probe check used to pass the probes themselves, which moved to 1e9
        np.testing.assert_array_equal(twin.probe_centers, half_plane.probe_centers)
        alone = estimate_volume_profile(half_plane, radii, samples, seed=6)
        for order in itertools.permutations([vandal, twin, half_plane]):
            profiles = estimate_volume_profiles([(spec, radii) for spec in order], samples, seed=6)
            shared = profiles[order.index(half_plane)]
            np.testing.assert_array_equal(shared.volumes, alone.volumes)
            np.testing.assert_array_equal(shared.stderr, alone.stderr)

    @pytest.mark.parametrize("dim", [2, 3, 8, 9])
    def test_sums_of_squares_do_not_depend_on_the_layout(self, dim):
        # indicators see column-major views; NumPy sums 8 or more columns of
        # those in another order than of contiguous rows
        points = np.random.default_rng(dim).standard_normal((2000, dim))
        norms = np.linalg.norm(points, axis=1)
        for layout in (points, np.asfortranarray(points)):
            np.testing.assert_array_equal(np.sqrt(geometry._sum_of_squares(layout)), norms)
            # points 0..9 lie on the boundary of a ball each
            for radius in norms[:10]:
                np.testing.assert_array_equal(ball_domain(radius, dim).indicator(layout),
                                              norms <= radius)

    def test_column_indicators_match_row_formulas_on_the_boundary(self):
        sides = np.array([2.0, 0.5, 3.0])
        half = sides / 2
        edge = [-half, half, np.nextafter(half, 0), np.nextafter(half, 4), np.zeros(3)]
        points = np.array([[a[0], b[1], c[2]] for a in edge for b in edge for c in edge])
        assert np.any(np.abs(points) == half)
        np.testing.assert_array_equal(box_domain(sides).indicator(points),
                                      np.all(np.abs(points) <= half[None, :], axis=1))
        slab = slab_domain(sides[:2], free_dims=1)
        np.testing.assert_array_equal(slab.indicator(points),
                                      np.all(np.abs(points[:, :2]) <= half[None, :2], axis=1))
        # z equal to the rounded x^2 + y^2, and one ulp either side of it
        x, y = points[:, 0], points[:, 1]
        on = x**2 + y**2
        for z in (on, np.nextafter(on, -1), np.nextafter(on, 9)):
            pts = np.column_stack([x, y, z])
            np.testing.assert_array_equal(paraboloid_domain(3).indicator(pts),
                                          pts[:, -1] >= np.sum(pts[:, :-1] ** 2, axis=1))


class TestWorkers:
    """Two workers, the caller and one helper thread, take whole streams; the
    profiles do not depend on how many run or which takes which stream."""

    @pytest.mark.parametrize("seed", [0, 3, 4])
    @pytest.mark.parametrize("samples", [10_000, 40_001, 123_457])
    def test_one_worker_equals_two(self, monkeypatch, samples, seed):
        domains = list({**builtin_domains(), **_extra_domains()}.values())
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(geometry.threading, "Thread", Spy)
        _pin_cpus(monkeypatch, 1)
        one = estimate_volume_profiles(domains, samples, seed=seed)
        assert started == []
        _pin_cpus(monkeypatch, 2)
        two = estimate_volume_profiles(domains, samples, seed=seed)
        assert len(started) == 1
        for a, b in zip(one, two, strict=True):
            np.testing.assert_array_equal(a.volumes, b.volumes)
            np.testing.assert_array_equal(a.stderr, b.stderr)

    def test_an_empty_batch_starts_no_thread(self, monkeypatch):
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(geometry.threading, "Thread", Spy)
        _pin_cpus(monkeypatch, 2)
        assert estimate_volume_profiles([], 10_000) == []
        assert started == []

    def test_every_stream_is_counted_once_under_frequent_switches(self, monkeypatch):
        # a thread switch every microsecond: a stream taken twice or skipped
        # would show as a generator made twice or never
        made = []
        generator = np.random.default_rng

        def default_rng(stream):
            made.append(stream.spawn_key)
            return generator(stream)

        monkeypatch.setattr(geometry.np.random, "default_rng", default_rng)
        spec = DomainSpec(dim=2, indicator=lambda pts: pts[:, 1] >= 0.0,
                          probe_centers=[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        radii = np.geomspace(1.0, 10.0, 10)  # 40 streams
        _pin_cpus(monkeypatch, 1)
        one = estimate_volume_profile(spec, radii, SAMPLES)
        made.clear()
        _pin_cpus(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            two = estimate_volume_profile(spec, radii, SAMPLES)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(made) == [(t,) for t in range(40)]
        np.testing.assert_array_equal(one.volumes, two.volumes)
        np.testing.assert_array_equal(one.stderr, two.stderr)

    @pytest.mark.parametrize("error", [ValueError, MemoryError])
    def test_an_error_on_the_helper_reaches_the_caller(self, monkeypatch, error):
        _pin_cpus(monkeypatch, 2)
        armed, helper_counts = False, threading.Event()

        def indicator(pts):
            if armed and threading.current_thread() is threading.main_thread():
                # the caller holds its first stream until the helper counts its own
                helper_counts.wait(10)
            elif armed:
                helper_counts.set()
                raise error("indicator failed on the helper")
            return pts[:, 0] >= 0

        spec = DomainSpec(dim=2, indicator=indicator, probe_centers=np.zeros((1, 2)))
        armed, threads = True, threading.active_count()
        with pytest.raises(error, match="^indicator failed on the helper$") as caught:
            estimate_volume_profile(spec, np.geomspace(1.0, 10.0, 6), SAMPLES)
        assert caught.type is error
        assert helper_counts.is_set()
        assert threading.active_count() == threads

    def test_the_helper_takes_no_stream_after_the_caller_fails(self, monkeypatch):
        _pin_cpus(monkeypatch, 2)
        takers = []  # per generator made: whether the caller made it
        generator = np.random.default_rng

        def default_rng(stream):
            takers.append(threading.current_thread() is threading.main_thread())
            return generator(stream)

        monkeypatch.setattr(geometry.np.random, "default_rng", default_rng)
        armed, helper_counts, caller_failed = False, threading.Event(), threading.Event()

        def indicator(pts):
            if armed and threading.current_thread() is threading.main_thread():
                helper_counts.wait(10)
                caller_failed.set()
                raise KeyboardInterrupt  # as a Ctrl-C in the caller would
            if armed:
                # the helper is inside its first stream when the caller fails
                helper_counts.set()
                caller_failed.wait(10)
            return pts[:, 0] >= 0

        spec = DomainSpec(dim=2, indicator=indicator, probe_centers=np.zeros((1, 2)))
        armed, threads = True, threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            estimate_volume_profile(spec, np.geomspace(1.0, 10.0, 12), SAMPLES)
        assert caller_failed.is_set()
        assert threading.active_count() == threads
        # each worker made the generator of one stream of 12
        assert sorted(takers) == [False, True]

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(geometry.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(geometry.os, "cpu_count", lambda: 4)
        assert geometry._usable_cpus() == 4
        monkeypatch.setattr(geometry.os, "cpu_count", lambda: None)  # undeterminable
        assert geometry._usable_cpus() == 1


class TestEffectiveDimension:
    def run(self, spec, radii, seed=0, samples=SAMPLES):
        return estimate_effective_dimension(
            estimate_volume_profile(spec, radii, samples, seed=seed)
        )

    def test_bounded_domain_saturates(self):
        est = self.run(box_domain([2.0] * 3), np.geomspace(2.0, 20.0, 6))
        assert est <= 0.15

    def test_cylinder_has_one_free_direction(self):
        est = self.run(ball_cylinder_domain(1.0), np.geomspace(3.0, 30.0, 6), samples=50_000)
        assert est == pytest.approx(1.0, abs=0.15)

    def test_product_rule(self):
        # F x R^k estimates k, for one- and two-dimensional compact factors
        est1 = self.run(slab_domain([1.0, 1.0], free_dims=1), np.geomspace(3.0, 30.0, 6),
                        samples=50_000)
        est2 = self.run(slab_domain([1.0], free_dims=2), np.geomspace(3.0, 30.0, 6),
                        samples=50_000)
        assert est1 == pytest.approx(1.0, abs=0.15)
        assert est2 == pytest.approx(2.0, abs=0.15)

    def test_full_space_surrogate(self):
        est = self.run(box_domain([1e6] * 3), np.geomspace(3.0, 30.0, 6))
        assert est == pytest.approx(3.0, abs=0.15)

    def test_estimates_stay_in_band(self):
        domains = [
            (box_domain([2.0] * 2), np.geomspace(2.0, 20.0, 6)),
            (wedge_domain(math.pi / 4, probe_distance=100.0), np.geomspace(2.0, 20.0, 6)),
            (paraboloid_domain(3, probe_height=2500.0), np.geomspace(3.0, 30.0, 6)),
            (half_space_domain(2), np.geomspace(2.0, 20.0, 6)),
        ]
        for spec, radii in domains:
            est = self.run(spec, radii, samples=20_000)
            assert -0.15 <= est <= spec.dim + 0.15

    def test_requires_a_decade_of_radii(self):
        spec = box_domain([1.0] * 2)
        profile = estimate_volume_profile(spec, [1.0, 2.0, 3.0], SAMPLES)
        with pytest.raises(ValueError, match="decade"):
            estimate_effective_dimension(profile)

    def test_radius_without_hits_left_out_of_the_fit(self):
        radii = np.array([1.0, 5.0, 10.0, 20.0])
        profile = VolumeProfile(radii=radii, volumes=np.array([1.0, 25.0, 0.0, 400.0]),
                                stderr=np.zeros(4))
        assert estimate_effective_dimension(profile) == pytest.approx(2.0, abs=1e-12)

    def test_fit_uses_every_radius_when_the_last_decade_holds_one(self):
        # only 100 lies in [10, 100], so the fit falls back to all three radii
        radii = np.array([1.0, 2.0, 100.0])
        volumes = np.array([1.0, 8.0, 1e4])
        profile = VolumeProfile(radii=radii, volumes=volumes, stderr=np.zeros(3))
        slope = np.polyfit(np.log(radii), np.log(volumes), 1)[0]
        assert estimate_effective_dimension(profile) == slope
        assert slope != pytest.approx(2.0)

    def test_degenerate_profile_rejected(self):
        profile = VolumeProfile(
            radii=np.array([1.0, 5.0, 20.0]),
            volumes=np.array([1.0, 0.0, 0.0]),
            stderr=np.zeros(3),
        )
        with pytest.raises(ValueError, match="degenerate"):
            estimate_effective_dimension(profile)
