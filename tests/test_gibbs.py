import math

import numpy as np
import pytest
from conftest import zero_kernel

from swarmeq import (
    Density,
    GibbsMapError,
    LinearPotential,
    PowerLawKernel,
    Problem,
    ShiftedKernel,
    TruncatedGaussian,
    ZeroPotential,
    apply_gibbs_map,
    fixed_point_residual,
    indicator_density,
    integrate,
    make_grid,
    total_energy,
)
from swarmeq.analytic import log_retained_mass
from swarmeq.gibbs import (
    DEFAULT_CLAMP_FLOOR,
    gibbs_log_partition,
    gibbs_values,
    log_partition,
)


class TestApplyMap:
    def test_zero_inputs_give_uniform(self):
        g = make_grid(3.0, 129)
        rho = indicator_density(g, 0.0, 1.0)
        problem = Problem(g, zero_kernel(), ZeroPotential(), 0.5)
        image = apply_gibbs_map(problem, rho)
        np.testing.assert_allclose(image.values, np.full(129, 1 / 3.0), rtol=1e-14)
        assert log_partition(problem, rho) == pytest.approx(math.log(3.0), abs=1e-12)  # Z = L

    def test_exponential_profile_boundary_value(self):
        # V = x with nu = 1 yields exp(-x)/Z; the trapezoid error of Z,
        # h^2 / 12 = 5e-7 at this resolution, keeps rho(0) within 1e-6
        g = make_grid(40.0, 16384)
        rho = Density.normalized(g, np.ones(16384))
        image = apply_gibbs_map(Problem(g, zero_kernel(), LinearPotential(1.0), 1.0), rho)
        assert abs(image.values[0] - 1.0) <= 1e-6

    def test_quadratic_kernel_maps_gaussians_to_gaussians(self):
        nu, c = 2.0**-4, 0.2
        g = make_grid(3.2, 32768)
        rho = TruncatedGaussian(c, nu).discretize(g)
        image = apply_gibbs_map(Problem(g, PowerLawKernel(2.0), ZeroPotential(), nu), rho)
        shift = c / math.sqrt(2 * nu)
        c_next = c + math.sqrt(nu / 2) * log_retained_mass(shift)[1]
        expected = TruncatedGaussian(c_next, nu).density(g.nodes)
        assert integrate(g, np.abs(image.values - expected)) <= 1e-8

    def test_mass_and_positivity_fuzzed(self, rng):
        for _ in range(20):
            n = int(rng.integers(8, 64))
            g = make_grid(float(rng.uniform(0.5, 4.0)), n)
            rho = Density.normalized(g, rng.random(n) + 1e-6)
            kernel = PowerLawKernel(float(rng.uniform(0.5, 3.0)))
            nu = float(rng.uniform(0.05, 1.0))
            image = apply_gibbs_map(Problem(g, kernel, ZeroPotential(), nu), rho)
            assert abs(image.mass - 1.0) <= 1e-14
            assert np.all(image.values > 0)

    def test_offset_invariance(self):
        g = make_grid(2.0, 257)
        rho = indicator_density(g, 0.0, 0.5)
        nu = 0.25
        base = PowerLawKernel(2.0)
        p1 = Problem(g, base, ZeroPotential(), nu)
        p2 = Problem(g, ShiftedKernel(base, 10.0), ZeroPotential(), nu)
        img1, img2 = apply_gibbs_map(p1, rho), apply_gibbs_map(p2, rho)
        assert np.max(np.abs(img1.values - img2.values)) <= 1e-12 * np.max(img1.values)
        lam1, lam2 = -nu * log_partition(p1, rho), -nu * log_partition(p2, rho)
        assert lam2 - lam1 == pytest.approx(10.0, abs=1e-9)

    def test_partition_tends_to_one_and_multiplier_matches_energy(self):
        # gravity pins the state, so plain iteration contracts geometrically
        g = make_grid(3.0, 257)
        nu = 0.25
        kernel = PowerLawKernel(2.0)
        potential = LinearPotential(0.5)
        problem = Problem(g, kernel, potential, nu)
        rho = indicator_density(g, 0.0, 1.0)
        for _ in range(60):
            rho = apply_gibbs_map(problem, rho)
        # the partition value of the next iterate relative to this one is 1:
        # the multiplier -nu log Z has settled
        image = apply_gibbs_map(problem, rho)
        assert abs(log_partition(problem, image) - log_partition(problem, rho)) <= 1e-10
        b = total_energy(problem, rho)
        assert -nu * log_partition(problem, rho) == pytest.approx(
            b.total + b.interaction, abs=1e-8
        )

    def test_rejects_bad_nu(self):
        g = make_grid(1.0, 16)
        rho = Density.normalized(g, np.ones(16))
        with pytest.raises(ValueError, match="positive"):
            apply_gibbs_map(Problem(g, zero_kernel(), ZeroPotential(), 0.0), rho)

    def test_non_finite_exponent_aborts(self):
        g = make_grid(1.0, 16)
        bad_conv = np.full(16, np.nan)
        with pytest.raises(GibbsMapError, match="non-finite"):
            gibbs_values(Problem(g, zero_kernel(), ZeroPotential(), 0.5), bad_conv)

    @pytest.mark.parametrize("potential", [ZeroPotential(), LinearPotential(0.7)],
                             ids=["zero", "linear"])
    def test_equals_the_written_out_map_and_only_reads_conv(self, potential):
        # against exp(max(-(u - min u)/nu, F)) / Z written out, on a state
        # whose exponents reach the floor; the map forms its exponent in a
        # buffer of its own
        g = make_grid(2.0, 1024)
        problem = Problem(g, PowerLawKernel(2.0), potential, 2.0**-10)
        conv = problem.operator.apply(indicator_density(g, 0.5, 1.0).values)
        before = conv.copy()
        u = conv + problem.v
        values = np.exp(np.maximum(-(u - u.min()) / problem.nu, DEFAULT_CLAMP_FLOOR))
        assert np.any(values == math.exp(DEFAULT_CLAMP_FLOOR))
        z = float(g.weights @ values)
        assert gibbs_values(problem, conv).tobytes() == (values / z).tobytes()
        assert gibbs_log_partition(problem, conv) == math.log(z) - float(u.min()) / problem.nu
        assert conv.tobytes() == before.tobytes()


class TestLogPartition:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_exponent_aborts(self, bad):
        # the same check as apply_gibbs_map: one bad node is an error, not a
        # NaN or a finite log Z that ignores the node
        g = make_grid(1.0, 16)
        conv = np.zeros(16)
        conv[5] = bad
        problem = Problem(g, zero_kernel(), ZeroPotential(), 0.5)
        # x is written as a plain number, 5/15
        message = r"^non-finite exponent at node 5 \(x = 0\.3333333333333333\); check"
        for function in (gibbs_values, gibbs_log_partition):
            with pytest.raises(GibbsMapError, match=message):
                function(problem, conv)

    def test_zero_partition_value_aborts(self):
        # the same Z check as apply_gibbs_map; unreachable with positive
        # weights, where the node of least exponent maps to 1
        g = make_grid(2.0, 65)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), 0.1)
        rho = indicator_density(g, 0, 1)
        g.weights[:] = 0.0
        for function in (apply_gibbs_map, log_partition):
            with pytest.raises(GibbsMapError, match=r"^partition value 0\.0"):
                function(problem, rho)


class TestResidual:
    def test_exact_fixed_point(self):
        g = make_grid(2.0, 65)
        uniform = Density.normalized(g, np.ones(65))
        problem = Problem(g, zero_kernel(), ZeroPotential(), 0.3)
        assert fixed_point_residual(problem, uniform) <= 1e-14

    def test_triangle_bound(self, rng):
        g = make_grid(1.0, 65)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), 0.2)
        for _ in range(5):
            rho = Density.normalized(g, rng.random(65) + 1e-3)
            res = fixed_point_residual(problem, rho)
            assert 0.0 <= res <= 2.0 + 1e-12
