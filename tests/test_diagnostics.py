import math

import numpy as np
import pytest
from conftest import zero_kernel

from swarmeq import (
    Density,
    LinearPotential,
    PowerLawKernel,
    Problem,
    ShiftedKernel,
    SpacingMode,
    TruncatedGaussian,
    ZeroPotential,
    boundary_condition_error,
    com_drift,
    critical_slope,
    diagnose,
    euler_lagrange_residual,
    exact_minimizer,
    indicator_density,
    make_grid,
    moments,
)


def problem(grid, potential, nu):
    """A problem for the checks that read only V and nu."""
    return Problem(grid, zero_kernel(), potential, nu)


class TestEulerLagrangeResidual:
    def test_exact_fixed_point_is_flat(self):
        g = make_grid(2.0, 129)
        uniform = Density.normalized(g, np.ones(129))
        res = euler_lagrange_residual(Problem(g, zero_kernel(), ZeroPotential(), 0.4), uniform)
        assert res <= 1e-12

    def test_discriminates_non_critical_density(self):
        g = make_grid(2.0, 257)
        two_bumps = Density.normalized(
            g, np.exp(-((g.nodes - 0.5) ** 2) * 40) + 0.5 * np.exp(-((g.nodes - 1.5) ** 2) * 40)
        )
        res = euler_lagrange_residual(Problem(g, zero_kernel(), ZeroPotential(), 0.1), two_bumps)
        assert res > 1e-2

    def test_rejects_density_with_zeros(self):
        g = make_grid(1.0, 65)
        rho = indicator_density(g, 0.0, 0.5)
        # the first zero node is x_33 = 0.515625, written as a plain number
        message = r"^density is not strictly positive at node 33 \(x = 0\.515625\); not a"
        with pytest.raises(ValueError, match=message):
            euler_lagrange_residual(Problem(g, zero_kernel(), ZeroPotential(), 0.1), rho)

    def test_offset_invariance(self):
        nu = 0.25
        g = make_grid(2.0, 257)
        rho = Density.normalized(g, np.exp(-((g.nodes - 1.0) ** 2) / (2 * nu)))
        base = PowerLawKernel(2.0)
        r1 = euler_lagrange_residual(Problem(g, base, ZeroPotential(), nu), rho)
        shifted = Problem(g, ShiftedKernel(base, 10.0), ZeroPotential(), nu)
        r2 = euler_lagrange_residual(shifted, rho)
        assert abs(r1 - r2) <= 1e-10


class TestBoundaryCondition:
    def test_discretized_exact_minimizer(self):
        nu = 2.0**-6
        gc = critical_slope(nu)
        g = make_grid(2.0, 4096, SpacingMode.QUADRATIC)
        rho = exact_minimizer(nu, gc).discretize(g)
        assert boundary_condition_error(problem(g, LinearPotential(gc), nu), rho) <= 1e-6

    def test_uniform_coincidence(self):
        g = make_grid(1.0, 65)
        rho = Density.normalized(g, np.ones(65))
        # g/nu = 1 and rho(0) = 1: the relative error is exactly zero
        assert boundary_condition_error(problem(g, LinearPotential(0.5), 0.5), rho) == 0.0

    def test_rejects_zero_gravity(self):
        g = make_grid(1.0, 65)
        rho = Density.normalized(g, np.ones(65))
        with pytest.raises(ValueError, match="g > 0"):
            boundary_condition_error(problem(g, ZeroPotential(), 0.5), rho)


class TestComDrift:
    def test_symmetric_profile_has_no_drift(self):
        g = make_grid(2.0, 201, SpacingMode.UNIFORM)
        rho = Density.normalized(g, np.exp(-((g.nodes - 1.0) ** 2) * 5))
        assert abs(com_drift(problem(g, ZeroPotential(), 0.3), rho)) <= 1e-12

    def test_left_heavy_profile_drifts_right(self):
        g = make_grid(2.0, 201)
        rho = Density.normalized(g, np.exp(-3 * g.nodes))
        assert com_drift(problem(g, ZeroPotential(), 0.3), rho) > 0

    def test_gravity_enters_linearly(self):
        g = make_grid(2.0, 201)
        rho = Density.normalized(g, np.exp(-3 * g.nodes))
        base = com_drift(problem(g, ZeroPotential(), 0.3), rho)
        gravity = com_drift(problem(g, LinearPotential(0.2), 0.3), rho)
        assert gravity == pytest.approx(base - 0.2)


class TestMoments:
    def test_uniform_moments(self):
        g = make_grid(2.0, 1024, SpacingMode.UNIFORM)
        rho = Density.normalized(g, np.ones(1024))
        m = moments(rho)
        assert abs(m.m1 - 1.0) <= 1e-12  # trapezoid is exact for x
        # trapezoid error for the second moment at this resolution is
        # h^2/12 * 2 * (1/2) ~ 6.4e-7; the quoted bound reflects that
        assert abs(m.m2 - 4.0 / 3.0) <= 1e-6

    def test_truncated_gaussian_mean_closed_form(self):
        nu, c = 2.0**-4, 0.3
        g = make_grid(3.5, 32768, SpacingMode.UNIFORM)
        tg = TruncatedGaussian(c, nu)
        assert abs(moments(tg.discretize(g)).m1 - tg.mean) <= 1e-8

    def test_narrow_bump_localizes(self):
        g = make_grid(2.0, 4097, SpacingMode.UNIFORM)
        x0 = 0.7
        errors = []
        for width in (0.1, 0.03, 0.01):
            rho = Density.normalized(g, np.exp(-((g.nodes - x0) ** 2) / (2 * width**2)))
            errors.append(abs(moments(rho).m1 - x0))
        assert errors[-1] <= 1e-4
        assert errors[0] >= errors[-1]


class TestDiagnose:
    def test_full_report(self):
        nu = 2.0**-6
        gc = critical_slope(nu)
        g = make_grid(2.0, 2048, SpacingMode.QUADRATIC)
        rho = exact_minimizer(nu, gc).discretize(g)
        report = diagnose(Problem(g, PowerLawKernel(2.0), LinearPotential(gc), nu), rho)
        assert report.e0 is not None and report.e0 <= 1e-4
        assert abs(report.com_drift) <= 1e-4 * gc
        assert math.isfinite(report.lambda_inf)
        assert report.moments.m1 == pytest.approx(exact_minimizer(nu, gc).mean, abs=1e-6)

    def test_e0_absent_without_gravity(self):
        g = make_grid(2.0, 257)
        rho = Density.normalized(g, np.exp(-((g.nodes - 1.0) ** 2) * 8))
        report = diagnose(Problem(g, PowerLawKernel(2.0), ZeroPotential(), 0.1), rho)
        assert report.e0 is None
