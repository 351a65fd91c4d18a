import math

import numpy as np
import pytest

from swarmeq import (
    LinearPotential,
    PowerLawKernel,
    Problem,
    SpacingMode,
    TruncatedGaussian,
    UnitIntervalState,
    ZeroPotential,
    critical_slope,
    erf,
    exact_minimizer,
    make_grid,
    solve_critical_shift,
    total_energy,
    truncated_gaussian_energy,
    truncated_gaussian_energy_derivative,
    unit_interval_limit_state,
)
from swarmeq.analytic import log_retained_mass

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


class TestErf:
    def test_at_zero(self):
        assert erf(0.0) == 0.0

    def test_odd(self, rng):
        for x in rng.uniform(0.0, 6.0, 50):
            assert erf(-x) == -erf(x)

    def test_reference_value(self):
        assert abs(erf(1.0) - 0.842700792949715) <= 1e-12


class TestLogRetainedMass:
    def test_values_at_zero(self):
        f, d1, d2 = log_retained_mass(0.0)
        assert f == 0.0
        assert d1 == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-15)
        assert d2 == pytest.approx(-4.0 / math.pi, abs=1e-15)

    def test_first_derivative_positive(self):
        for t in np.linspace(-5.0, 5.0, 401):
            assert log_retained_mass(t)[1] > 0

    def test_first_derivative_strictly_decreasing(self, rng):
        ts = np.sort(rng.uniform(-6.0, 6.0, 100))
        vals = [log_retained_mass(t)[1] for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_second_derivative_bound_on_nonnegative_axis(self):
        # the -4/pi lower bound is attained at 0 and holds for t >= 0; for
        # t < 0 the second derivative continues down toward -2
        floor = -4.0 / math.pi - 1e-9
        for t in np.linspace(0.0, 5.0, 501):
            assert log_retained_mass(t)[2] >= floor

    def test_second_derivative_matches_finite_difference(self):
        h = 1e-6
        for t in (-3.0, -1.0, -0.2, 0.0, 0.7, 2.5):
            d1_plus = log_retained_mass(t + h)[1]
            d1_minus = log_retained_mass(t - h)[1]
            fd = (d1_plus - d1_minus) / (2 * h)
            d2 = log_retained_mass(t)[2]
            assert fd == pytest.approx(d2, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("shifts", [
        np.concatenate([np.linspace(1e-9, 4.0, 4001)[:-1], np.geomspace(1e-12, 1e-3, 100)]),
        np.geomspace(4.0, 1e8, 4001),
    ], ids=["erfc", "continued-fraction"])
    def test_scaled_mass_matches_scipy_erfcx(self, shifts):
        # exp(t^2) (1 + erf t) = erfcx(-t), read back from f' = (2/sqrt(pi)) / erfcx(-t)
        erfcx = pytest.importorskip("scipy.special").erfcx

        for s in shifts:
            reference = float(erfcx(s))
            d1 = log_retained_mass(-s)[1]
            assert TWO_OVER_SQRT_PI / d1 == pytest.approx(reference, rel=4e-15, abs=0), s

    def test_deep_left_tail_is_finite_and_asymptotic(self):
        # d1 ~ -2t for strongly negative arguments; naive formulas underflow
        _, d1, d2 = log_retained_mass(-30.0)
        assert d1 == pytest.approx(60.0, rel=1e-2)
        assert math.isfinite(d2)

    def test_deep_left_tail_curvature_keeps_its_bounds(self):
        # f'' = -2t f' - f'^2 cancels when f' ~ -2t; the sharp bounds
        # -2 < f'' < 0 and the expansion f'' + 2 = 1/t^2 - 3/t^4 + 25/(2t^6)
        # must survive, and so must the g = 0 sign of the family derivative
        nu = 2.0**-6
        for t in -np.geomspace(5.0, 1e6, 400):
            d2 = log_retained_mass(t)[2]
            assert -2.0 < d2 < 0.0, (t, d2)
            assert truncated_gaussian_energy_derivative(t * math.sqrt(2 * nu), nu, 0.0) < 0
            if 100.0 <= -t <= 1e4:
                expansion = 1 / t**2 - 3 / t**4 + 25 / (2 * t**6)
                assert d2 + 2.0 == pytest.approx(expansion, rel=1e-6), t
        # far beyond where f'' rounds to -2, the derivative ~ -sqrt(nu/2)/|t|
        c = -1.1e7
        t = c / math.sqrt(2 * nu)
        assert truncated_gaussian_energy_derivative(c, nu, 0.0) == pytest.approx(
            -math.sqrt(nu / 2) / abs(t), rel=1e-6
        )


class TestFamilyEnergy:
    def test_strictly_decreasing_without_gravity(self):
        nu = 2.0**-6
        cs = np.linspace(-0.3, 1.0, 200)
        vals = [truncated_gaussian_energy(c, nu, 0.0) for c in cs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_grid_energy(self):
        nu, c = 2.0**-4, 0.3
        g = make_grid(3.5, 8192, SpacingMode.UNIFORM)
        rho = TruncatedGaussian(c, nu).discretize(g)
        numeric = total_energy(Problem(g, PowerLawKernel(2.0), ZeroPotential(), nu), rho).total
        assert abs(numeric - truncated_gaussian_energy(c, nu, 0.0)) <= 1e-6

    def test_matches_grid_energy_with_gravity(self):
        nu, c, gval = 2.0**-4, 0.1, 0.05
        g = make_grid(3.5, 8192, SpacingMode.UNIFORM)
        rho = TruncatedGaussian(c, nu).discretize(g)
        problem = Problem(g, PowerLawKernel(2.0), LinearPotential(gval), nu)
        numeric = total_energy(problem, rho).total
        assert abs(numeric - truncated_gaussian_energy(c, nu, gval)) <= 1e-6

    def test_critical_gravity_minimizes_at_zero_shift(self):
        nu = 2.0**-6
        gc = critical_slope(nu)
        e0 = truncated_gaussian_energy(0.0, nu, gc)
        for c in (-0.05, 0.05, -0.2, 0.2):
            assert truncated_gaussian_energy(c, nu, gc) > e0
        assert truncated_gaussian_energy_derivative(0.0, nu, gc) == pytest.approx(0.0, abs=1e-14)

    def test_derivative_matches_central_difference(self):
        h = 1e-6
        for nu, c, gval in [(2.0**-4, 0.3, 0.0), (2.0**-6, -0.1, 0.05), (0.2, 0.5, 0.1)]:
            fd = (
                truncated_gaussian_energy(c + h, nu, gval)
                - truncated_gaussian_energy(c - h, nu, gval)
            ) / (2 * h)
            closed = truncated_gaussian_energy_derivative(c, nu, gval)
            assert fd == pytest.approx(closed, rel=1e-6, abs=1e-9)

    def test_no_stationary_point_without_gravity(self):
        nu = 2.0**-6
        span = 5 * math.sqrt(2 * nu)
        for c in np.linspace(-span, span, 101):
            assert truncated_gaussian_energy_derivative(c, nu, 0.0) < 0


class TestCriticalShift:
    def test_critical_gravity_gives_zero_shift(self):
        for nu in (2.0**-4, 2.0**-6, 2.0**-8):
            assert abs(solve_critical_shift(nu, critical_slope(nu))) <= 1e-10

    def test_bracket_example(self):
        nu = 2.0**-6
        c = solve_critical_shift(nu, nu)
        assert 1.0 < c / math.sqrt(2 * nu) < 1.2

    def test_monotone_decreasing_in_gravity(self):
        nu = 2.0**-6
        gs = np.geomspace(0.1, 10.0, 12) * critical_slope(nu)
        shifts = [solve_critical_shift(nu, g) for g in gs]
        assert all(a > b for a, b in zip(shifts, shifts[1:]))

    def test_rejects_nonpositive_gravity(self):
        with pytest.raises(ValueError, match="g <= 0"):
            solve_critical_shift(0.1, 0.0)
        with pytest.raises(ValueError, match="g <= 0"):
            solve_critical_shift(0.1, -1.0)

    def test_residual_tolerance_met(self):
        nu, g = 2.0**-6, 0.01
        c = solve_critical_shift(nu, g)
        d1 = log_retained_mass(c / math.sqrt(2 * nu))[1]
        assert abs(d1 - math.sqrt(2 / nu) * g) <= 1e-12


class TestExactMinimizer:
    def test_boundary_identity_over_gravity_grid(self):
        nu = 2.0**-6
        for factor in np.geomspace(0.1, 10.0, 15):
            g = factor * critical_slope(nu)
            tg = exact_minimizer(nu, g)
            assert abs(tg.density(0.0) - g / nu) <= 1e-10

    @pytest.mark.parametrize("factor", [0.25, 1.0, 4.0, 48.0, 100.0, 1000.0])
    def test_boundary_identity_far_beyond_critical_slope(self, factor):
        # from about 48 gc the retained mass 1 + erf underflows, so the
        # normalizer A itself would overflow; its log does not
        nu = 2.0**-6
        g = factor * critical_slope(nu)
        assert exact_minimizer(nu, g).density(0.0) == pytest.approx(g / nu, rel=1e-9)

    def test_half_gaussian_case(self):
        nu = 2.0**-6
        gc = critical_slope(nu)
        tg = exact_minimizer(nu, gc)
        assert tg.c == pytest.approx(0.0, abs=1e-10)
        log_a = math.log(2 / math.sqrt(2 * math.pi * nu))
        assert tg.log_normalizer == pytest.approx(log_a, abs=1e-12)
        assert tg.density(0.0) == pytest.approx(gc / nu, rel=1e-12)

    def test_unit_mass_by_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for nu, factor in [(2.0**-4, 0.3), (2.0**-6, 1.0), (2.0**-6, 6.0)]:
            tg = exact_minimizer(nu, factor * critical_slope(nu))
            upper = max(tg.c, 0.0) + 12 * math.sqrt(nu)
            mass, _ = quad(tg.density, 0.0, upper)
            assert abs(mass - 1.0) <= 1e-10

    def test_gibbs_map_self_consistency(self):
        from swarmeq import apply_gibbs_map, integrate

        nu = 2.0**-6
        gc = critical_slope(nu)
        g = make_grid(2.0, 4096, SpacingMode.UNIFORM)
        rho = exact_minimizer(nu, gc).discretize(g)
        image = apply_gibbs_map(Problem(g, PowerLawKernel(2.0), LinearPotential(gc), nu), rho)
        assert integrate(g, np.abs(image.values - rho.values)) <= 1e-6


class TestNanDiffusionRejected:
    def test_truncated_gaussian(self):
        with pytest.raises(ValueError, match="diffusion parameter"):
            TruncatedGaussian(c=0.0, nu=math.nan)

    def test_family_energy(self):
        with pytest.raises(ValueError, match="diffusion parameter"):
            truncated_gaussian_energy(0.0, math.nan, 0.1)

    def test_critical_shift(self):
        with pytest.raises(ValueError, match="diffusion parameter"):
            solve_critical_shift(math.nan, 0.1)

    def test_critical_shift_nan_slope(self):
        with pytest.raises(ValueError, match="g <= 0"):
            solve_critical_shift(0.1, math.nan)

    def test_unit_interval_state(self):
        with pytest.raises(ValueError, match="diffusion parameter"):
            UnitIntervalState(ZeroPotential(), math.nan)


class TestUnitIntervalLimitState:
    def test_zero_potential_is_uniform(self):
        state = unit_interval_limit_state(ZeroPotential(), 0.1, support_start=0.5)
        assert state.density(1.0) == pytest.approx(1.0, rel=1e-8)
        assert state.density(0.4) == 0.0
        assert state.density(1.6) == 0.0

    def test_linear_potential_truncated_exponential(self):
        nu, gval = 0.05, 0.1
        state = unit_interval_limit_state(LinearPotential(gval), nu)
        xs = np.linspace(0.0, 1.0, 7)
        expected = (gval / nu) * np.exp(-gval * xs / nu) / (1 - math.exp(-gval / nu))
        np.testing.assert_allclose(state.density(xs), expected, rtol=1e-8)

    def test_discretize_normalizes(self):
        g = make_grid(4.0, 1025, SpacingMode.UNIFORM)
        state = unit_interval_limit_state(ZeroPotential(), 0.1, support_start=1.0)
        assert abs(state.discretize(g).mass - 1.0) <= 1e-14
