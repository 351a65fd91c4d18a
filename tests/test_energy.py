import math

import numpy as np
import pytest
from conftest import zero_kernel

from swarmeq import (
    Density,
    LinearPotential,
    PowerLawKernel,
    Problem,
    SpacingMode,
    ZeroPotential,
    apply_gibbs_map,
    boundary_condition_error,
    com_drift,
    diagnose,
    entropy,
    euler_lagrange_residual,
    fixed_point_residual,
    indicator_density,
    integrate,
    make_grid,
    total_energy,
)
from swarmeq.energy import _entropy, energy_breakdown
from swarmeq.gibbs import log_partition


def interaction(kernel, rho):
    """Interaction energy of rho under kernel; V and nu do not enter it."""
    return total_energy(Problem(rho.grid, kernel, ZeroPotential(), 1.0), rho).interaction


class TestInteraction:
    def test_zero_kernel(self):
        g = make_grid(1.0, 33)
        rho = Density.normalized(g, np.ones(33))
        assert interaction(zero_kernel(), rho) == 0.0

    def test_uniform_quadratic_kernel(self):
        # (1/2) int int (1/2)(x-y)^2 dx dy over the unit square equals 1/24
        g = make_grid(1.0, 401, SpacingMode.UNIFORM)
        rho = Density.normalized(g, np.ones(401))
        value = interaction(PowerLawKernel(2.0), rho)
        assert abs(value - 1.0 / 24.0) <= 1e-5

    def test_matches_double_sum_oracle(self, rng):
        g = make_grid(1.0, 41, SpacingMode.UNIFORM)
        rho = Density.normalized(g, rng.random(41) + 0.1)
        kernel = PowerLawKernel(2.0)
        disp = g.nodes[:, None] - g.nodes[None, :]
        oracle = 0.5 * float(
            (g.weights * rho.values) @ kernel(disp) @ (g.weights * rho.values)
        )
        assert interaction(kernel, rho) == pytest.approx(oracle, abs=1e-12)

    def test_translation_invariance(self):
        # interior bumps shifted by a whole number of grid cells
        g = make_grid(4.0, 257, SpacingMode.UNIFORM)
        bump = indicator_density(g, 0.5, 1.5)
        shifted = indicator_density(g, 2.0, 3.0)
        kernel = PowerLawKernel(2.0)
        a = interaction(kernel, bump)
        b = interaction(kernel, shifted)
        assert abs(a - b) <= 1e-12

    def test_positive_for_nonnegative_kernel(self, rng):
        g = make_grid(2.0, 65)
        for _ in range(5):
            rho = Density.normalized(g, rng.random(65))
            assert interaction(PowerLawKernel(1.3), rho) >= 0.0


class TestEntropy:
    def test_uniform_on_two(self):
        g = make_grid(2.0, 513)
        rho = Density.normalized(g, np.ones(513))
        assert abs(entropy(rho) + math.log(2.0)) <= 1e-12

    def test_uniform_on_one(self):
        g = make_grid(1.0, 257)
        rho = Density.normalized(g, np.ones(257))
        assert abs(entropy(rho)) <= 1e-12

    def test_zero_values_contribute_nothing(self):
        g = make_grid(2.0, 129)
        rho = indicator_density(g, 0.0, 1.0)
        assert np.isfinite(entropy(rho))

    @pytest.mark.parametrize("n", [1024, 8192])
    def test_equals_the_masked_log_bit_for_bit(self, rng, n):
        # v log v with log 1 standing in at v <= 0, against the masked log
        def masked(v):
            return integrate(g, v * np.log(v, out=np.zeros_like(v), where=v > 0))

        g = make_grid(2.0, n)
        v = np.exp(rng.uniform(-600.0, 5.0, n))
        assert _entropy(g, v) == masked(v)
        v[::7] = 0.0  # 0 log 0 = 0
        assert _entropy(g, v) == masked(v)
        assert _entropy(g, np.zeros(n)) == 0.0

    def test_half_gaussian_closed_form(self):
        nu = 2.0**-6
        g = make_grid(2.0, 2048, SpacingMode.UNIFORM)
        a0 = 2.0 / math.sqrt(2 * math.pi * nu)
        rho = Density.normalized(g, a0 * np.exp(-g.nodes**2 / (2 * nu)))
        assert abs(entropy(rho) - (math.log(a0) - 0.5)) <= 1e-6

    def test_lower_bound_uniform_minimizes(self, rng):
        g = make_grid(3.0, 101)
        for _ in range(10):
            rho = Density.normalized(g, rng.random(101) + 1e-3)
            assert entropy(rho) >= -math.log(3.0) - 1e-12


class TestTotalEnergy:
    def test_all_zero(self):
        g = make_grid(1.0, 65)
        rho = Density.normalized(g, np.ones(65))
        breakdown = total_energy(Problem(g, zero_kernel(), ZeroPotential(), 0.1), rho)
        assert breakdown.total == pytest.approx(0.0, abs=1e-13)

    def test_uniform_quadratic_with_diffusion(self):
        g = make_grid(1.0, 401, SpacingMode.UNIFORM)
        rho = Density.normalized(g, np.ones(401))
        breakdown = total_energy(Problem(g, PowerLawKernel(2.0), ZeroPotential(), 0.1), rho)
        assert abs(breakdown.total - 1.0 / 24.0) <= 1e-5
        assert abs(breakdown.entropy) <= 1e-12

    def test_decomposition_identity(self, rng):
        g = make_grid(2.5, 97, SpacingMode.QUADRATIC)
        for _ in range(10):
            rho = Density.normalized(g, rng.random(97) + 1e-3)
            nu = float(rng.uniform(0.01, 1.0))
            b = total_energy(Problem(g, PowerLawKernel(2.0), ZeroPotential(), nu), rho)
            expected = b.interaction + nu * b.entropy + b.potential
            assert abs(b.total - expected) <= 1e-14 * max(1.0, abs(expected))


class TestBreakdownBitForBit:
    """`energy_breakdown` against its three integrals written out with the
    masked log, compared with ==: the unmasked log on a positive density and
    the skipped integral of a vanishing V change no bit."""

    @staticmethod
    def written_out(problem, values, conv):
        g = problem.grid
        interaction = 0.5 * integrate(g, values * conv)
        ent = integrate(g, values * np.log(np.where(values > 0, values, 1.0)))
        potential = integrate(g, problem.v * values)
        return interaction, ent, potential, interaction + problem.nu * ent + potential

    @pytest.mark.parametrize("potential", [ZeroPotential(), LinearPotential(0.3)],
                             ids=["zero", "linear"])
    @pytest.mark.parametrize("state", ["gibbs-image", "indicator"])
    def test_equals_the_written_out_integrals(self, potential, state):
        g = make_grid(4.0, 1024)
        problem = Problem(g, PowerLawKernel(2.0), potential, 2.0**-6)
        rho = indicator_density(g, 1.0, 2.0)  # zero on most nodes
        if state == "gibbs-image":
            rho = apply_gibbs_map(problem, rho)
            assert rho.values.min() > 0
        conv = problem.operator.apply(rho.values)
        b = energy_breakdown(problem, rho.values, conv)
        assert (b.interaction, b.entropy, b.potential, b.total) == self.written_out(
            problem, rho.values, conv
        )
        if isinstance(potential, ZeroPotential):
            assert b.potential == 0.0 and math.copysign(1.0, b.potential) == 1.0


class TestDensityOnAnotherGrid:
    """The operator and V of a problem are sampled on its own grid, so every
    function of a problem and a density rejects a density on any other grid
    object, even one with the same nodes (`solve` has its own test)."""

    @pytest.mark.parametrize("function", [
        total_energy, apply_gibbs_map, log_partition, fixed_point_residual,
        euler_lagrange_residual, boundary_condition_error, com_drift, diagnose,
    ], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("mode", list(SpacingMode), ids=lambda m: m.value)
    def test_rejected(self, function, mode):
        problem = Problem(make_grid(2.0, 64), PowerLawKernel(2.0), LinearPotential(0.1), 0.1)
        other = make_grid(2.0, 64, mode)
        rho = Density.normalized(other, np.exp(-other.nodes))  # strictly positive
        with pytest.raises(ValueError, match="problem's grid"):
            function(problem, rho)


class TestProblemNu:
    """nu must be positive and finite at construction and in `with_nu`: at
    nu = inf the entropy term is infinite and a solve could only fail later."""

    BAD = [0.0, -1.0, math.nan, math.inf]

    @pytest.mark.parametrize("nu", BAD, ids=repr)
    def test_rejected_at_construction(self, nu):
        with pytest.raises(ValueError, match="diffusion parameter must be positive and finite"):
            Problem(make_grid(2.0, 65), PowerLawKernel(2.0), ZeroPotential(), nu)

    @pytest.mark.parametrize("nu", BAD, ids=repr)
    def test_rejected_by_with_nu(self, nu):
        problem = Problem(make_grid(2.0, 65), PowerLawKernel(2.0), ZeroPotential(), 0.1)
        with pytest.raises(ValueError, match="diffusion parameter must be positive and finite"):
            problem.with_nu(nu)


class TestWithPotential:
    def test_shares_the_operator_and_samples_v(self):
        grid = make_grid(2.0, 65, SpacingMode.QUADRATIC)
        rho = indicator_density(grid, 0.0, 1.0)
        problem = Problem(grid, PowerLawKernel(2.0), ZeroPotential(), 0.1)
        other = problem.with_potential(LinearPotential(0.5))
        fresh = Problem(grid, PowerLawKernel(2.0), LinearPotential(0.5), 0.1)
        assert other.operator is problem.operator
        assert (other.potential, other.nu, other.kernel) == (LinearPotential(0.5), 0.1,
                                                             problem.kernel)
        assert np.array_equal(other.v, fresh.v) and not other.v_vanishes
        assert total_energy(other, rho) == total_energy(fresh, rho)
        # the original keeps its own V
        assert problem.potential == ZeroPotential() and problem.v_vanishes
        assert not np.any(problem.v)
        assert other.with_potential(ZeroPotential()).v_vanishes
