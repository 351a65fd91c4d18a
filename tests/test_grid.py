import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from conftest import brute_force_convolution, exact_gibbs_image, zero_kernel

import swarmeq
from swarmeq import (
    Density,
    Grid,
    KernelOperator,
    LinearPotential,
    PowerLawKernel,
    Problem,
    RegularizedQanrKernel,
    SpacingMode,
    ZeroPotential,
    apply_gibbs_map,
    convolve_kernel,
    indicator_density,
    integrate,
    make_grid,
)
from swarmeq.experiments import ExperimentConfig, run_experiment
from swarmeq.gibbs import DEFAULT_CLAMP_FLOOR
from swarmeq.grid import _kernel_cap, _next_fast_len


class TestMakeGrid:
    def test_uniform_three_nodes(self):
        g = make_grid(1.0, 3, SpacingMode.UNIFORM)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0], atol=0)
        np.testing.assert_allclose(g.weights, [0.25, 0.5, 0.25], atol=0)

    def test_quadratic_three_nodes(self):
        g = make_grid(1.0, 3, SpacingMode.QUADRATIC)
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 1.0], atol=0)

    def test_weight_sum_invariant(self):
        for mode in SpacingMode:
            for length, n in [(4.0, 1024), (1.0, 3), (7.3, 333), (0.05, 17)]:
                g = make_grid(length, n, mode)
                assert abs(g.weights.sum() - length) <= 1e-12 * length
                assert np.all(g.weights > 0)
                assert np.all(np.diff(g.nodes) > 0)

    @pytest.mark.parametrize("length,n", [(0.0, 8), (-1.0, 8), (1.0, 2), (1.0, 0), (math.nan, 8)])
    def test_rejects_bad_parameters(self, length, n):
        with pytest.raises(ValueError):
            make_grid(length, n)

    @pytest.mark.parametrize("mode", list(SpacingMode))
    def test_takes_a_mode_name(self, mode):
        by_name, by_mode = make_grid(2.0, 64, mode.value), make_grid(2.0, 64, mode)
        assert by_name.mode is mode
        np.testing.assert_array_equal(by_name.nodes, by_mode.nodes)
        np.testing.assert_array_equal(by_name.weights, by_mode.weights)

    @pytest.mark.parametrize("mode", ["chebyshev", "Uniform", 1, None])
    def test_rejects_unknown_mode(self, mode):
        with pytest.raises(ValueError, match="unknown grid mode .*; use 'uniform' or 'quadratic'"):
            make_grid(2.0, 64, mode)


class TestGrid:
    def test_rejects_nan_node(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(np.array([0.0, math.nan, 1.0]), np.array([0.25, 0.5, 0.25]), 1.0,
                 SpacingMode.UNIFORM)

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            Grid(np.array([0.0, 0.5, 1.0]), np.array([0.25, math.nan, 0.25]), 1.0,
                 SpacingMode.UNIFORM)


class TestIntegrate:
    def test_constant(self):
        g = make_grid(2.0, 17, SpacingMode.UNIFORM)
        assert integrate(g, np.ones(17)) == pytest.approx(2.0, abs=1e-14)

    def test_linear_exact(self):
        g = make_grid(1.0, 101, SpacingMode.UNIFORM)
        assert abs(integrate(g, g.nodes) - 0.5) <= 1e-14

    def test_quadratic_trapezoid_error(self):
        g = make_grid(1.0, 201, SpacingMode.UNIFORM)
        assert abs(integrate(g, g.nodes**2) - 1.0 / 3.0) <= 1e-4

    def test_length_mismatch(self):
        g = make_grid(1.0, 8)
        with pytest.raises(ValueError, match="nodes"):
            integrate(g, np.ones(9))


class TestDensity:
    def test_rejects_negative(self):
        g = make_grid(1.0, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            Density(g, np.array([1.0, -0.1, 1.0, 1.0]))

    def test_rejects_wrong_mass(self):
        g = make_grid(1.0, 4)
        with pytest.raises(ValueError, match="mass"):
            Density(g, np.full(4, 3.0))

    def test_rejects_nan_values(self):
        g = make_grid(1.0, 4)
        with pytest.raises(ValueError, match="mass"):
            Density(g, np.full(4, math.nan))

    def test_normalized_fixes_mass(self, rng):
        g = make_grid(2.0, 64)
        rho = Density.normalized(g, rng.random(64))
        assert abs(rho.mass - 1.0) <= 1e-14

    def test_normalized_rejects_zero_mass(self):
        g = make_grid(1.0, 8)
        with pytest.raises(ValueError, match="zero total mass"):
            Density.normalized(g, np.zeros(8))

    def test_indicator_density(self):
        g = make_grid(4.0, 257)
        rho = indicator_density(g, 0.0, 1.0)
        assert abs(rho.mass - 1.0) <= 1e-14
        assert np.all(rho.values[g.nodes > 1.0] == 0)


class TestConvolution:
    def test_zero_kernel(self):
        g = make_grid(1.0, 9)
        rho = Density.normalized(g, np.ones(9))
        np.testing.assert_array_equal(convolve_kernel(g, zero_kernel(), rho), np.zeros(9))

    def test_three_node_hand_sum(self):
        g = make_grid(1.0, 3, SpacingMode.UNIFORM)
        rho = Density.normalized(g, np.ones(3))
        u = convolve_kernel(g, PowerLawKernel(2.0), rho)
        assert u[0] == pytest.approx(0.1875, abs=1e-15)

    def test_matches_brute_force_hat(self):
        g = make_grid(1.0, 9, SpacingMode.UNIFORM)
        hat = np.minimum(g.nodes, 1.0 - g.nodes)
        rho = Density.normalized(g, hat)
        u = convolve_kernel(g, PowerLawKernel(1.0), rho)
        ref = brute_force_convolution(g, PowerLawKernel(1.0), rho.values)
        np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)

    def test_fast_path_equivalence_small(self, rng):
        for mode in SpacingMode:
            for n in (16, 33, 64):
                g = make_grid(1.5, n, mode)
                rho = Density.normalized(g, rng.random(n) + 0.01)
                kernel = PowerLawKernel(float(rng.uniform(0.5, 3.0)))
                u = convolve_kernel(g, kernel, rho)
                ref = brute_force_convolution(g, kernel, rho.values)
                scale = np.max(np.abs(ref)) or 1.0
                assert np.max(np.abs(u - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("n,fft", [(511, False), (512, True)])
    def test_fft_threshold(self, n, fft):
        op = KernelOperator(make_grid(4.0, n, SpacingMode.UNIFORM), PowerLawKernel(2.0), 2.0**-6)
        assert (op._matrix is None) is fft

    def test_fft_path_matches_matrix(self, rng):
        # uniform grids from the FFT threshold up take the O(N log N) route
        for n in (512, 1024):
            g = make_grid(4.0, n, SpacingMode.UNIFORM)
            rho = Density.normalized(g, rng.random(n) + 0.01)
            for kernel in (RegularizedQanrKernel(0.3), PowerLawKernel(8.0)):
                op = KernelOperator(g, kernel, 2.0**-6)  # max|K| = 8192 is below the cap
                assert op._matrix is None  # FFT path active
                fast = op.apply(rho.values)
                direct = (kernel(g.nodes[:, None] - g.nodes[None, :]) * g.weights) @ rho.values
                scale = np.max(np.abs(direct))
                assert np.max(np.abs(fast - direct)) <= 1e-12 * scale

    @pytest.mark.parametrize("nu", [2.0**-4, 2.0**-6, 2.0**-9])
    def test_clipped_kernel_keeps_the_gibbs_image(self, nu):
        # every kplarge kernel (max|K| = 4**p / p, p >= 16) is clipped at the
        # cap; on the support and at the exponent floor the image of the solved
        # density matches the exact dense product to twice the cap's exponent
        # roundoff budget of 1e-9
        for record in run_experiment(ExperimentConfig("kplarge", {"nu": nu})):
            rho = record.solve_reports[-1].density
            g = record.parameters["g"]
            problem = Problem(rho.grid, PowerLawKernel(record.parameters["p"]),
                              ZeroPotential() if g == 0 else LinearPotential(g), nu)
            assert problem.operator._matrix is None
            assert problem.operator._peak > problem.operator._cap
            exponent, exact = exact_gibbs_image(problem, rho)
            image = apply_gibbs_map(problem, rho).values
            keep = (rho.values >= 1e-6 * rho.values.max()) | (exponent <= DEFAULT_CLAMP_FLOOR)
            assert np.max(np.abs(image - exact)[keep] / exact[keep]) <= 2e-9

    def test_next_fast_len_matches_scipy(self):
        import scipy.fft

        assert all(_next_fast_len(n) == scipy.fft.next_fast_len(n, real=True)
                   for n in range(1, 20_001))

    @pytest.mark.parametrize("n", [512, 1000, 1023, 4096])
    @pytest.mark.parametrize("kernel,clipped", [
        (PowerLawKernel(32.0), True), (RegularizedQanrKernel(0.3), False),
    ], ids=["clipped", "unclipped"])
    def test_fft_product_bit_equal_to_scipy(self, rng, n, kernel, clipped):
        # NumPy's pocketfft gives the bits of the same product through scipy.fft
        import scipy.fft

        nu = 2.0**-6
        g = make_grid(4.0, n, SpacingMode.UNIFORM)
        values = rng.random(n)
        op = KernelOperator(g, kernel, nu)
        assert op._matrix is None and (op._peak > op._cap) == clipped
        lags = np.arange(-(n - 1), n) * (g.length / (n - 1))
        cap = _kernel_cap(nu)
        m = scipy.fft.next_fast_len(2 * n - 1, real=True)
        spectrum = scipy.fft.rfft(np.clip(kernel(lags), -cap, cap), m)
        product = scipy.fft.irfft(spectrum * scipy.fft.rfft(g.weights * values, m), m)
        assert np.array_equal(op.apply(values), product[n - 1 : 2 * n - 1])

    def test_solve_path_loads_no_scipy(self, tmp_path):
        # importing SciPy took over half of a CLI call's start-up; no solve,
        # sampling or closed form (kp2, gamma-energy) needs it
        code = textwrap.dedent("""
            import json, sys
            import swarmeq, swarmeq.cli

            def loaded():
                return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

            seen = [loaded()]
            swarmeq.cli.main(["experiment", "kpsmall", "--set", "N=512", "--set", "p=[4.0]"])
            seen.append(loaded())
            swarmeq.cli.main(["experiment", "effdim", "--seed", "0", "--set", "samples=10000"])
            seen.append(loaded())
            swarmeq.cli.main(["experiment", "kp2", "--set", "N=64", "--output", sys.argv[1]])
            seen.append(loaded())
            swarmeq.cli.main(["experiment", "gamma-energy"])
            seen.append(loaded())
            with open(sys.argv[1]) as fh:
                shifts = [r["exact_shift"] for r in json.load(fh)["records"]]
            print(json.dumps({"loaded": seen, "shifts": shifts}))
        """)
        # the fresh interpreter imports the same package as this one
        env = {**os.environ, "PYTHONPATH": str(Path(swarmeq.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "kp2.json")],
                             capture_output=True, text=True, check=True, env=env)
        result = json.loads(out.stdout.splitlines()[-1])
        # after import, FFT solve, effdim, kp2 and gamma-energy
        assert result["loaded"] == [[], [], [], [], []]
        records = run_experiment(ExperimentConfig("kp2", {"N": 64}))
        assert result["shifts"] == [r.metrics["exact_shift"] for r in records]

    def test_bilinear_symmetry(self, rng):
        g = make_grid(2.0, 48, SpacingMode.QUADRATIC)
        rho = Density.normalized(g, rng.random(48) + 0.01)
        eta = Density.normalized(g, rng.random(48) + 0.01)
        kernel = PowerLawKernel(1.5)
        lhs = integrate(g, rho.values * convolve_kernel(g, kernel, eta))
        rhs = integrate(g, eta.values * convolve_kernel(g, kernel, rho))
        assert abs(lhs - rhs) <= 1e-10

    def test_non_finite_kernel_aborts_with_displacement(self):
        class BadKernel(PowerLawKernel):
            def __call__(self, x):
                out = np.asarray(super().__call__(x), dtype=float)
                return np.where(np.abs(np.asarray(x)) > 0.5, np.nan, out)

        g = make_grid(1.0, 9)
        with pytest.raises(ValueError, match="displacement"):
            KernelOperator(g, BadKernel(2.0), 2.0**-6)
