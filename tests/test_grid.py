import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
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
    TabulatedKernel,
    ZeroPotential,
    apply_gibbs_map,
    convolve_kernel,
    indicator_density,
    integrate,
    make_grid,
)
from swarmeq.experiments import ExperimentConfig, run_experiment
from swarmeq.gibbs import DEFAULT_CLAMP_FLOOR
from swarmeq.grid import _BUILD_BLOCK, _kernel_cap, _next_fast_len, check_density


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


def _reference_formula(length, n, mode):
    """The nodes and weights of an n-node grid on [0, length], written out
    apart from `Grid` to pin its arithmetic bit for bit."""
    s = np.arange(n, dtype=float) / (n - 1)
    nodes = length * s if mode is SpacingMode.UNIFORM else length * s * s
    gaps = np.diff(nodes)
    weights = np.empty(n)
    weights[0] = gaps[0] / 2
    weights[-1] = gaps[-1] / 2
    weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2
    return nodes, weights


class TestGrid:
    def test_init_fields_are_length_size_and_mode(self):
        assert [f.name for f in dataclasses.fields(Grid) if f.init] == ["length", "size", "mode"]

    @pytest.mark.parametrize("mode", list(SpacingMode), ids=lambda m: m.value)
    def test_equal_values_compare_and_hash_equal(self, mode):
        a, b = make_grid(2.0, 64, mode), Grid(2, np.int64(64), mode.value)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("other", [(3.0, 64, "uniform"), (2.0, 65, "uniform"),
                                       (2.0, 64, "quadratic")], ids=["length", "size", "mode"])
    def test_differing_values_compare_unequal(self, other):
        assert make_grid(2.0, 64) != make_grid(*other)

    def test_rejects_infinite_length_by_name(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^grid length must be positive and finite, "
                                                 "got inf$"):
                make_grid(math.inf, 5)

    @pytest.mark.parametrize("n", [5.0, "5", None])
    def test_rejects_non_integer_size_by_name(self, n):
        message = f"grid size n must be an integer of at least 3, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_grid(2.0, n)

    @pytest.mark.parametrize("mode", list(SpacingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("n", [3, 64, 1000, 1024, 8192])
    def test_nodes_and_weights_are_the_reference_formula(self, n, mode):
        g = make_grid(2.7, n, mode)
        nodes, weights = _reference_formula(2.7, n, mode)
        assert g.nodes.tobytes() == nodes.tobytes()
        assert g.weights.tobytes() == weights.tobytes()
        assert g.nodes[0] == 0 and g.nodes[-1] == g.length

    def test_rejects_node_and_weight_arrays(self):
        g = make_grid(1.0, 3)
        with pytest.raises(TypeError):
            Grid(g.nodes, g.weights, 1.0, SpacingMode.UNIFORM)
        with pytest.raises(TypeError):
            Grid(nodes=g.nodes, weights=g.weights, length=1.0, mode=SpacingMode.UNIFORM)
        with pytest.raises(TypeError):
            Grid(g.nodes, g.weights, SpacingMode.UNIFORM)


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

    @pytest.mark.parametrize("bad,message", [
        ({1: -0.1}, "density values must be nonnegative"),
        ({1: -math.inf}, "density values must be nonnegative"),
        ({1: math.nan, 2: -0.1}, "density values must be nonnegative"),
        ({1: math.nan}, "density mass nan differs from 1 by more than 1e-10"),
        ({1: math.inf}, "density mass inf differs from 1 by more than 1e-10"),
    ], ids=["negative", "-inf", "nan-and-negative", "nan", "inf"])
    def test_check_density_messages(self, bad, message):
        # a negative entry gives the sign error even beside a NaN; a NaN or
        # +inf alone gives the mass error
        g = make_grid(1.0, 4)
        values = np.full(4, 1.0)
        for i, v in bad.items():
            values[i] = v
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_density(g, values)

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
        scipy_fft = pytest.importorskip("scipy.fft")

        assert all(_next_fast_len(n) == scipy_fft.next_fast_len(n, real=True)
                   for n in range(1, 20_001))

    @pytest.mark.parametrize("n", [512, 1000, 1023, 4096])
    @pytest.mark.parametrize("kernel,clipped", [
        (PowerLawKernel(32.0), True), (RegularizedQanrKernel(0.3), False),
    ], ids=["clipped", "unclipped"])
    def test_fft_product_bit_equal_to_scipy(self, rng, n, kernel, clipped):
        # NumPy's pocketfft gives the bits of the same product through scipy.fft
        scipy_fft = pytest.importorskip("scipy.fft")

        nu = 2.0**-6
        g = make_grid(4.0, n, SpacingMode.UNIFORM)
        values = rng.random(n)
        op = KernelOperator(g, kernel, nu)
        assert op._matrix is None and (op._peak > op._cap) == clipped
        lags = np.arange(-(n - 1), n) * (g.length / (n - 1))
        cap = _kernel_cap(nu)
        m = scipy_fft.next_fast_len(2 * n - 1, real=True)
        spectrum = scipy_fft.rfft(np.clip(kernel(lags), -cap, cap), m)
        product = scipy_fft.irfft(spectrum * scipy_fft.rfft(g.weights * values, m), m)
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

        # row 0 holds -x_j, first beyond 0.5 in magnitude at x_5 = 0.625
        g = make_grid(1.0, 9)
        expected = "non-finite value at displacement -0.625"
        with pytest.raises(ValueError, match=f"{re.escape(expected)}$"):
            KernelOperator(g, BadKernel(2.0), 2.0**-6)


class TestDenseBuild:
    """The dense operator is filled in row blocks of `_BUILD_BLOCK` entries,
    with the same matrix, the same errors and a peak of one matrix."""

    KERNELS = [
        PowerLawKernel(2.0), PowerLawKernel(1.5), RegularizedQanrKernel(0.3),
        TabulatedKernel(displacements=np.linspace(0.0, 4.0, 9),
                        values=np.cos(np.linspace(0.0, 4.0, 9))),
    ]

    @pytest.mark.parametrize("mode", list(SpacingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("n", [3, 65, 200, 300, 511])
    def test_bit_equal_to_the_whole_matrix(self, n, mode):
        # 300 nodes take blocks of 218 rows and 511 nodes 128, each ending
        # on a ragged block
        g = make_grid(4.0, n, mode)
        disp = g.nodes[:, None] - g.nodes[None, :]
        for kernel in self.KERNELS:
            matrix = KernelOperator(g, kernel, 2.0**-6)._matrix
            assert np.array_equal(matrix, kernel(disp) * g.weights[None, :]), kernel

    def test_non_finite_value_in_a_later_block(self):
        # NaN at positive displacements in (2.2, 2.205), which no row of the
        # first block (x_i <= x_217 = 2.107) reaches
        class BandKernel(PowerLawKernel):
            def __call__(self, x):
                x = np.asarray(x)
                return np.where((x > 2.2) & (x < 2.205), np.nan, super().__call__(x))

        n = 300
        g = make_grid(4.0, n, SpacingMode.QUADRATIC)
        kernel = BandKernel(2.0)
        disp = g.nodes[:, None] - g.nodes[None, :]
        first = np.argwhere(~np.isfinite(kernel(disp)))[0]
        assert _BUILD_BLOCK // n == 218 and first[0] >= 218 and first[1] > 0
        expected = f"kernel evaluated to a non-finite value at displacement {float(disp[tuple(first)])!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            KernelOperator(g, kernel, 2.0**-6)

    def test_tabulated_range_error(self):
        # the table ends at 3 < L; TabulatedKernel reads |x|, and row 0 already
        # spans |x| in [0, L], so the first block raises the error that a
        # whole-matrix call raises
        g = make_grid(4.0, 300, SpacingMode.QUADRATIC)
        kernel = TabulatedKernel(displacements=[0.0, 3.0], values=[1.0, 0.0])
        with pytest.raises(ValueError) as whole:
            kernel(g.nodes[:, None] - g.nodes[None, :])
        with pytest.raises(ValueError) as blocked:
            KernelOperator(g, kernel, 2.0**-6)
        assert str(blocked.value) == str(whole.value)
        assert str(blocked.value) == "displacement outside tabulated range [0.0, 3.0]"

    def test_build_peak_is_about_one_matrix(self):
        # ru_maxrss is in kB on Linux; a whole-matrix build grew it by 2.95
        # matrices (displacements, kernel values and product, with the mask),
        # the blocked build by 1.01
        code = textwrap.dedent("""
            import resource
            from swarmeq import KernelOperator, PowerLawKernel, make_grid

            kernel = PowerLawKernel(2.0)
            KernelOperator(make_grid(4.0, 300, "quadratic"), kernel, 1.0)  # warm-up
            grid = make_grid(4.0, 2048, "quadratic")
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            matrix = KernelOperator(grid, kernel, 1.0)._matrix
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024 / matrix.nbytes)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(swarmeq.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert float(out.stdout) < 1.25
