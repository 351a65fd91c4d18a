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
from swarmeq.grid import _FFT_ROUNDOFF, _kernel_cap, _next_fast_len, check_density


class TestMakeGrid:
    def test_uniform_three_nodes(self):
        g = make_grid(1.0, 3)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0], atol=0)
        np.testing.assert_allclose(g.weights, [0.25, 0.5, 0.25], atol=0)

    def test_weight_sum_invariant(self):
        for length, n in [(4.0, 1024), (1.0, 3), (7.3, 333), (0.05, 17)]:
            g = make_grid(length, n)
            assert abs(g.weights.sum() - length) <= 1e-12 * length
            assert np.all(g.weights > 0)
            assert np.all(np.diff(g.nodes) > 0)

    @pytest.mark.parametrize("length,n", [(0.0, 8), (-1.0, 8), (1.0, 2), (1.0, 0), (math.nan, 8)])
    def test_rejects_bad_parameters(self, length, n):
        with pytest.raises(ValueError):
            make_grid(length, n)


def _reference_formula(length, n):
    """The nodes and weights of an n-node grid on [0, length], written out
    apart from `Grid` to pin its arithmetic bit for bit."""
    s = np.arange(n, dtype=float) / (n - 1)
    nodes = length * s
    gaps = np.diff(nodes)
    weights = np.empty(n)
    weights[0] = gaps[0] / 2
    weights[-1] = gaps[-1] / 2
    weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2
    return nodes, weights


class TestGrid:
    def test_init_fields_are_length_and_size(self):
        assert [f.name for f in dataclasses.fields(Grid) if f.init] == ["length", "size"]

    def test_equal_values_compare_and_hash_equal(self):
        a, b = make_grid(2.0, 64), Grid(2, np.int64(64))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("other", [(3.0, 64), (2.0, 65)], ids=["length", "size"])
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

    @pytest.mark.parametrize("n", [3, 64, 1000, 1024, 8192])
    def test_nodes_and_weights_are_the_reference_formula(self, n):
        g = make_grid(2.7, n)
        nodes, weights = _reference_formula(2.7, n)
        assert g.nodes.tobytes() == nodes.tobytes()
        assert g.weights.tobytes() == weights.tobytes()
        assert g.nodes[0] == 0 and g.nodes[-1] == g.length

    def test_rejects_node_and_weight_arrays(self):
        g = make_grid(1.0, 3)
        with pytest.raises(TypeError):
            Grid(g.nodes, g.weights, 1.0)
        with pytest.raises(TypeError):
            Grid(nodes=g.nodes, weights=g.weights, length=1.0)
        with pytest.raises(TypeError):
            Grid(g.nodes, g.weights)


class TestIntegrate:
    def test_constant(self):
        g = make_grid(2.0, 17)
        assert integrate(g, np.ones(17)) == pytest.approx(2.0, abs=1e-14)

    def test_linear_exact(self):
        g = make_grid(1.0, 101)
        assert abs(integrate(g, g.nodes) - 0.5) <= 1e-14

    def test_quadratic_trapezoid_error(self):
        g = make_grid(1.0, 201)
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


def _lags(grid):
    """The 2N-1 displacements x_i - x_j of a uniform grid, that the FFT
    product evaluates the kernel on."""
    n = grid.size
    return np.arange(-(n - 1), n) * (grid.length / (n - 1))


class TestConvolution:
    def test_zero_kernel(self):
        g = make_grid(1.0, 9)
        rho = Density.normalized(g, np.ones(9))
        np.testing.assert_array_equal(convolve_kernel(g, zero_kernel(), rho), np.zeros(9))

    def test_three_node_hand_sum(self):
        g = make_grid(1.0, 3)
        rho = Density.normalized(g, np.ones(3))
        u = convolve_kernel(g, PowerLawKernel(2.0), rho)
        assert u[0] == pytest.approx(0.1875, abs=1e-15)

    def test_matches_brute_force_hat(self):
        g = make_grid(1.0, 9)
        hat = np.minimum(g.nodes, 1.0 - g.nodes)
        rho = Density.normalized(g, hat)
        u = convolve_kernel(g, PowerLawKernel(1.0), rho)
        ref = brute_force_convolution(g, PowerLawKernel(1.0), rho.values)
        np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)

    def test_fast_path_equivalence_small(self, rng):
        for n in (16, 33, 64):
            g = make_grid(1.5, n)
            rho = Density.normalized(g, rng.random(n) + 0.01)
            kernel = PowerLawKernel(float(rng.uniform(0.5, 3.0)))
            u = convolve_kernel(g, kernel, rho)
            ref = brute_force_convolution(g, kernel, rho.values)
            scale = np.max(np.abs(ref)) or 1.0
            assert np.max(np.abs(u - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [511, 512])
    def test_fft_threshold(self, rng, n):
        # below 512 nodes the product is the direct sum over the unclipped
        # lags, within the dot-product bound n eps sum_j w_j |K(x_i - x_j)| v_j
        # on each node; from 512 up it is the FFT product over the clipped
        # lags, within its 4 eps max|K|.  p = 32 has max|K| above the cap, so
        # the two sums differ far beyond either bound.
        nu = 2.0**-6
        g = make_grid(4.0, n)
        kernel = PowerLawKernel(32.0)
        values = Density.normalized(g, rng.random(n) + 0.01).values
        cap = _kernel_cap(nu)
        lags = kernel(_lags(g))
        assert np.max(np.abs(lags)) > cap
        if n >= 512:
            lags = np.clip(lags, -cap, cap)
        i = np.arange(n)
        terms = lags[i[:, None] - i[None, :] + n - 1].astype(np.longdouble) * (g.weights * values)
        error = np.abs(KernelOperator(g, kernel, nu).apply(values) - terms.sum(axis=1))
        if n < 512:
            assert np.all(error <= n * np.finfo(float).eps * np.abs(terms).sum(axis=1))
        else:
            assert np.max(error) <= _FFT_ROUNDOFF * cap

    @pytest.mark.parametrize("n", [3, 4, 5, 64, 255, 511, 1024])
    @pytest.mark.parametrize("kernel", [
        PowerLawKernel(2.0), PowerLawKernel(32.0), RegularizedQanrKernel(0.3),
    ], ids=repr)
    @pytest.mark.parametrize("nu", [math.inf, 2.0**-6, 2.0**-12], ids=repr)
    def test_fft_product_matches_the_direct_sum(self, monkeypatch, rng, n, kernel, nu):
        # the documented roundoff of the FFT product: at most 4 eps max|K| on
        # every node for a unit-mass density, max|K| over the clipped lags,
        # against sum_j w_j clip(K(x_i - x_j)) v_j summed in extended precision
        # (p = 32 is clipped at both finite nu, p = 2 and qanr at neither);
        # grids below the threshold are built with the FFT product too
        monkeypatch.setattr(swarmeq.grid, "_FFT_THRESHOLD", 3)
        transforms = []
        irfft = swarmeq.grid.irfft
        monkeypatch.setattr(swarmeq.grid, "irfft",
                            lambda *args: transforms.append(args) or irfft(*args))
        g = make_grid(4.0, n)
        values = Density.normalized(g, rng.random(n) + 0.01).values
        cap = _kernel_cap(nu)
        clipped = np.clip(kernel(g.nodes[:, None] - g.nodes[None, :]), -cap, cap)
        direct = (clipped.astype(np.longdouble) * g.weights) @ values.astype(np.longdouble)
        error = np.max(np.abs(KernelOperator(g, kernel, nu).apply(values) - direct))
        assert len(transforms) == 1  # the apply took the FFT branch
        assert error <= _FFT_ROUNDOFF * np.max(np.abs(clipped))

    @pytest.mark.parametrize("n", [511, 2**17])
    def test_operator_memory_is_linear_in_n(self, n):
        # the lags or the spectrum, and the grid's nodes and weights: about
        # 32 N bytes
        op = KernelOperator(make_grid(4.0, n), PowerLawKernel(2.0), 2.0**-6)
        arrays = [a for owner in (op, op.grid) for a in vars(owner).values()
                  if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= 64 * n

    @pytest.mark.parametrize("nu", [2.0**-4, 2.0**-6, 2.0**-9])
    def test_clipped_kernel_keeps_the_gibbs_image(self, nu):
        # every kplarge kernel (max|K| = 4**p / p, p >= 16) is clipped at the
        # cap; on the support and at the exponent floor the image of the solved
        # density matches the exact dense product to twice the cap's exponent
        # roundoff budget of 1e-9
        for record in run_experiment(ExperimentConfig("kplarge", {"nu": nu})):
            rho = record.solve_reports[-1].density
            g = record.parameters["g"]
            kernel = PowerLawKernel(record.parameters["p"])
            problem = Problem(rho.grid, kernel,
                              ZeroPotential() if g == 0 else LinearPotential(g), nu)
            assert np.max(np.abs(kernel(_lags(rho.grid)))) > _kernel_cap(nu)
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
        g = make_grid(4.0, n)
        values = rng.random(n)
        op = KernelOperator(g, kernel, nu)
        lags = _lags(g)
        cap = _kernel_cap(nu)
        assert (np.max(np.abs(kernel(lags))) > cap) == clipped
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
        g = make_grid(2.0, 48)
        rho = Density.normalized(g, rng.random(48) + 0.01)
        eta = Density.normalized(g, rng.random(48) + 0.01)
        kernel = PowerLawKernel(1.5)
        lhs = integrate(g, rho.values * convolve_kernel(g, kernel, eta))
        rhs = integrate(g, eta.values * convolve_kernel(g, kernel, rho))
        assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("n", [9, 513])
    def test_non_finite_kernel_aborts_with_displacement(self, n):
        class BadKernel(PowerLawKernel):
            def __call__(self, x):
                out = np.asarray(super().__call__(x), dtype=float)
                return np.where(np.abs(np.asarray(x)) > 0.5, np.nan, out)

        # the lags ascend from -L, which is already beyond 0.5 in magnitude,
        # on the direct-sum grid and the FFT grid alike
        g = make_grid(1.0, n)
        expected = "non-finite value at displacement -1.0"
        with pytest.raises(ValueError, match=f"{re.escape(expected)}$"):
            KernelOperator(g, BadKernel(2.0), 2.0**-6)

    def test_tabulated_range_error(self):
        # the table ends at 3 < L; the lags span |x| in [0, L], so the build
        # raises the error that a call over all displacements raises
        g = make_grid(4.0, 300)
        kernel = TabulatedKernel(displacements=[0.0, 3.0], values=[1.0, 0.0])
        with pytest.raises(ValueError) as whole:
            kernel(g.nodes[:, None] - g.nodes[None, :])
        with pytest.raises(ValueError) as built:
            KernelOperator(g, kernel, 2.0**-6)
        assert str(built.value) == str(whole.value)
        assert str(built.value) == "displacement outside tabulated range [0.0, 3.0]"
