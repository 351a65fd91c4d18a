import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from conftest import zero_kernel

from swarmeq import (
    ContinuationSchedule,
    Density,
    ExternalPotential,
    GibbsMapError,
    KernelOperator,
    PowerLawKernel,
    Problem,
    RegularizedQanrKernel,
    SolverConfig,
    ZeroPotential,
    count_aggregates,
    fixed_point_residual,
    indicator_density,
    integrate,
    make_grid,
    moments,
    solve,
    solve_with_continuation,
)
from swarmeq import solver
from swarmeq.experiments import ExperimentConfig, run_experiment
from swarmeq.grid import MASS_TOL, check_density


def _tau_c(nu: float, config: SolverConfig | None = None) -> float:
    """The conservative step a one-step solve at nu reports."""
    g = make_grid(4.0, 64)
    problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), nu)
    config = config or SolverConfig(max_iterations=1)
    return solve(problem, indicator_density(g, 0, 2), config).tau_c


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-6
        assert cfg.max_iterations == 2000
        assert _tau_c(2.0**-6) == pytest.approx(5 * 2.0**-6)
        assert _tau_c(1.0) == 0.95  # clamped for large diffusion

    def test_pinned_tau_c_wins(self):
        assert _tau_c(1e-4, SolverConfig(tau_c=0.5, max_iterations=1)) == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"tau_c": 0.0}, {"tau_c": 1.0}, {"tol": 0.0}, {"max_iterations": 0}, {"tol": math.nan},
        {"max_iterations": 2.5}, {"max_iterations": 3.0}, {"max_iterations": True},
        {"max_iterations": np.float64(3.0)},
    ])
    def test_validation(self, kwargs):
        value = next(iter(kwargs.values()))
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("max_iterations", [3, np.int64(3), np.int32(3)])
    def test_integer_iterations(self, max_iterations):
        g = make_grid(4.0, 64)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), 2.0**-6)
        config = SolverConfig(tol=1e-15, max_iterations=max_iterations)
        report = solve(problem, indicator_density(g, 0, 2), config)
        assert not report.converged and report.iterations == 3


class TestContinuationSchedule:
    def test_geometric_endpoints_exact(self):
        s = ContinuationSchedule.geometric(1e-2, 1e-3, stages=8)
        assert len(s.nus) == 8
        assert s.nus[0] == 1e-2
        assert s.nus[-1] == 1e-3

    def test_single_stage(self):
        assert ContinuationSchedule.geometric(1e-3, 1e-3, stages=5).nus == (1e-3,)

    def test_geometric_needs_stages(self):
        with pytest.raises(TypeError, match="stages"):
            ContinuationSchedule.geometric(1e-2, 1e-3)

    @pytest.mark.parametrize("stages", [True, 3.0, np.float64(3.0), "3"], ids=repr)
    def test_geometric_stages_must_be_an_integer(self, stages):
        # True gave a one-stage schedule and 3.0 a bare TypeError from range
        message = f"stages must be an integer, got {re.escape(repr(stages))}"
        with pytest.raises(ValueError, match=message):
            ContinuationSchedule.geometric(1e-2, 1e-3, stages=stages)

    def test_geometric_takes_numpy_integer_stages(self):
        assert (ContinuationSchedule.geometric(1e-2, 1e-3, stages=np.int64(4))
                == ContinuationSchedule.geometric(1e-2, 1e-3, stages=4))

    @pytest.mark.parametrize("nus", [(), (0.1, 0.2), (0.1, -0.01), (0.1, 0.1), (math.nan,)])
    def test_validation(self, nus):
        with pytest.raises(ValueError):
            ContinuationSchedule(nus)


class TestSolve:
    def test_trivial_problem_converges_immediately(self):
        g = make_grid(3.0, 129)
        rho0 = indicator_density(g, 0.0, 1.0)
        report = solve(Problem(g, zero_kernel(), ZeroPotential(), 0.5), rho0)
        assert report.converged
        assert report.iterations <= 2
        np.testing.assert_allclose(report.density.values, 1 / 3.0, rtol=1e-12)

    def test_step_trace_determines_iterations_and_step_sizes(self):
        # beta is 1 on full and secant steps and tau_c on the others
        g = make_grid(3.0, 129)
        solved = solve(Problem(g, zero_kernel(), ZeroPotential(), 0.5), indicator_density(g, 0, 1))
        steps = ["full", "secant", "anderson", "conservative", "full"]
        report = dataclasses.replace(solved, step_trace=steps, tau_c=0.125)
        assert report.iterations == 5
        assert report.tau_trace == [1.0, 1.0, 0.125, 0.125, 1.0]

    def test_converged_state_is_a_fixed_point(self):
        nu = 2.0**-6
        g = make_grid(4.0, 512)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), nu)
        report = solve(problem, indicator_density(g, 0, 2))
        assert report.converged
        assert fixed_point_residual(problem, report.density) < 1e-6

    def test_free_space_state_is_symmetric_about_its_mean(self):
        CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline

        nu = 2.0**-6
        g = make_grid(4.0, 1024)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), nu)
        report = solve(problem, indicator_density(g, 0, 2))
        m1 = moments(report.density).m1
        spline = CubicSpline(g.nodes, report.density.values)
        mirrored = np.where(
            (2 * m1 - g.nodes >= 0) & (2 * m1 - g.nodes <= 4.0),
            spline(np.clip(2 * m1 - g.nodes, 0.0, 4.0)),
            0.0,
        )
        assert integrate(g, np.abs(report.density.values - mirrored)) <= 1e-4

    def test_energy_decreases_on_full_steps(self):
        # a converging case whose full steps are rejected often enough that
        # the Anderson and conservative branches both run
        g = make_grid(8.0, 128)
        problem = Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), 2.0**-10)
        report = solve(problem, indicator_density(g, 0, 8.0))
        assert report.converged
        assert {"anderson", "conservative"} <= set(report.step_trace)
        for k, step in enumerate(report.step_trace):
            if step != "conservative":
                assert report.energy_trace[k + 1] < report.energy_trace[k]

    def test_full_steps_only_leave_plain_trace(self):
        # every image lowers the energy: the steps are full or secant, both of
        # step size 1, and a converged solve returns a Gibbs image; at half the
        # critical slope the solve takes secant steps, at the slope itself none
        from swarmeq import LinearPotential, critical_slope

        nu = 2.0**-6
        g = make_grid(2.0, 512)
        kinds = set()
        for slope in (0.5 * critical_slope(nu), critical_slope(nu)):
            problem = Problem(g, PowerLawKernel(2.0), LinearPotential(slope), nu)
            report = solve(problem, indicator_density(g, 0, 0.25))
            assert report.converged
            assert set(report.step_trace) <= {"full", "secant"}
            assert report.step_trace[-1] == "full"
            assert report.tau_trace == [1.0] * report.iterations
            kinds |= set(report.step_trace)
        assert kinds == {"full", "secant"}

    def test_partition_value_settles_at_one(self):
        from swarmeq import LinearPotential, apply_gibbs_map, critical_slope
        from swarmeq.gibbs import log_partition

        nu = 2.0**-6
        g = make_grid(2.0, 512)
        problem = Problem(g, PowerLawKernel(2.0), LinearPotential(critical_slope(nu)), nu)
        report = solve(problem, indicator_density(g, 0, 0.25))
        assert report.converged
        assert report.iterations > 3  # long enough for the multiplier to settle
        # partition value of one more map step, offset by the current
        # multiplier -nu log Z(rho)
        image = apply_gibbs_map(problem, report.density)
        z = np.exp(log_partition(problem, image) - log_partition(problem, report.density))
        assert abs(z - 1.0) <= 1e-4

    def test_multiplier_equals_total_plus_interaction(self):
        from swarmeq import LinearPotential, critical_slope

        nu = 2.0**-6
        free = make_grid(4.0, 512)
        wall = make_grid(2.0, 512)
        cases = [
            (Problem(free, PowerLawKernel(2.0), ZeroPotential(), nu),
             indicator_density(free, 0, 2)),
            (Problem(wall, PowerLawKernel(2.0), LinearPotential(critical_slope(nu)), nu),
             indicator_density(wall, 0, 0.25)),
        ]
        for problem, rho0 in cases:
            report = solve(problem, rho0)
            assert report.converged
            diag = report.diagnostics
            assert diag.lam == pytest.approx(
                diag.energy.total + diag.energy.interaction, abs=1e-6
            )

    def test_non_convergence_is_reported_not_raised(self):
        nu = 2.0**-10
        g = make_grid(8.0, 128)
        report = solve(
            Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), nu),
            indicator_density(g, 0, 8), SolverConfig(max_iterations=2),
        )
        assert not report.converged
        assert report.iterations == 2

    def test_rejects_start_on_another_grid(self):
        problem = Problem(make_grid(2.0, 64), PowerLawKernel(2.0), ZeroPotential(), 0.1)
        with pytest.raises(ValueError, match="grid"):
            solve(problem, indicator_density(make_grid(2.0, 64), 0, 1))

    def test_final_density_is_valid(self, rng):
        g = make_grid(2.0, 256)
        rho0 = Density.normalized(g, rng.random(256) + 0.01)
        report = solve(Problem(g, PowerLawKernel(2.0), ZeroPotential(), 0.1), rho0)
        assert abs(report.density.mass - 1.0) <= 1e-10
        assert np.all(report.density.values >= 0)

    def test_start_density_is_not_written(self):
        # iterates are formed in place only in arrays a step made itself
        g = make_grid(8.0, 128)
        problem = Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), 2.0**-6)
        rho0 = indicator_density(g, 0, 8)
        before = rho0.values.copy()
        report = solve(problem, rho0, SolverConfig(max_iterations=40))
        assert {"anderson", "conservative"} <= set(report.step_trace)
        schedule = ContinuationSchedule((2.0**-5, 2.0**-6))
        solve_with_continuation(problem, schedule, rho0, SolverConfig(max_iterations=40))
        assert rho0.values.tobytes() == before.tobytes()

    def test_convex_combination_preserves_density_invariants(self, rng):
        g = make_grid(2.0, 128)
        a = Density.normalized(g, rng.random(128) + 0.01)
        b = Density.normalized(g, rng.random(128) + 0.01)
        combo = Density(g, 0.7 * a.values + 0.3 * b.values)
        assert abs(combo.mass - 1.0) <= 1e-10


class _NanAt(ExternalPotential):
    """V = 0 except at x = x0, where it is NaN."""

    def __init__(self, x0):
        self.x0 = x0

    def __call__(self, x):
        return np.where(np.asarray(x) == self.x0, np.nan, 0.0)


class TestSolveErrors:
    def test_non_finite_exponent_names_the_iteration(self):
        g = make_grid(2.0, 65)
        problem = Problem(g, PowerLawKernel(2.0), _NanAt(g.nodes[7]), 0.1)
        with pytest.raises(GibbsMapError, match=r"^iteration 0: non-finite exponent at node 7"):
            solve(problem, indicator_density(g, 0, 1))

    def test_zero_partition_value_names_the_iteration(self):
        # unreachable with positive weights, where the node of least exponent
        # maps to 1; weights zeroed after the start density is built reach it
        g = make_grid(2.0, 65)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), 0.1)
        rho0 = indicator_density(g, 0, 1)
        g.weights[:] = 0.0
        with pytest.raises(GibbsMapError, match=r"^iteration 0: partition value 0\.0"):
            solve(problem, rho0)

    def test_non_finite_image_energy_names_the_iteration_and_the_stage(self, monkeypatch):
        # every energy of a finite problem is finite, so the total of the
        # first image at nu = 0.1 is made NaN; the first energy of each solve
        # is its start density's
        real, calls = solver.energy_breakdown, []

        def energy(problem, values, conv):
            calls.append(problem.nu)
            breakdown = real(problem, values, conv)
            if problem.nu == 0.1 and calls.count(0.1) == 2:
                return dataclasses.replace(breakdown, total=math.nan)
            return breakdown

        monkeypatch.setattr(solver, "energy_breakdown", energy)
        g = make_grid(2.0, 65)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), 0.1)
        rho0, config = indicator_density(g, 0, 1), SolverConfig(max_iterations=5)
        with pytest.raises(GibbsMapError, match=r"^iteration 0: non-finite energy nan$"):
            solve(problem, rho0, config)
        calls.clear()
        with pytest.raises(GibbsMapError, match=r"^continuation stage 1 \(nu = 0\.1\): "
                                                r"iteration 0: non-finite energy nan$"):
            solve_with_continuation(problem, ContinuationSchedule((0.2, 0.1)), rho0, config)
        assert calls[:2] == [0.2, 0.2] and calls.count(0.1) == 2

    @pytest.mark.parametrize("size,where", [
        (1024, r"coarse grid of 1024 nodes, continuation stage 0 \(nu = 0\.02\)"),
        (2048, r"continuation stage 1 \(nu = 0\.01\)"),
    ])
    def test_continuation_names_the_grid_and_the_stage(self, size, where):
        # V is NaN at node 1 of one grid only, so the first solve on that
        # grid fails: at stage 0 on the coarse grid, at the last stage on
        # the requested one
        coarse, grid = make_grid(4.0, 1024), make_grid(4.0, 2048)
        x0 = (coarse if size == 1024 else grid).nodes[1]
        assert (x0 in coarse.nodes) != (x0 in grid.nodes)
        problem = Problem(grid, PowerLawKernel(2.0), _NanAt(x0), 0.01)
        with pytest.raises(GibbsMapError, match=f"^{where}: iteration 0: non-finite exponent "
                                                f"at node 1"):
            solve_with_continuation(problem, ContinuationSchedule((0.02, 0.01)),
                                    indicator_density(grid, 0, 4), SolverConfig(max_iterations=5))


def _subnormal(a: np.ndarray) -> bool:
    return bool(np.any((a != 0) & (np.abs(a) < np.finfo(float).tiny)))


def _watch_subnormals(monkeypatch) -> dict[str, list]:
    """Spy on `solve`: per step whether |f| = |T(rho) - rho| holds a subnormal
    entry ("f"), and per fit its step and whether its inputs, the pushed
    difference row and the weighted f, hold one ("fit", as (step, subnormal))."""
    seen = {"f": [], "fit": []}
    real_integrate, real_fit = solver.integrate, solver._fit

    def integrate(grid, values):  # `solve` integrates only |f|, once per step
        seen["f"].append(_subnormal(values))
        return real_integrate(grid, values)

    def fit(gram, d_f, slot, m, wf):
        seen["fit"].append((len(seen["f"]) - 1, _subnormal(d_f[slot]) or _subnormal(wf)))
        return real_fit(gram, d_f, slot, m, wf)

    monkeypatch.setattr(solver, "integrate", integrate)
    monkeypatch.setattr(solver, "_fit", fit)
    return seen


class TestAnderson:
    def test_floored_stage_keeps_subnormals_out_of_the_fit(self, monkeypatch):
        # the first stage of the default multistate run, whose aggregates leave
        # nodes between them at the exponent floor
        seen = _watch_subnormals(monkeypatch)
        g = make_grid(8.0, 1024)
        problem = Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), 10 * 2.0**-13)
        report = solve(problem, indicator_density(g, 0, 8))
        assert report.converged and "anderson" in report.step_trace
        assert len(seen["f"]) == report.iterations and not any(seen["f"])
        assert seen["fit"] and not any(subnormal for _, subnormal in seen["fit"])

    def test_gram_fit_matches_least_squares(self, monkeypatch):
        # every fit of the first stage of the default multistate run against
        # np.linalg.lstsq on the same ring, wherever the ring is well
        # conditioned: the normal equations square its condition number
        checked, real_fit = [], solver._fit

        def fit(gram, d_f, slot, m, wf):
            gamma, b = real_fit(gram, d_f, slot, m, wf)
            if np.linalg.cond(d_f[:m]) <= 100:
                expected = np.linalg.lstsq(d_f[:m].T, wf, rcond=None)[0]
                assert gamma is not None
                checked.append(np.linalg.norm(gamma - expected) / np.linalg.norm(expected))
            return gamma, b

        monkeypatch.setattr(solver, "_fit", fit)
        g = make_grid(8.0, 1024)
        problem = Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), 10 * 2.0**-13)
        report = solve(problem, indicator_density(g, 0, 8))
        assert report.converged
        assert len(checked) >= report.step_trace.count("anderson") // 2
        assert max(checked) <= 1e-10

    @pytest.mark.parametrize("beta", ["tau_c", "1"])
    def test_zero_difference_gives_no_candidate(self, monkeypatch, beta):
        # a zero difference makes the Gram matrix singular: the fit gives no
        # gamma, and the step takes y without trying a candidate
        if beta == "tau_c":
            problem = self._problem()
            rho0 = indicator_density(problem.grid, 0, 8)
        else:
            problem = _secant_problem()
            rho0 = indicator_density(problem.grid, 0, 0.25)
        fits, tries, real_fit = [], [], solver._fit

        def fit(gram, d_f, slot, m, wf):
            d_f[slot] = 0.0
            fits.append((m, *real_fit(gram, d_f, slot, m, wf)))
            return fits[-1][1:]

        monkeypatch.setattr(solver, "_fit", fit)
        monkeypatch.setattr(solver, "_anderson_candidate", lambda *args: tries.append(args))
        report = solve(problem, rho0, SolverConfig(max_iterations=40))
        assert fits and all(gamma is None for _, gamma, _ in fits)
        assert not tries
        assert not {"anderson", "secant"} & set(report.step_trace)
        if beta == "tau_c":
            assert max(m for m, _, _ in fits) == solver.ANDERSON_DEPTH
        else:
            assert report.tau_trace == [1.0] * report.iterations

    def test_zero_one_column_difference_gives_no_gamma_quietly(self):
        d_f = np.zeros((solver.ANDERSON_DEPTH, 64))
        gram = np.empty((solver.ANDERSON_DEPTH, solver.ANDERSON_DEPTH))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma, b = solver._fit(gram, d_f, 0, 1, np.linspace(-1.0, 1.0, 64))
        assert gamma is None and b.tolist() == [0.0]

    def test_one_column_fit_equals_the_linear_solve(self, rng):
        # on a 1 x 1 system the solve is the division b / gram[0, 0], bit for bit
        gram = np.empty((solver.ANDERSON_DEPTH, solver.ANDERSON_DEPTH))
        d_f = np.zeros((solver.ANDERSON_DEPTH, 16))
        for _ in range(500):
            d_f[0] = rng.standard_normal(16) * 10.0 ** rng.uniform(-20, 20)
            wf = rng.standard_normal(16) * 10.0 ** rng.uniform(-20, 20)
            gamma, b = solver._fit(gram, d_f, 0, 1, wf)
            assert gamma.tolist() == np.linalg.solve(gram[:1, :1], b).tolist()
            assert gamma.tolist() == (b / gram[0, 0]).tolist()

    def _problem(self):
        g = make_grid(8.0, 128)
        return Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), 2.0**-6)

    def test_candidate_mass_gate(self):
        problem = self._problem()
        values = indicator_density(problem.grid, 0, 8).values
        conv = problem.operator.apply(values)
        assert solver._anderson_candidate(problem, values, conv, math.inf) is not None
        drifted = (1 + 10 * MASS_TOL) * values
        assert solver._anderson_candidate(problem, drifted, conv, math.inf) is None
        # a NaN fails the positivity test, and +inf the mass test
        for bad in (math.nan, math.inf):
            broken = values.copy()
            broken[5] = bad
            assert solver._anderson_candidate(problem, broken, conv, math.inf) is None

    def test_drifted_candidate_gives_conservative_step(self, monkeypatch):
        problem = self._problem()
        rho0 = indicator_density(problem.grid, 0, 8)
        config = SolverConfig(max_iterations=20)
        plain = solve(problem, rho0, config)
        k = plain.step_trace.index("anderson")
        real = solver._anderson_candidate
        monkeypatch.setattr(
            solver, "_anderson_candidate",
            lambda problem, values, conv, energy: real(
                problem, (1 + 10 * MASS_TOL) * values, conv, energy),
        )
        drifted = solve(problem, rho0, config)
        assert "anderson" not in drifted.step_trace
        assert drifted.step_trace[: k + 1] == [*plain.step_trace[:k], "conservative"]


def _secant_problem(length=2.0, p=2.0, slope_factor=0.5, n=512):
    """A problem whose every image lowers the energy, so that each fit of its
    solve is a secant fit."""
    from swarmeq import LinearPotential, critical_slope

    nu = 2.0**-6
    g = make_grid(length, n)
    slope = nu if slope_factor is None else slope_factor * critical_slope(nu)
    return Problem(g, PowerLawKernel(p), LinearPotential(slope), nu)


class TestSecant:
    @pytest.mark.parametrize("length,p,slope_factor,support,n", [
        (2.0, 2.0, 0.5, 0.25, 256),  # kp2 at half the critical slope, direct sum
        (4.0, 1.5, None, 1.0, 512),  # g = nu, FFT product
    ], ids=["direct", "fft"])
    def test_accepted_step_carries_its_convolution_and_lowers_energy(
        self, monkeypatch, length, p, slope_factor, support, n
    ):
        problem = _secant_problem(length, p, slope_factor, n)
        taken = []
        real = solver._anderson_candidate

        def spy(*args):
            out = real(*args)
            if out is not None:
                taken.append(out)
            return out

        monkeypatch.setattr(solver, "_anderson_candidate", spy)
        report = solve(problem, indicator_density(problem.grid, 0, support))
        assert report.converged
        assert report.step_trace.count("secant") > 0
        assert len(taken) == report.step_trace.count("secant") + report.step_trace.count("anderson")
        for values, conv, _ in taken:
            # relative to the largest entry: an FFT product's roundoff scales with it
            exact = problem.operator.apply(values)
            assert np.max(np.abs(conv - exact)) <= 1e-12 * np.max(np.abs(exact))
        for k, step in enumerate(report.step_trace):
            if step == "secant":
                assert report.energy_trace[k + 1] < report.energy_trace[k]

    def test_gamma_is_the_weighted_least_squares_coefficient(self, monkeypatch):
        # every try is (1 - gamma) T(rho) + gamma T(rho_prev) with the closed
        # form gamma = <df, f>_w / <df, df>_w, f = T(rho) - rho, df = f - f_prev
        problem = _secant_problem()
        rho0 = indicator_density(problem.grid, 0, 0.25)
        images, tries = [], []
        real_gibbs, real_candidate = solver.gibbs_values, solver._anderson_candidate

        def gibbs(problem, conv):
            images.append(real_gibbs(problem, conv))
            return images[-1]

        def candidate(problem, values, conv, energy):
            out = real_candidate(problem, values, conv, energy)
            tries.append((len(images) - 1, values, out))
            return out

        monkeypatch.setattr(solver, "gibbs_values", gibbs)
        monkeypatch.setattr(solver, "_anderson_candidate", candidate)
        report = solve(problem, rho0)
        assert report.converged and set(report.step_trace) == {"full", "secant"}
        taken = {k: out[0] for k, _, out in tries if out is not None}
        iterates = [rho0.values]
        for k, step in enumerate(report.step_trace):
            iterates.append(taken[k] if step == "secant" else images[k])
        w = problem.grid.weights
        assert tries
        for k, values, _ in tries:
            f = images[k] - iterates[k]
            df = f - (images[k - 1] - iterates[k - 1])
            gamma = (w * df @ f) / (w * df @ df)
            expected = (1 - gamma) * images[k] + gamma * images[k - 1]
            assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(expected)

    def test_gamma_needs_a_difference_and_a_gain(self, monkeypatch):
        # a fit on a zero difference, or on one orthogonal to f in the weighted
        # product, removes nothing: no candidate is tried, and each such fit
        # skips the next SECANT_BACKOFF full steps
        problem = _secant_problem(4.0, 1.5, None)
        rho0 = indicator_density(problem.grid, 0, 1.0)
        real_fit = solver._fit
        for blind in (lambda a, b: 0 * a, lambda a, b: a - b * (b @ a) / (b @ b)):
            fits, tries = [], []

            def fit(gram, d_f, slot, m, wf):
                fits.append(m)
                d_f[slot] = blind(d_f[slot], wf)
                return real_fit(gram, d_f, slot, m, wf)

            monkeypatch.setattr(solver, "_fit", fit)
            monkeypatch.setattr(solver, "_anderson_candidate", lambda *args: tries.append(args))
            report = solve(problem, rho0)
            assert report.converged and set(report.step_trace) == {"full"}
            assert fits and all(m == 1 for m in fits)
            assert not tries
            assert len(fits) <= report.iterations // (solver.SECANT_BACKOFF + 1) + 1

    def test_floored_record_keeps_subnormals_out_of_the_fit(self, monkeypatch):
        # kplarge p = 256, g = 0 at N = 1024: most of the density sits at the
        # exponent floor, which keeps f and the fit inputs normal, and the
        # secant tries all fail
        seen = _watch_subnormals(monkeypatch)
        (record,) = run_experiment(ExperimentConfig("kplarge", {"p": [256.0], "g": [0.0]}))
        (report,) = record.solve_reports
        assert report.converged
        assert report.iterations <= 1048  # the count without the secant step
        assert len(seen["f"]) == report.iterations and not any(seen["f"])
        assert seen["fit"] and not any(subnormal for _, subnormal in seen["fit"])
        # every try fails, and each failure skips the next SECANT_BACKOFF full steps
        assert "secant" not in report.step_trace
        secant_fits = [k for k, _ in seen["fit"] if report.step_trace[k] == "full"]
        assert secant_fits
        assert len(secant_fits) <= report.iterations // (solver.SECANT_BACKOFF + 1) + 1

    def test_converged_step_returns_the_image(self):
        # kpsmall p = 1.125, g = nu takes secant steps up to the step whose
        # residual test passes; that step takes the Gibbs image
        (record,) = run_experiment(ExperimentConfig("kpsmall", {"p": [1.125], "g": [2.0**-6]}))
        (report,) = record.solve_reports
        assert report.converged
        assert report.step_trace[-2:] == ["secant", "full"]


class TestWork:
    """What a solve evaluates: one energy for the start, one per image, one
    per candidate that passes the positivity and mass checks and one per
    conservative step taken; one apply of the operator for the start, one per
    image and one for the diagnostics of the returned density, on their first
    read."""

    @pytest.mark.parametrize("case", ["direct-secant", "fft", "qanr-anderson"])
    def test_energy_and_apply_counts(self, monkeypatch, case):
        if case == "direct-secant":
            problem = _secant_problem(n=256)
            rho0, kinds = indicator_density(problem.grid, 0, 0.25), {"secant"}
        elif case == "fft":
            problem = _secant_problem(4.0, 1.5, None)
            rho0, kinds = indicator_density(problem.grid, 0, 1.0), {"full"}
        else:
            g = make_grid(8.0, 128)
            problem = Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), 2.0**-10)
            rho0, kinds = indicator_density(g, 0, 8.0), {"anderson", "conservative"}
        counts = {"energy": 0, "apply": 0, "candidates": 0}
        real_energy, real_apply = solver.energy_breakdown, KernelOperator.apply
        real_candidate = solver._anderson_candidate

        def energy(*args):
            counts["energy"] += 1
            return real_energy(*args)

        def apply(self, values):
            counts["apply"] += 1
            return real_apply(self, values)

        def candidate(problem, values, conv, bound):
            if values.min() > 0:
                try:
                    check_density(problem.grid, values)
                    counts["candidates"] += 1
                except ValueError:
                    pass
            return real_candidate(problem, values, conv, bound)

        monkeypatch.setattr(solver, "energy_breakdown", energy)
        monkeypatch.setattr(KernelOperator, "apply", apply)
        monkeypatch.setattr(solver, "_anderson_candidate", candidate)
        report = solve(problem, rho0)
        assert report.converged and kinds <= set(report.step_trace)
        conservative = report.step_trace.count("conservative")
        assert counts["energy"] == (
            1 + report.iterations + counts["candidates"] + conservative
        )
        assert counts["apply"] == report.iterations + 1
        assert report.diagnostics is report.diagnostics
        assert counts["apply"] == report.iterations + 2


class TestContinuation:
    def test_single_entry_equals_plain_solve(self):
        nu = 2.0**-6
        g = make_grid(4.0, 256)
        rho0 = indicator_density(g, 0, 2)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), nu)
        direct = solve(problem, rho0)
        staged = solve_with_continuation(problem, ContinuationSchedule((nu,)), rho0)
        assert len(staged) == 1
        np.testing.assert_array_equal(staged[0].density.values, direct.density.values)
        assert staged[0].iterations == direct.iterations

    def test_schedule_must_end_at_problem_nu(self):
        g = make_grid(4.0, 64)
        problem = Problem(g, PowerLawKernel(2.0), ZeroPotential(), 2.0**-6)
        with pytest.raises(ValueError, match="schedule ends at 0.03125"):
            solve_with_continuation(
                problem, ContinuationSchedule((2.0**-4, 2.0**-5)), indicator_density(g, 0, 2)
            )

    def test_warm_start_chains_stages(self):
        from swarmeq import LinearPotential, critical_slope

        g = make_grid(2.0, 256)
        schedule = ContinuationSchedule.geometric(2.0**-4, 2.0**-6, stages=3)
        potential = LinearPotential(critical_slope(2.0**-6))
        problem = Problem(g, PowerLawKernel(2.0), potential, 2.0**-6)
        rho0 = indicator_density(g, 0, 2.0)
        reports = solve_with_continuation(problem, schedule, rho0)
        assert [r.nu for r in reports] == list(schedule.nus)
        assert all(r.converged for r in reports)
        # each earlier stage is a new problem on the same grid, kernel and
        # potential; the last stage solves `problem` itself
        assert reports[-1].problem is problem
        for r in reports[:-1]:
            assert r.problem.grid is g and r.problem.operator is not problem.operator
            assert (r.problem.kernel, r.problem.potential) == (problem.kernel, potential)
        # the warm-started last stage needs far fewer iterations than the
        # same stage started cold from the uniform density
        cold = solve(problem, rho0)
        assert cold.converged
        assert reports[-1].iterations < 0.75 * cold.iterations

    def test_metastable_schedule_converges(self):
        # attractive-repulsive aggregates translate slowly at nu = 2**-13:
        # the relaxed scheme alone leaves every stage at the iteration budget
        nu = 2.0**-13
        g = make_grid(8.0, 128)
        reports = solve_with_continuation(
            Problem(g, RegularizedQanrKernel(0.3), ZeroPotential(), nu),
            ContinuationSchedule.geometric(2 * nu, nu, stages=8),
            indicator_density(g, 0, 8),
        )
        assert [r.converged for r in reports] == [True] * 8
        assert any("anderson" in r.step_trace for r in reports)
        for report in reports:
            for k, step in enumerate(report.step_trace):
                if step != "conservative":
                    assert report.energy_trace[k + 1] < report.energy_trace[k]

    def test_step_sizes_follow_stage_diffusion(self):
        g = make_grid(4.0, 128)
        schedule = ContinuationSchedule((2.0**-4, 2.0**-5))
        reports = solve_with_continuation(
            Problem(g, PowerLawKernel(2.0), ZeroPotential(), 2.0**-5),
            schedule, indicator_density(g, 0, 2),
        )
        assert [r.tau_c for r in reports] == [min(5 * nu, 0.95) for nu in schedule.nus]


class TestRefinement:
    @pytest.mark.parametrize("n,sizes", [
        (1024, []), (2046, []), (2047, [1024]), (2048, [1024]), (3000, [1500]),
        (8192, [1024, 2048, 4096]), (8191, [1024, 2048, 4096]),
    ])
    def test_refinement_grids_halve_down_to_the_default_grid(self, n, sizes):
        grid = make_grid(4.0, n)
        levels = solver.refinement_grids(grid)
        assert [level.size for level in levels] == sizes
        assert all(level == make_grid(4.0, level.size) for level in levels)

    @pytest.mark.parametrize("source,target", [
        (make_grid(4.0, a), make_grid(4.0, b))
        for a, b in ((8192, 1024), (1024, 8192), (3000, 1500), (2048, 700))
    ])
    def test_transfer_keeps_mass_and_sign(self, source, target):
        # a positive density with a tail at the exponent floor, far below the
        # roundoff of the total mass: every cell keeps a positive value
        x = source.nodes
        rho = Density.normalized(source, np.maximum(np.exp(-40 * (x - 1) ** 2), 1e-260))
        moved = solver.transfer(rho, target)
        assert moved.grid is target
        assert abs(moved.mass - rho.mass) <= MASS_TOL
        assert np.all(moved.values > 0)

    def test_transfer_keeps_a_constant(self):
        uniform = Density.normalized(make_grid(4.0, 2048), np.ones(2048))
        moved = solver.transfer(uniform, make_grid(4.0, 1024))
        np.testing.assert_allclose(moved.values, 0.25, rtol=1e-13)

    def test_transfer_keeps_a_start_narrower_than_a_cell(self):
        # one node of N = 8192 in [1.0012, 1.0016]: linear interpolation onto
        # N = 1024 would give it no mass
        fine, coarse = make_grid(4.0, 8192), make_grid(4.0, 1024)
        rho = indicator_density(fine, 1.0012, 1.0016)
        assert np.count_nonzero(rho.values) == 1
        moved = solver.transfer(rho, coarse)
        assert abs(moved.mass - 1.0) <= MASS_TOL
        assert np.all(moved.values >= 0) and 1 <= np.count_nonzero(moved.values) <= 2
        assert np.all(np.abs(coarse.nodes[moved.values > 0] - 1.0014) < 2 * 4.0 / 1023)


class TestOrder:
    def test_kp2_energy_is_second_order(self):
        # the method's order of accuracy: on the kp2 grid each doubling of N
        # from 256 to 2048 divides the energy's change by 4; at the critical
        # slope gc the half-Gaussian's odd derivatives vanish at the wall, and
        # the change falls by 16 (measured 16.14 and 16.08)
        from swarmeq import critical_slope

        gc = critical_slope(2.0**-6)
        energies = np.array([
            [r.metrics["total_energy"] for r in run_experiment(
                ExperimentConfig("kp2", {"N": n, "g": [0.25 * gc, gc, 4 * gc]}))]
            for n in (256, 512, 1024, 2048)
        ])
        differences = np.diff(energies, axis=0)
        ratios = differences[:-1] / differences[1:]
        assert ratios.shape == (2, 3)
        assert np.all(np.abs(ratios[:, [0, 2]] - 4) <= 0.2), ratios
        assert np.all(np.abs(ratios[:, 1] - 16) <= 0.8), ratios


class TestCountAggregates:
    def grid_density(self, values):
        g = make_grid(float(len(values) - 1), len(values))
        return Density.normalized(g, np.asarray(values, dtype=float))

    def test_uniform_has_none(self):
        assert count_aggregates(self.grid_density(np.ones(33)), 0.05) == 0

    def test_single_interior_bump(self):
        g = make_grid(2.0, 257)
        rho = Density.normalized(g, np.exp(-((g.nodes - 1.0) ** 2) * 200))
        assert count_aggregates(rho, 0.05) == 1

    def test_four_bumps(self):
        g = make_grid(8.0, 1025)
        v = sum(np.exp(-((g.nodes - c) ** 2) * 80) for c in (2.0, 3.2, 4.4, 5.6))
        assert count_aggregates(Density.normalized(g, v), 0.05) == 4

    def test_prominence_filters_ripples(self):
        g = make_grid(2.0, 513)
        base = np.exp(-((g.nodes - 1.0) ** 2) * 50)
        ripple = base * (1 + 0.01 * np.sin(40 * g.nodes))
        assert count_aggregates(Density.normalized(g, ripple), 0.05) == 1

    def test_dominating_endpoint_counts(self):
        g = make_grid(2.0, 257)
        rho = Density.normalized(g, np.exp(-3.0 * g.nodes))
        assert count_aggregates(rho, 0.05) == 1

    def test_flat_top_counts_once(self):
        x = np.arange(65.0)
        rho = self.grid_density(np.clip(8 - np.abs(x - 32), 0, 4))
        assert count_aggregates(rho, 0.05) == 1

    def test_separated_flat_tops_count_apart(self):
        x = np.arange(65.0)
        v = np.clip(8 - np.abs(x - 20), 0, 4) + np.clip(8 - np.abs(x - 44), 0, 4)
        assert count_aggregates(self.grid_density(v), 0.05) == 2

    def test_rejects_bad_prominence(self):
        with pytest.raises(ValueError):
            count_aggregates(self.grid_density(np.ones(9)), 0.0)

    def test_rejects_nan_prominence(self):
        with pytest.raises(ValueError, match="prominence"):
            count_aggregates(self.grid_density(np.ones(9)), math.nan)

    def test_roundoff_ripples_on_a_flat_top_count_once(self):
        # an FFT product leaves the top of a saturated cluster as runs of
        # equal values a unit in the last place apart, several at the maximum
        x = np.arange(65.0)
        v = self.grid_density(np.clip(8 - np.abs(x - 32), 0, 4)).values
        top = np.flatnonzero(v == v.max())
        v[top[1::3]] = np.nextafter(v.max(), 0.0)
        assert count_aggregates(Density(make_grid(64.0, 65), v), 0.05) == 1

    def test_shoulder_counts_with_its_cluster(self):
        # a bump just below the top of a cluster, behind a dip shallower than
        # the prominence, is not a cluster of its own and does not hide it
        x = np.arange(65.0)
        v = np.clip(10 - np.abs(x - 32), 0, None)
        v[33:35] = (9.6, 9.7)
        assert count_aggregates(self.grid_density(v), 0.05) == 1

    def test_counts_equal_the_loop_over_runs(self, rng):
        # the scan for maxima against a loop over every run of equal values
        def reference(v, prominence):
            n, threshold = v.size, prominence * v.max()
            breaks = (np.flatnonzero(np.diff(v)) + 1).tolist()
            runs = zip([0, *breaks], [i - 1 for i in breaks] + [n - 1])
            count = 0
            for a, b in runs:
                if not ((a > 0 or b < n - 1) and (a == 0 or v[a - 1] < v[a])
                        and (b == n - 1 or v[b + 1] < v[b])):
                    continue
                bases = []
                if a > 0:
                    higher = np.flatnonzero(v[:a] >= v[a])
                    bases.append(v[higher[-1] + 1 if higher.size else 0:a].min())
                if b < n - 1:
                    higher = np.flatnonzero(v[b + 1:] > v[a])
                    bases.append(v[b + 1:b + 1 + higher[0] if higher.size else n].min())
                count += v[a] - max(bases) >= threshold
            return count

        counts = set()
        for _ in range(200):
            n = int(rng.integers(2, 80))
            # few distinct levels, so that runs of equal values are common
            levels = rng.integers(0, int(rng.integers(2, 6)), n)
            rho = Density.normalized(make_grid(float(n - 1), n), levels + 1e-3)
            for prominence in (0.05, 0.3, 0.7):
                count = count_aggregates(rho, prominence)
                assert count == reference(rho.values, prominence)
                counts.add(count)
        assert len(counts) > 3
