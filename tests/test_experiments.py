import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import exact_gibbs_image

import swarmeq
from swarmeq import (
    ContinuationSchedule,
    KernelOperator,
    LinearPotential,
    PowerLawKernel,
    Problem,
    SolverConfig,
    ZeroPotential,
    apply_gibbs_map,
    indicator_density,
    make_grid,
    solve,
    solve_with_continuation,
)
from swarmeq import experiments, solver
from swarmeq.cli import build_parser, main
from swarmeq.experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ResultRecord,
    emit,
    record_scalars,
    run_experiment,
)

SOLVE_KEYS = {"nu", "g", "L", "N", "tol", "N_max", "tau_c"}
CONTINUATION_KEYS = {"eps", "schedule", "stages", "prominence"}
# Each experiment in CLI order: the override keys it accepts, and one key that
# only another experiment accepts.
ACCEPTED_KEYS = {
    "kp2": (SOLVE_KEYS, "p"),
    "kpsmall": (SOLVE_KEYS | {"p"}, "eps"),
    "kplarge": (SOLVE_KEYS | {"p"}, "eps"),
    "multistate": ((SOLVE_KEYS - {"g"}) | CONTINUATION_KEYS, "p"),
    "gamma-energy": ({"nu", "g", "c_min", "c_max", "n_c"}, "N"),
    "effdim": ({"seed", "samples"}, "nu"),
    "custom": (SOLVE_KEYS | CONTINUATION_KEYS | {"kernel", "p", "rho0_interval"}, "seed"),
}

# Scalar keys of each solving experiment's records, in emitted order; the JSON
# keys and the CSV columns follow it.
ECHO_KEYS = ["param_L", "param_N", "param_grid", "param_tol", "param_N_max", "param_tau_c"]
METRIC_KEYS = [
    "converged", "iterations", "coarse_iterations", "residual", "lambda", "interaction_energy",
    "entropy", "potential_energy", "total_energy", "lambda_inf", "lambda_inf_support", "e0",
    "com_drift", "m1", "m2", "aggregates", "tail_value", "tail_ok",
]
RECORD_KEYS = {
    "kp2": ["experiment", "param_nu", "param_g", "param_g_over_gc", *ECHO_KEYS,
            "param_rho0", *METRIC_KEYS, "l1_error_exact", "exact_shift"],
    "kpsmall": ["experiment", "param_nu", "param_p", "param_g", *ECHO_KEYS,
                "param_rho0", *METRIC_KEYS],
    "kplarge": ["experiment", "param_nu", "param_p", "param_g", *ECHO_KEYS,
                "param_rho0", *METRIC_KEYS, "l1_limit_distance", "mass_in_window"],
    "multistate": ["experiment", "param_nu", "param_eps", "param_nu0_over_nu",
                   "param_stages", "param_schedule", *ECHO_KEYS, "param_prominence", "param_rho0",
                   *METRIC_KEYS, "total_iterations", "stages_converged"],
    "custom": ["experiment", "param_kernel", "param_nu", "param_g", *ECHO_KEYS,
               "param_prominence", "param_rho0_interval", "param_p", *METRIC_KEYS,
               "total_iterations", "stages_converged"],
}


SCHEDULE = ["--set", "schedule=[0.02,0.01]"]


def tiny_kp2():
    return run_experiment(
        ExperimentConfig("kp2", overrides={"N": 256, "tol": 1e-5})
    )


def v2_document(records):
    """The v2 JSON text of `records` as the `json.dumps` writer wrote it, in
    which a density record's samples hold only y and non-finite samples are
    NaN, Infinity or -Infinity."""
    return json.dumps({"schema": "swarmeq.records.v2", "records": [
        {**{k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record_scalars(r).items()},
         "wall_time_s": r.wall_time_s, "samples_kind": r.samples_kind,
         "samples": {"y": r.samples_y.tolist()} if r.samples_kind == "density"
         else {"x": r.samples_x.tolist(), "y": r.samples_y.tolist()}}
        for r in records
    ]})


def demo_record(xs=(0.0, 0.5), ys=(2.0, 1.0), kind="density", **parameters):
    return ResultRecord("demo", parameters, {"converged": True}, kind,
                        np.array(xs, dtype=float), np.array(ys, dtype=float), 0.125)


def exact(value):
    """A parsed JSON value with each finite float as its `float.hex` spelling
    and each non-finite one as None, and each object as its list of items: two
    values compare equal when they hold the same keys in the same order and
    the same floats bit for bit."""
    if isinstance(value, dict):
        return [(key, exact(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [exact(item) for item in value]
    if isinstance(value, float):
        return value.hex() if math.isfinite(value) else None
    return value


def strict_loads(text):
    """`json.loads` that rejects NaN, Infinity and -Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


FLOAT_SPELLINGS = [-0.0, 5e-324, 1e-300, 1e16, 1e22, 2.0, -3.0, 0.1, 123456789.0]
# Records whose JSON document must parse to v2_document's, float for float.
V2_CASES = {
    "one-record": lambda: [demo_record()],
    "many-records": lambda: [*tiny_kp2(), demo_record(), demo_record((1.0,), (2.0,))],
    "empty-samples": lambda: [demo_record((), ()), demo_record(), demo_record((), ())],
    "non-finite-samples": lambda: [demo_record(
        [math.nan, math.inf, -math.inf, 1.0], [-math.inf, 0.0, math.nan, math.inf],
        kind=kind, lo=math.nan, hi=math.inf, low=-math.inf)
        for kind in ("density", "volume_profile", "energy_curve")],
    "float-spellings": lambda: [demo_record(
        FLOAT_SPELLINGS, FLOAT_SPELLINGS[::-1], kind="energy_curve", spread=FLOAT_SPELLINGS,
        **{f"f{i}": v for i, v in enumerate(FLOAT_SPELLINGS)})],
    "awkward-strings": lambda: [demo_record(
        quote='say "hi"', backslash="C:\\dir\\", nul="\u0000", newline="a\nb",
        layout=',\n     ]', separator="1.0, 2.0", key='"samples": {', unicode="\u00e9\u2603",
        nested={"x": ["a, b", [1.0, -0.0]]})],
}


class TestConfigs:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig("nope")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown override"):
            ExperimentConfig("kp2", overrides={"bogus": 1})

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit([], "xml", tmp_path / "out.xml")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    @pytest.mark.parametrize("name,key", [
        ("gamma-energy", "c_min"), ("gamma-energy", "nu"), ("kp2", "N"),
    ])
    def test_non_finite_override_rejected(self, name, key, value):
        # a library call is checked as the CLI is: by the reader of the key
        with pytest.raises(ValueError, match=rf"^{key} must be a finite number, got"):
            run_experiment(ExperimentConfig(name, {key: value}))

    def test_bad_grid_value_rejected(self):
        # every grid is uniform, so `grid` is no override key
        with pytest.raises(ValueError, match=re.escape("unknown override keys ['grid']")):
            run_experiment(ExperimentConfig("kp2", overrides={"grid": "chebyshev", "N": 64}))

    @pytest.mark.parametrize("name", list(ACCEPTED_KEYS))
    def test_accepted_override_keys(self, name):
        keys, foreign = ACCEPTED_KEYS[name]
        assert EXPERIMENT_NAMES.index(name) == list(ACCEPTED_KEYS).index(name)
        ExperimentConfig(name, overrides=dict.fromkeys(keys, 1))
        assert any(foreign in other for other, _ in ACCEPTED_KEYS.values())
        with pytest.raises(ValueError, match=re.escape(f"allowed: {sorted(keys)}")):
            ExperimentConfig(name, overrides={foreign: 1})

    def test_custom_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            run_experiment(ExperimentConfig("custom", overrides={"kernel": "magnetic"}))


class TestRunners:
    def test_kp2_shape_and_echo(self):
        records = tiny_kp2()
        assert len(records) == 3
        for record, factor in zip(records, (0.25, 1.0, 4.0)):
            assert record.parameters["g_over_gc"] == pytest.approx(factor)
            assert record.parameters["N"] == 256
            assert record.metrics["converged"]
            assert record.metrics["l1_error_exact"] < 1e-3
            assert record.metrics["tail_ok"]
            assert record.samples_kind == "density"
            assert record.samples_x.size == 256

    def test_kpsmall_restricted(self):
        records = run_experiment(
            ExperimentConfig("kpsmall", overrides={"p": [2.0], "g": [0.0], "N": 256})
        )
        assert len(records) == 1
        assert records[0].metrics["converged"]
        assert records[0].parameters["rho0"] == "indicator[0,2]"

    def test_kplarge_metrics(self):
        records = run_experiment(
            ExperimentConfig("kplarge", overrides={"p": [16.0], "g": [0.0], "N": 256})
        )
        (record,) = records
        assert 0.0 < record.metrics["l1_limit_distance"] < 1.0
        assert record.metrics["mass_in_window"] > 0.9
        assert record.converged

    @pytest.mark.parametrize("p,energy,n", [
        (32.0, -0.00130251, 2048), (64.0, -0.000983798, 2048),
        (32.0, -0.00130251, 4096), (64.0, -0.000983798, 4096),
    ], ids=["32.0--0.00130251", "64.0--0.000983798", "32.0-N4096", "64.0-N4096"])
    def test_kplarge_hard_kernel_on_large_uniform_grid(self, p, energy, n):
        # the FFT path clips these kernels (max|K| = 4**p / p) at a cap
        # proportional to nu, so that its roundoff leaves K*rho on the support
        # intact; the N = 2048 and 4096 solves match the N = 1024 energy
        (record,) = run_experiment(
            ExperimentConfig("kplarge", overrides={"p": [p], "g": [0.0], "N": n})
        )
        assert record.metrics["converged"]
        assert record.metrics["total_energy"] == pytest.approx(energy, rel=1e-6)

    def test_kpsmall_kernel_above_the_cap_at_small_nu(self):
        # at nu = 2^-11 the p = 11 kernel (max|K| = 4**11 / 11, below the old
        # fixed gate of 1e6) lies above the cap; an unclipped FFT product took
        # 574 and 395 iterations where the exact product took 45 and 26, and
        # moved the energy by 7.9e-9 relative
        records = run_experiment(
            ExperimentConfig("kpsmall", overrides={"p": [8.0, 11.0], "nu": 2.0**-11})
        )
        assert all(record.converged for record in records)
        hard = {record.parameters["g"]: record.metrics for record in records
                if record.parameters["p"] == 11.0}
        dense = {0.0: (45, 1.2649165535e-4), 2.0**-11: (26, 3.2084710612e-4)}
        for g, (iterations, energy) in dense.items():
            assert hard[g]["iterations"] <= 2 * iterations
            assert hard[g]["total_energy"] == pytest.approx(energy, rel=1e-9)

    def test_continuation_stages_keep_the_gibbs_image(self):
        # each stage of a clipped continuation applies the operator built for
        # its own nu, so its image matches the exact product on the support
        (record,) = run_experiment(ExperimentConfig(
            "custom", overrides={"kernel": "power", "p": 32.0, "stages": 3}
        ))
        assert record.converged
        reports = record.solve_reports
        for report in reports:
            stage = report.problem
            assert (stage.kernel, stage.nu) == (PowerLawKernel(32.0), report.nu)
            rho = report.density
            _, exact = exact_gibbs_image(stage, rho)
            image = apply_gibbs_map(stage, rho).values
            support = rho.values >= 1e-6 * rho.values.max()
            assert np.max(np.abs(image - exact)[support] / exact[support]) <= 2e-9

    def test_gamma_energy_curves(self):
        records = run_experiment(ExperimentConfig("gamma-energy"))
        assert len(records) == 5
        flat = records[0]
        assert flat.parameters["g"] == 0.0
        assert flat.metrics["strictly_decreasing"] is True
        assert flat.samples_x.size == 200
        curved = records[2]  # g = g_c
        assert curved.metrics["argmin_c"] == pytest.approx(0.0, abs=0.01)

    def test_multistate_machinery(self):
        records = run_experiment(
            ExperimentConfig(
                "multistate",
                overrides={"nu": 2.0**-6, "N": 128, "stages": 2, "N_max": 300},
            )
        )
        assert len(records) == 2
        for record, start in zip(records, (10.0, 2.0)):
            assert record.parameters["nu0_over_nu"] == start
            assert record.parameters["stages"] == 2
            assert record.parameters["schedule"] == [r.nu for r in record.solve_reports]
            assert isinstance(record.metrics["total_iterations"], int)
            assert record.metrics["aggregates"] >= 0

    def test_multistate_explicit_schedule(self):
        records = run_experiment(
            ExperimentConfig(
                "multistate",
                overrides={"nu": 2.0**-6, "N": 128, "N_max": 200,
                           "schedule": [2.0**-5, 2.0**-6]},
            )
        )
        assert len(records) == 1

    def test_multistate_echoes_the_schedule_ratio(self):
        # param_nu0_over_nu is the first stage's nu over the last, so the
        # geometric record and its explicit-schedule twin echo the same value;
        # at this nu the ratio is 10.000000000000002, not the start factor 10
        base = {"N": 64, "N_max": 1}
        geometric = run_experiment(ExperimentConfig("multistate", {**base, "nu": 0.0037}))[0]
        nus = ContinuationSchedule.geometric(10 * 0.0037, 0.0037, stages=8).nus
        assert [r.nu for r in geometric.solve_reports] == list(nus)
        (twin,) = run_experiment(ExperimentConfig("multistate", {**base, "schedule": list(nus)}))
        assert geometric.parameters["nu0_over_nu"] == twin.parameters["nu0_over_nu"]
        assert geometric.parameters["schedule"] == twin.parameters["schedule"] == list(nus)

    def test_multistate_echoes_the_schedule_it_solved(self):
        # a given schedule and the geometric one of the same span and stage
        # count echo the same nu0_over_nu and stages; the echoed schedule is
        # what tells them apart
        base = {"N": 64, "N_max": 1}
        geometric = run_experiment(ExperimentConfig(
            "multistate", {**base, "nu": 0.01, "stages": 3}))[1]  # started at 2 nu
        (given,) = run_experiment(ExperimentConfig(
            "multistate", {**base, "schedule": [0.02, 0.015, 0.01]}))
        for key in ("nu0_over_nu", "stages"):
            assert geometric.parameters[key] == given.parameters[key]
        assert given.parameters["schedule"] == [0.02, 0.015, 0.01]
        assert geometric.parameters["schedule"] != given.parameters["schedule"]
        for record in (geometric, given):
            assert record.parameters["schedule"] == [r.nu for r in record.solve_reports]

    @pytest.mark.parametrize("name", ["multistate", "custom"])
    def test_schedule_restatement_that_agrees_changes_nothing(self, name):
        base = {"schedule": [0.02, 0.01], "N": 64, "N_max": 30}
        plain = run_experiment(ExperimentConfig(name, base))
        restated = run_experiment(ExperimentConfig(name, {**base, "nu": 0.01, "stages": 2}))
        for a, b in zip(plain, restated, strict=True):
            assert record_scalars(a) == record_scalars(b)
            np.testing.assert_array_equal(a.samples_y, b.samples_y)

    def test_custom_with_continuation(self):
        records = run_experiment(
            ExperimentConfig(
                "custom",
                overrides={"kernel": "qanr", "eps": 0.3, "nu": 2.0**-6, "N": 128,
                           "stages": 2, "N_max": 300, "L": 4.0,
                           "rho0_interval": [0.0, 4.0]},
            )
        )
        (record,) = records
        assert record.parameters["eps"] == 0.3
        assert "total_iterations" in record.metrics

    def test_effdim_determinism(self):
        # enough samples that the far-radius hit counts stay positive
        cfg = ExperimentConfig("effdim", overrides={"samples": 25_000, "seed": 1})
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            assert record_scalars(ra) == record_scalars(rb)
            np.testing.assert_array_equal(ra.samples_y, rb.samples_y)
        c = run_experiment(ExperimentConfig("effdim", overrides={"samples": 25_000, "seed": 2}))
        assert any(np.any(rc.samples_y != ra.samples_y) for ra, rc in zip(a, c))

    def test_solver_determinism(self):
        a, b = tiny_kp2(), tiny_kp2()
        for ra, rb in zip(a, b):
            sa, sb = record_scalars(ra), record_scalars(rb)
            assert sa == sb  # bit-identical scalars (wall time excluded by design)


class TestRecordKeys:
    @pytest.mark.parametrize("name", list(RECORD_KEYS))
    def test_scalar_key_order(self, name):
        records = run_experiment(ExperimentConfig(name, overrides={"N": 64, "N_max": 30}))
        assert records
        for record in records:
            assert list(record_scalars(record)) == RECORD_KEYS[name]

    @pytest.mark.parametrize("overrides,echo", [
        ({"stages": 4, "p": 4},
         {"param_nu0_over_nu": 10.0, "param_stages": 4,
          "param_schedule": list(ContinuationSchedule.geometric(10 * 2.0**-6, 2.0**-6, 4).nus)}),
        ({"stages": 1}, {"param_nu0_over_nu": 1.0, "param_stages": 1,
                         "param_schedule": [2.0**-6]}),
        ({"schedule": [0.02, 0.01]},
         {"param_nu0_over_nu": 2.0, "param_stages": 2, "param_schedule": [0.02, 0.01]}),
    ], ids=["stages", "one-stage", "schedule"])
    def test_custom_continuation_echoes_its_stages(self, overrides, echo):
        (record,) = run_experiment(ExperimentConfig("custom", {"N": 64, "N_max": 15, **overrides}))
        scalars = record_scalars(record)
        keys = RECORD_KEYS["custom"]
        at = keys.index("param_g") + 1
        assert list(scalars) == [*keys[:at], *echo, *keys[at:]]
        assert {key: scalars[key] for key in echo} == echo


class TestOperatorBuilds:
    """Every problem builds its own kernel operator: one per record, stage
    and grid level."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        original = KernelOperator.__init__

        def counting(self, *args, **kwargs):
            count[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(KernelOperator, "__init__", counting)
        return count

    @pytest.mark.parametrize("experiment,overrides", [
        ("kp2", {}),
        ("kpsmall", {"p": [1.5, 2.0]}),
        ("kplarge", {"p": [16.0]}),
        ("multistate", {"stages": 3, "nu": 2.0**-6}),
        ("custom", {"stages": 3}),
    ])
    def test_one_build_per_record(self, builds, experiment, overrides):
        # (records, builds): one build per record and stage; kpsmall and kplarge
        # sweep g = 0 and g = nu at each p, and multistate has two 3-stage schedules
        counts = {"kp2": (3, 3), "kpsmall": (4, 4), "kplarge": (2, 2),
                  "multistate": (2, 6), "custom": (1, 3)}
        records = run_experiment(ExperimentConfig(
            experiment, overrides={"N": 64, "N_max": 5, **overrides}
        ))
        assert (len(records), builds[0]) == counts[experiment]

    def test_one_build_per_record_per_level(self, monkeypatch):
        # kpsmall at N = 4096 is solved on 1024, 2048 and 4096 nodes; each of
        # its four records builds one operator per level, in whatever order
        sizes = []
        original = KernelOperator.__init__

        def recording(self, grid, *args):
            sizes.append(grid.size)
            original(self, grid, *args)

        monkeypatch.setattr(KernelOperator, "__init__", recording)
        records = run_experiment(ExperimentConfig(
            "kpsmall", {"N": 4096, "p": [1.5, 2.0], "N_max": 5}))
        assert len(records) == 4
        assert len(sizes) == 12
        assert [sorted(sizes[k:k + 3]) for k in range(0, 12, 3)] == [[1024, 2048, 4096]] * 4

    def test_sweep_record_equals_the_record_run_alone(self):
        # the g = nu record of a sweep over g equals the same record run alone
        nu = 2.0**-6
        swept = run_experiment(ExperimentConfig("kpsmall", {"N": 64, "p": [2.0]}))[1]
        alone, = run_experiment(ExperimentConfig("kpsmall", {"N": 64, "p": [2.0], "g": [nu]}))
        assert swept.parameters == alone.parameters and swept.parameters["g"] == nu
        assert swept.metrics == alone.metrics
        assert np.array_equal(swept.samples_y, alone.samples_y)

    def test_clipped_kernel_builds_one_operator_per_stage(self, monkeypatch):
        # at N = 1024 the p = 32 kernel is clipped at a cap proportional to nu,
        # so each of the 3 stages builds the operator for its own nu
        nus = []
        original = KernelOperator.__init__

        def recording(self, grid, kernel, nu):
            nus.append(nu)
            original(self, grid, kernel, nu)

        monkeypatch.setattr(KernelOperator, "__init__", recording)
        record, = run_experiment(ExperimentConfig(
            "custom", overrides={"kernel": "power", "p": 32.0, "stages": 3, "N_max": 5}
        ))
        # the record's problem at the target nu is built first, then the stages before it
        stages = [report.nu for report in record.solve_reports]
        assert nus == stages[-1:] + stages[:-1] and len(set(nus)) == 3


class TestRefinement:
    """Grid sequencing: a record on a uniform grid of at least 2047 nodes is
    solved first on the grids of ceil(N / 2^k) >= 1024 nodes, its whole
    schedule on the coarsest."""

    def test_record_matches_a_direct_solve(self):
        nu = 2.0**-6
        grid = make_grid(4.0, 2048)
        for record in run_experiment(ExperimentConfig("kpsmall", {"N": 2048, "p": [1.25]})):
            g = record.parameters["g"]
            assert record.converged and record.metrics["coarse_iterations"] > 0
            potential = ZeroPotential() if g == 0 else LinearPotential(g)
            direct = solve(Problem(grid, PowerLawKernel(1.25), potential, nu),
                           indicator_density(grid, 0.0, 2.0 if g == 0 else 1.0))
            assert direct.converged
            assert record.metrics["total_energy"] == pytest.approx(
                direct.diagnostics.energy.total, rel=1e-8)

    def test_levels_stop_at_ten_times_the_tolerance_and_the_last_at_it(self, monkeypatch):
        configs = []
        original = solver.solve

        def spy(problem, rho0, config=None):
            configs.append(config)
            return original(problem, rho0, config)

        monkeypatch.setattr(solver, "solve", spy)
        (record,) = run_experiment(ExperimentConfig("kpsmall", {
            "N": 8192, "p": [2.0], "g": [2.0**-6], "tol": 2e-6, "N_max": 500, "tau_c": 0.1}))
        reports = record.solve_reports
        assert [r.density.grid.size for r in reports] == [1024, 2048, 4096, 8192]
        assert [c.tol for c in configs] == [solver.COARSE_TOL * 2e-6] * 3 + [2e-6]
        assert {(c.max_iterations, c.tau_c) for c in configs} == {(500, 0.1)}
        assert all(r.converged and r.residual < c.tol for r, c in zip(reports, configs))
        assert record.metrics["coarse_iterations"] == sum(r.iterations for r in reports[:3])
        assert record.metrics["iterations"] == reports[-1].iterations

    def test_record_time_counts_its_own_coarse_and_fine_solves(self, monkeypatch):
        timed = []  # (report, seconds) of every solve
        original = solver.solve

        def spy(problem, rho0, config=None):
            t0 = time.perf_counter()
            report = original(problem, rho0, config)
            timed.append((report, time.perf_counter() - t0))
            return report

        monkeypatch.setattr(solver, "solve", spy)
        records = run_experiment(ExperimentConfig("kpsmall", {"N": 4096, "p": [1.5, 2.0]}))
        assert len(records) == 4 and len(timed) == 12
        for record in records:
            assert [r.density.grid.size for r in record.solve_reports] == [1024, 2048, 4096]
            own = [s for report, s in timed
                   if any(report is r for r in record.solve_reports)]
            assert len(own) == 3
            assert record.wall_time_s >= sum(own)

    def test_default_grid_and_continuation_records_equal_a_direct_solve(self):
        nu = 2.0**-6
        grid = make_grid(4.0, 1024)
        (record,) = run_experiment(ExperimentConfig("kpsmall", {"p": [2.0], "g": [nu]}))
        direct = [solve(Problem(grid, PowerLawKernel(2.0), LinearPotential(nu), nu),
                        indicator_density(grid, 0.0, 1.0))]
        # a continuation at N = 2048 follows its schedule on 1024 nodes and
        # solves its last nu on 1024 and then 2048 nodes
        grid = make_grid(4.0, 2048)
        (staged,) = run_experiment(ExperimentConfig(
            "custom", {"N": 2048, "schedule": [0.02, 0.01], "N_max": 300}))
        stages = solve_with_continuation(
            Problem(grid, PowerLawKernel(2.0), ZeroPotential(), 0.01),
            ContinuationSchedule((0.02, 0.01)), indicator_density(grid, 0.0, 4.0),
            SolverConfig(max_iterations=300))
        assert record.metrics["coarse_iterations"] == 0
        assert [r.density.grid.size for r in stages] == [1024, 1024, 2048]
        assert staged.metrics["coarse_iterations"] == stages[0].iterations + stages[1].iterations > 0
        assert staged.metrics["total_iterations"] == stages[0].iterations + stages[2].iterations
        assert staged.metrics["stages_converged"] == 2 and staged.converged
        for rec, reports in ((record, direct), (staged, stages)):
            assert len(rec.solve_reports) == len(reports)
            assert np.array_equal(rec.samples_y, reports[-1].density.values)
            assert [r.step_trace for r in rec.solve_reports] == [r.step_trace for r in reports]
            assert rec.metrics["iterations"] == reports[-1].iterations
            assert rec.metrics["total_energy"] == reports[-1].diagnostics.energy.total

    def test_continuation_levels_stop_at_ten_times_the_tolerance_and_the_last_at_it(
            self, monkeypatch):
        configs = []
        original = solver.solve

        def spy(problem, rho0, config=None):
            configs.append((problem.grid.size, problem.nu, config))
            return original(problem, rho0, config)

        monkeypatch.setattr(solver, "solve", spy)
        run_experiment(ExperimentConfig("custom", {
            "N": 4096, "schedule": [0.04, 0.02, 0.01], "tol": 2e-6, "N_max": 50}))
        assert [(n, nu) for n, nu, _ in configs] == [
            (1024, 0.04), (1024, 0.02), (1024, 0.01), (2048, 0.01), (4096, 0.01)]
        assert [c.tol for _, _, c in configs] == [solver.COARSE_TOL * 2e-6] * 4 + [2e-6]
        assert {c.max_iterations for _, _, c in configs} == {50}


class TestEmit:
    def test_empty_records(self, tmp_path):
        jpath = tmp_path / "empty.json"
        emit([], "json", jpath)
        assert json.loads(jpath.read_text()) == {"schema": "swarmeq.records.v2", "records": []}
        cpath = tmp_path / "empty.csv"
        emit([], "csv", cpath)
        rows = list(csv.reader(cpath.open()))
        assert len(rows) == 1  # header only

    def test_written_bytes(self, tmp_path):
        # None, a bool, ints, NaN and floats (numpy scalars among them) as the
        # CSV main file, its sidecars and the JSON document write them; the
        # second record lacks some of the first record's keys
        records = [
            ResultRecord("demo", {"n": 3, "flag": True},
                         {"converged": None, "value": np.float64(0.1), "bad": math.nan},
                         "density", np.array([0.0, 0.5]), np.array([2.0, 1e-300]), 0.25),
            ResultRecord("demo", {"n": np.int64(4)}, {"converged": False, "extra": 1e16},
                         "volume_profile", np.array([1.0]), np.array([math.pi]), 0.5),
        ]
        written = emit(records, "csv", tmp_path / "r.csv")
        assert [p.name for p in written] == [
            "r.csv", "r_record0_density.csv", "r_record1_volume_profile.csv"]
        assert [p.read_bytes().decode() for p in written] == [
            "record,experiment,param_n,param_flag,converged,value,bad,extra,wall_time_s,"
            "samples_file\r\n"
            "0,demo,3,True,,0.1,nan,,0.25,r_record0_density.csv\r\n"
            "1,demo,4,,False,,,1e+16,0.5,r_record1_volume_profile.csv\r\n",
            "x,density\r\n0.0,2.0\r\n0.5,1e-300\r\n",
            "radius,volume\r\n1.0,3.141592653589793\r\n",
        ]
        emit(records, "json", tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc == {"schema": "swarmeq.records.v2", "records": [
            {"experiment": "demo", "param_n": 3, "param_flag": True, "converged": None,
             "value": 0.1, "bad": None, "wall_time_s": 0.25, "samples_kind": "density",
             "samples": {"y": [2.0, 1e-300]}},
            {"experiment": "demo", "param_n": 4, "converged": False, "extra": 1e16,
             "wall_time_s": 0.5, "samples_kind": "volume_profile",
             "samples": {"x": [1.0], "y": [math.pi]}},
        ]}
        assert (tmp_path / "r.json").read_bytes() == (
            b'{"schema":"swarmeq.records.v2","records":['
            b'{"experiment":"demo","param_n":3,"param_flag":true,"converged":null,'
            b'"value":0.1,"bad":null,"wall_time_s":0.25,"samples_kind":"density",'
            b'"samples":{"y":[2.0,1e-300]}},'
            b'{"experiment":"demo","param_n":4,"converged":false,"extra":1e16,'
            b'"wall_time_s":0.5,"samples_kind":"volume_profile",'
            b'"samples":{"x":[1.0],"y":[3.141592653589793]}}]}')
        emit([], "csv", tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes() == b"record,wall_time_s,samples_file\r\n"
        emit([], "json", tmp_path / "e.json")
        assert (tmp_path / "e.json").read_bytes() == (
            b'{"schema":"swarmeq.records.v2","records":[]}')

    @pytest.mark.parametrize("case", list(V2_CASES))
    def test_json_parses_as_the_json_dumps_writer(self, case, tmp_path):
        # only the spelling moved: every key and finite float parses the same,
        # and a non-finite sample is null where NaN or Infinity was written
        records = V2_CASES[case]()
        emit(records, "json", tmp_path / "r.json")
        loaded = strict_loads((tmp_path / "r.json").read_text())
        assert exact(loaded) == exact(json.loads(v2_document(records)))

    def test_random_floats_round_trip_bit_for_bit(self, tmp_path):
        # 10^5 random float64 bit patterns (the non-finite ones left out) with
        # subnormals, signed zeros, the extremes and FLOAT_SPELLINGS, as
        # samples and as scalars
        bits = np.random.default_rng(0).integers(0, 2**64, 100_000, dtype=np.uint64)
        drawn = bits.view(np.float64)
        tiny = np.finfo(float).smallest_normal
        edges = [0.0, -0.0, 5e-324, -5e-324, tiny * (1 - 2**-52), tiny, -tiny,
                 sys.float_info.max, -sys.float_info.max, *FLOAT_SPELLINGS]
        values = np.concatenate([drawn[np.isfinite(drawn)], edges])
        records = [ResultRecord("demo", {"edges": edges}, {"f": edges[-1]}, "energy_curve",
                                values, values[::-1].copy(), 0.5)]
        emit(records, "json", tmp_path / "r.json")
        (loaded,) = strict_loads((tmp_path / "r.json").read_text())["records"]
        for xs, expected in ((loaded["samples"]["x"], values),
                             (loaded["samples"]["y"], values[::-1]),
                             (loaded["param_edges"], edges)):
            assert np.array(xs).view(np.uint64).tolist() == (
                np.array(expected).view(np.uint64).tolist())
        assert loaded["f"].hex() == edges[-1].hex()

    def test_strided_samples_emit(self, tmp_path):
        # orjson encodes C-ordered arrays only; a record makes its samples so
        grid = np.linspace(0.0, 1.0, 9)
        records = [ResultRecord("demo", {}, {}, "energy_curve", grid[::2], grid[::-4], 0.5),
                   experiments._record("demo", {}, {}, "density", grid[1::2], grid[::-2],
                                       0.0, [])]
        emit(records, "json", tmp_path / "r.json")
        loaded = strict_loads((tmp_path / "r.json").read_text())["records"]
        assert loaded[0]["samples"] == {"x": grid[::2].tolist(), "y": grid[::-4].tolist()}
        assert loaded[1]["samples"] == {"y": grid[::-2].tolist()}

    def test_unencodable_record_leaves_no_file(self, tmp_path):
        path = tmp_path / "r.json"
        records = [demo_record(), demo_record(bad={1, 2})]
        with pytest.raises(TypeError, match="set"):
            emit(records, "json", path)
        assert not path.exists()

    def test_json_round_trip(self, tmp_path):
        records = tiny_kp2()
        path = tmp_path / "kp2.json"
        emit(records, "json", path)
        doc = json.loads(path.read_text())
        assert len(doc["records"]) == 3
        for record, loaded in zip(records, doc["records"]):
            for key, value in record_scalars(record).items():
                if isinstance(value, float):
                    assert loaded[key] == value  # the shortest spelling round-trips
            assert list(loaded["samples"]) == ["y"] and loaded["param_grid"] == "uniform"
            nodes = make_grid(loaded["param_L"], loaded["param_N"]).nodes
            assert nodes.tobytes() == record.samples_x.tobytes()

    @pytest.mark.parametrize("experiment, overrides", [
        ("kpsmall", {"N": 601, "L": 3.0, "p": [2.0], "tol": 1e-5}),
        ("kp2", {"N": 257, "L": 1.5, "g": [1.0], "tol": 1e-5}),
    ], ids=["kpsmall", "kp2"])
    def test_density_nodes_are_the_echoed_grid(self, experiment, overrides, tmp_path):
        records = run_experiment(ExperimentConfig(experiment, overrides=overrides))
        emit(records, "json", tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        for record, loaded in zip(records, doc["records"]):
            assert loaded["param_grid"] == "uniform"
            nodes = make_grid(loaded["param_L"], loaded["param_N"]).nodes
            assert nodes.tobytes() == record.samples_x.tobytes()

    @pytest.mark.parametrize("experiment, overrides", [
        ("gamma-energy", {}), ("effdim", {"samples": 10_000, "seed": 0}),
    ])
    def test_curve_and_profile_records_keep_x(self, experiment, overrides, tmp_path):
        records = run_experiment(ExperimentConfig(experiment, overrides=overrides))
        emit(records, "json", tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        for record, loaded in zip(records, doc["records"]):
            assert loaded["samples_kind"] in ("energy_curve", "volume_profile")
            assert loaded["samples"]["x"] == record.samples_x.tolist()
            assert loaded["samples"]["y"] == record.samples_y.tolist()

    def test_csv_round_trip_and_sidecars(self, tmp_path):
        records = tiny_kp2()
        path = tmp_path / "kp2.csv"
        written = emit(records, "csv", path)
        assert len(written) == 4  # main file + 3 density sidecars
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 3
        for record, row in zip(records, rows):
            assert float(row["l1_error_exact"]) == record.metrics["l1_error_exact"]
            assert float(row["param_g"]) == record.parameters["g"]
            sidecar = tmp_path / row["samples_file"]
            header, *rows = csv.reader(sidecar.open())
            assert header == ["x", "density"]
            assert [[float(x), float(y)] for x, y in rows] == np.column_stack(
                [record.samples_x, record.samples_y]).tolist()

    def test_emit_bad_path_raises_with_context(self, tmp_path):
        target = tmp_path / "file.json"
        target.write_text("x")
        with pytest.raises(OSError, match="file.json"):
            emit([], "json", target / "impossible.json")


class TestCli:
    def test_experiment_with_output(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["experiment", "gamma-energy", "--output", str(out), "--format", "csv"])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "curves_record0_energy_curve.csv").exists()

    def test_solve_subcommand(self, tmp_path, capsys):
        code = main([
            "solve", "--set", "N=128", "--set", "nu=0.05", "--set", "g=0.1",
            "--set", "L=2.0", "--set", "tol=0.0001",
        ])
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_reused_parser_keeps_no_overrides(self, tmp_path, capsys):
        # the parser is built once per process; each call's --set list is its own
        assert build_parser() is build_parser()
        assert main(["experiment", "kp2", "--set", "bogus=1"]) == 2
        params = []
        for sets in (["N=64", "g=[0.1]"], ["N_max=40"]):
            out = tmp_path / f"run{len(params)}.json"
            main(["experiment", "kp2", *(a for s in sets for a in ("--set", s)),
                  "--output", str(out)])
            params.append([(r["param_N"], r["param_g"], r["param_N_max"])
                           for r in json.loads(out.read_text())["records"]])
        defaults = run_experiment(ExperimentConfig("kp2"))
        assert params == [
            [(64, 0.1, defaults[0].parameters["N_max"])],
            [(r.parameters["N"], r.parameters["g"], 40) for r in defaults],
        ]

    def test_start_narrower_than_a_coarse_cell_converges(self, capsys):
        # the start holds one node of N = 8192, inside one cell of N = 1024
        assert main(["solve", "--set", "N=8192", "--set", "rho0_interval=[1.0012,1.0016]"]) == 0
        assert "coarse_iterations=" in capsys.readouterr().out

    @pytest.mark.parametrize("interval", ["[2,1]", "[5,6]"], ids=["reversed", "outside"])
    def test_rho0_interval_outside_the_domain_exits_two(self, interval, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr(experiments, "solve_with_continuation",
                            lambda *args: solves.append(args))
        assert main(["solve", "--set", f"rho0_interval={interval}"]) == 2
        assert solves == []
        assert re.search(r"error: rho0_interval .*\bL = 4\.0\b", capsys.readouterr().err)

    def test_unallocatable_operator_exits_two(self, monkeypatch, capsys):
        # an operator too large for memory is a configuration error, not a
        # record that did not converge; no real array of that size is asked
        # for, and the coarse levels before it are solved as usual
        original = KernelOperator.__init__

        def no_memory(self, grid, kernel, nu):
            if grid.size == 200000:
                raise MemoryError(f"Unable to allocate the {grid.size}-node operator")
            original(self, grid, kernel, nu)

        monkeypatch.setattr(KernelOperator, "__init__", no_memory)
        assert main(["experiment", "kp2", "--set", "N=200000", "--set", "g=[0.1]"]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate the 200000-node operator\n"

    def test_closed_stdout_keeps_the_status_and_the_file(self, tmp_path):
        # as in `swarmeq experiment kp2 --output x.json | head -1`, the reader
        # closes the pipe, here before the first summary line is written
        out = tmp_path / "x.json"
        env = {**os.environ, "PYTHONPATH": str(Path(swarmeq.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "swarmeq.cli", "experiment", "kp2", "--set", "N=128",
             "--output", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        stderr = proc.communicate()[1].decode()
        assert (proc.returncode, stderr) == (0, "")
        assert [r["converged"] for r in json.loads(out.read_text())["records"]] == [True] * 3

    def test_unknown_override_exits_nonzero(self, capsys):
        code = main(["experiment", "kp2", "--set", "bogus=1"])
        assert code == 2
        assert "unknown override" in capsys.readouterr().err

    def test_unconverged_p256_record_exits_one(self, capsys):
        # no power is exempt: a record that ran out of budget fails the run
        code = main(["experiment", "kplarge", "--set", "p=[256]", "--set", "g=[0]",
                     "--set", "N=64", "--set", "N_max=2"])
        assert code == 1
        assert "NOT CONVERGED" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["kp2", "gamma-energy"])
    def test_seed_flag_rejected_where_unread(self, name, capsys):
        code = main(["experiment", name, "--seed", "3"])
        assert code == 2
        assert "unknown override" in capsys.readouterr().err

    @pytest.mark.parametrize("command,echo", [
        (["experiment", "multistate"], {"param_nu0_over_nu": 2.0, "param_stages": 2,
                                        "param_schedule": [0.02, 0.01]}),
        (["solve"], {"param_nu0_over_nu": 2.0, "param_stages": 2,
                     "param_schedule": [0.02, 0.01]}),
    ], ids=["multistate", "custom"])
    def test_explicit_schedule_echoes_last_stage(self, tmp_path, command, echo):
        out = tmp_path / "run.json"
        code = main([*command, "--set", "schedule=[0.02,0.01]", "--set", "N=128",
                     "--set", "N_max=300", "--output", str(out)])
        assert code in (0, 1)
        (record,) = json.loads(out.read_text())["records"]
        assert record["param_nu"] == 0.01
        assert record["param_tau_c"] == 0.05
        assert {key: record[key] for key in echo} == echo

    @pytest.mark.parametrize("command,key", [
        (["experiment", "multistate", "--set", "g=5"], "g"),
        (["experiment", "multistate", *SCHEDULE, "--set", "nu=0.5"], "nu"),
        (["experiment", "multistate", *SCHEDULE, "--set", "stages=5"], "stages"),
        (["experiment", "multistate", "--set", "stages=1"], "stages"),
        (["solve", *SCHEDULE, "--set", "nu=0.5"], "nu"),
        (["solve", *SCHEDULE, "--set", "stages=5"], "stages"),
        (["solve", "--set", "eps=0.3"], "eps"),
        (["solve", "--set", "kernel=qanr", "--set", "p=2"], "p"),
    ], ids=["multistate-g", "multistate-nu", "multistate-stages", "multistate-one-stage",
            "custom-nu", "custom-stages", "power-eps", "qanr-p"])
    def test_ignored_combination_exits_two(self, command, key, capsys):
        # each of these inputs would otherwise be accepted and have no effect
        assert main([*command, "--set", "N=64", "--set", "N_max=5"]) == 2
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)

    @pytest.mark.parametrize("item", [
        "foo", "nu=NaN", "g=Infinity", "c_min=-Infinity", "c_max=1e400",
        "g=[0.1,NaN]", "nu=nan", pytest.param("nu=1" + "0" * 400, id="nu=10**400"),
    ])
    def test_malformed_or_non_finite_override_exits_two(self, item, capsys):
        # argparse rejects an item without "="; the reader of the key, a number
        # that is not finite (and "nan", which JSON reads as a string)
        if "=" not in item:
            with pytest.raises(SystemExit) as exc:
                main(["experiment", "gamma-energy", "--set", item])
            assert exc.value.code == 2
            assert "argument --set" in capsys.readouterr().err
            return
        assert main(["experiment", "gamma-energy", "--set", item]) == 2
        key = item.split("=")[0]
        assert re.search(rf"error: {key} must be a (finite )?number, got",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("command,key", [
        (["experiment", "kp2", "--set", "g=[0.01,0]"], "g"),
        (["experiment", "kpsmall", "--set", "p=[2.0,-1]"], "p"),
        (["experiment", "kplarge", "--set", "g=[0.01,-1]"], "g"),
        (["solve", "--set", "prominence=0"], "prominence"),
        (["solve", "--set", "kernel=qanr", "--set", "eps=2"], "eps"),
    ], ids=["kp2-g", "kpsmall-p", "kplarge-g", "custom-prominence", "custom-eps"])
    def test_bad_value_exits_two_before_any_solve(self, command, key, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr(experiments, "solve_with_continuation",
                            lambda *args: solves.append(args))
        assert main([*command, "--set", "N=64"]) == 2
        assert solves == []
        assert re.search(rf"error: .*\b{key}\b", capsys.readouterr().err)

    @pytest.mark.parametrize("command,key", [
        (["gamma-energy", "--set", "n_c=0"], "n_c"),
        (["gamma-energy", "--set", "n_c=1"], "n_c"),
        (["gamma-energy", "--set", "c_min=1.0", "--set", "c_max=-0.3"], "c_max"),
        (["gamma-energy", "--set", "c_min=0.5", "--set", "c_max=0.5"], "c_max"),
        (["effdim", "--seed", "-1"], "seed"),
        (["effdim", "--set", "seed=-1"], "seed"),
    ], ids=["n_c=0", "n_c=1", "reversed-range", "empty-range", "seed-flag", "set-seed"])
    def test_bad_range_or_seed_exits_two_before_any_work(
        self, command, key, monkeypatch, capsys
    ):
        # an empty sweep, one point, or a reversed range would break or invert
        # the curve's record, and numpy rejects a negative seed without a key
        calls = []
        monkeypatch.setattr(experiments, "truncated_gaussian_energy",
                            lambda *args: calls.append(args) or 0.0)
        monkeypatch.setattr(experiments, "estimate_volume_profiles",
                            lambda *args, **kwargs: calls.append(args) or [])
        assert main(["experiment", *command]) == 2
        assert calls == []
        assert re.search(rf"error: .*\b{key}\b", capsys.readouterr().err)

    @pytest.mark.parametrize("command,key", [
        (["kpsmall", "--set", f"N_max={2**64}", "--set", "p=[2.0]", "--set", "g=[0.0]"],
         "N_max"),
        (["kpsmall", "--set", f"N_max={-2**63 - 1}", "--set", "p=[2.0]"], "N_max"),
        (["effdim", "--seed", str(2**64)], "seed"),
    ], ids=["N_max=2**64", "N_max=-2**63-1", "seed=2**64"])
    def test_integer_outside_64_bits_exits_two_before_any_work(
        self, command, key, monkeypatch, tmp_path, capsys
    ):
        # the JSON writer encodes integers of at most 64 bits; a larger one
        # would fail only after the work, when the records are written
        calls = []
        monkeypatch.setattr(experiments, "solve_with_continuation",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(experiments, "estimate_volume_profiles",
                            lambda *args, **kwargs: calls.append(args) or [])
        out = tmp_path / "x.json"
        assert main(["experiment", *command, "--output", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert re.search(rf"error: {key} must fit in 64 bits, got -?\d+$",
                         capsys.readouterr().err)

    def test_largest_64_bit_seed_is_written(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["experiment", "effdim", "--seed", str(2**64 - 1),
                     "--set", "samples=10000", "--output", str(out)]) == 0
        assert {r["param_seed"] for r in json.loads(out.read_text())["records"]} == {2**64 - 1}

    def test_valid_effdim_reaches_the_sampler_spy(self, monkeypatch):
        # the positive control of the spy above: a valid call does reach it
        calls = []
        monkeypatch.setattr(experiments, "estimate_volume_profiles",
                            lambda *args, **kwargs: calls.append(args) or [])
        assert main(["experiment", "effdim", "--set", "samples=10000"]) == 0
        assert len(calls) == 1 and calls[0][1] == 10_000

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        # the output path is a directory, so opening it for writing fails
        assert main(["experiment", "gamma-energy", "--set", "n_c=5",
                     "--output", str(tmp_path)]) == 2
        assert f"error: failed writing results to {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,item", [
        ("kp2", "g=[]"), ("kpsmall", "p=[]"), ("gamma-energy", "g=[]"),
    ])
    def test_empty_sweep_exits_two(self, name, item, capsys):
        assert main(["experiment", name, "--set", item]) == 2
        key = item.split("=")[0]
        assert f"{key}: an empty parameter list sweeps no values" in capsys.readouterr().err

    def test_continuation_converges_only_if_every_stage_does(self, tmp_path):
        # stage 0 runs out of its 10 iterations; the last three converge
        out = tmp_path / "run.json"
        code = main(["solve", "--set", "N=128", "--set", "stages=4", "--set", "N_max=10",
                     "--set", "p=3", "--output", str(out)])
        (record,) = json.loads(out.read_text())["records"]
        assert (record["converged"], record["stages_converged"], code) == (False, 3, 1)

    def test_continuation_summary_line_counts_every_stage(self, capsys):
        main(["solve", "--set", "N=128", "--set", "stages=4", "--set", "N_max=10",
              "--set", "p=3"])
        line = capsys.readouterr().out
        assert "NOT CONVERGED" in line
        for field in ("iterations=10", "total_iterations=40", "stages_converged=3"):
            assert re.search(rf"\b{field}\b", line), field

    @pytest.mark.parametrize("name,item", [
        ("kp2", "N=128.9"), ("kp2", "N_max=30.7"), ("kp2", "N=true"),
        ("multistate", "stages=3.5"), ("solve", "stages=3.5"), ("effdim", "seed=1.9"),
        ("effdim", "samples=10000.5"), ("gamma-energy", "n_c=20.5"),
    ])
    def test_non_integral_integer_override_exits_two(self, name, item, capsys):
        command = ["solve"] if name == "solve" else ["experiment", name]
        assert main([*command, "--set", item]) == 2
        key = item.split("=")[0]
        assert f"{key} must be an integer, got" in capsys.readouterr().err

    @pytest.mark.parametrize("name,item", [
        ("kp2", 'tau_c="abc"'), ("kp2", "tau_c=[0.1]"), ("kp2", "L=[1]"),
        ("kp2", 'nu={"a":1}'), ("kp2", "tol=[1]"), ("solve", "rho0_interval=5"),
        ("solve", "schedule=5"), ("gamma-energy", "nu=true"), ("gamma-energy", "g=[true]"),
    ])
    def test_real_override_of_another_type_exits_two(self, name, item, capsys):
        # a bool would read as 0 or 1; the others would end in a TypeError
        command = ["solve"] if name == "solve" else ["experiment", name]
        assert main([*command, "--set", item]) == 2
        key = item.split("=")[0]
        assert re.search(rf"error: {key} must be a (list of )?number", capsys.readouterr().err)

    def test_whole_float_integer_override_is_accepted(self, tmp_path):
        out = tmp_path / "run.json"
        main(["experiment", "kp2", "--set", "N=64.0", "--set", "N_max=5.0",
              "--output", str(out)])
        record = json.loads(out.read_text())["records"][0]
        assert (record["param_N"], record["param_N_max"]) == (64, 5)

    def test_seed_flag_beside_set_seed_must_agree(self, capsys):
        run = ["experiment", "effdim", "--set", "seed=5", "--set", "samples=10000"]
        assert main([*run, "--seed", "1"]) == 2
        assert "--seed 1 disagrees with seed=5" in capsys.readouterr().err
        assert main([*run, "--seed", "5"]) == 0

    def test_format_without_output_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "kp2", "--format", "csv"]) == 2
        assert "--format needs --output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [2, 3, 6, 13, 21, 35])
    def test_effdim_fits_past_a_radius_without_hits(self, seed, tmp_path):
        # at 10^4 samples these seeds draw no hit of bounded-box-3d at r = 20
        # (about 2.4 expected); the fit leaves that radius out
        out = tmp_path / "eff.json"
        code = main(["experiment", "effdim", "--seed", str(seed), "--set", "samples=10000",
                     "--output", str(out)])
        assert code == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 6
        assert all(math.isfinite(r["effective_dimension"]) for r in records)

    def test_seed_flag_feeds_experiment(self, tmp_path):
        out = tmp_path / "eff.json"
        code = main([
            "experiment", "effdim", "--seed", "5", "--set", "samples=10000",
            "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(r["param_seed"] == 5 for r in doc["records"])
