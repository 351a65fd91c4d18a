"""Span tracing of the package's layers from outside the package.

``Tracer`` replaces the public functions and methods listed in ``_TARGETS``
with timing wrappers while its ``with`` block runs, and restores them on
exit.  Functions imported by value (``from .gibbs import apply_gibbs_map``)
are replaced in every ``swarmeq`` module that holds them, so calls are seen
where they are made.  Each span records its name, start, end, parent and the
benchmark operation it belongs to; spans stay in memory and are written out
when the run ends.  A layer is a module of the package; a span's self time is
its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from pathlib import Path

# (module, attribute path, span name).  The span's layer is the text before
# the first dot.
_TARGETS = (
    ("grid", "KernelOperator.__init__", "grid.build"),
    ("grid", "KernelOperator.apply", "grid.apply"),
    ("grid", "Density.__post_init__", "grid.density"),
    ("grid", "convolve_kernel", "grid.convolve_kernel"),
    ("gibbs", "apply_gibbs_map", "gibbs.map"),
    ("gibbs", "log_partition", "gibbs.log_partition"),
    ("gibbs", "fixed_point_residual", "gibbs.fixed_point_residual"),
    ("energy", "total_energy", "energy.total_energy"),
    ("solver", "solve", "solver.solve"),
    ("solver", "solve_with_continuation", "solver.solve_with_continuation"),
    ("solver", "count_aggregates", "solver.count_aggregates"),
    ("diagnostics", "euler_lagrange_residual", "diagnostics.euler_lagrange_residual"),
    ("diagnostics", "boundary_condition_error", "diagnostics.boundary_condition_error"),
    ("diagnostics", "com_drift", "diagnostics.com_drift"),
    ("diagnostics", "moments", "diagnostics.moments"),
    ("diagnostics", "diagnose", "diagnostics.diagnose"),
    ("analytic", "exact_minimizer", "analytic.exact_minimizer"),
    ("analytic", "TruncatedGaussian.discretize", "analytic.discretize"),
    ("analytic", "unit_interval_limit_state", "analytic.unit_interval_limit_state"),
    ("analytic", "UnitIntervalState.discretize", "analytic.discretize"),
    ("analytic", "truncated_gaussian_energy", "analytic.truncated_gaussian_energy"),
    ("geometry", "estimate_volume_profile", "geometry.profile"),
    ("geometry", "estimate_effective_dimension", "geometry.effective_dimension"),
    ("experiments", "run_experiment", "experiments.run"),
    ("experiments", "emit", "experiments.emit"),
    ("cli", "main", "cli.main"),
)
# Every kernel and potential class that defines __call__ is wrapped as well.
_KERNEL_SPAN = "potentials.kernel"
_POTENTIAL_SPAN = "potentials.potential"

# Per-layer metrics with their units, in report order.
PER_LAYER_UNITS = {
    "grid.build_calls": "count", "grid.build_s": "s", "grid.builds_per_solve": "ratio",
    "grid.apply_calls": "count", "grid.apply_s": "s", "grid.apply_us": "us",
    "grid.apply_flops_computed": "flop", "grid.apply_bytes_computed": "B",
    "grid.density_calls": "count", "grid.density_s": "s", "grid.self_s": "s",
    "potentials.kernel_evals": "count", "potentials.kernel_s": "s",
    "potentials.potential_calls": "count", "potentials.self_s": "s",
    "gibbs.map_calls": "count", "gibbs.map_s": "s", "gibbs.log_partition_s": "s",
    "gibbs.self_s": "s",
    "energy.calls": "count", "energy.s": "s", "energy.self_s": "s",
    "solver.stages": "count", "solver.iterations": "count",
    "solver.iterations_per_s": "1/s", "solver.self_s": "s",
    "solver.full_steps": "count", "solver.conservative_steps": "count",
    "solver.full_step_ratio": "ratio", "solver.budget_exhausted": "count",
    "solver.residual_final_max": "L1", "solver.converged_frac": "ratio",
    "diagnostics.calls": "count", "diagnostics.s": "s", "diagnostics.self_s": "s",
    "analytic.calls": "count", "analytic.s": "s", "analytic.self_s": "s",
    "geometry.samples": "count", "geometry.samples_per_s": "1/s",
    "geometry.profile_s": "s", "geometry.self_s": "s",
    "experiments.run_self_s": "s", "experiments.emit_s": "s",
    "experiments.emit_bytes": "B", "cli.main_self_s": "s",
    "checks.failed_frac": "ratio", "trace.overhead_s": "s",
}


def _resolve(owner, path: str):
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and solver/geometry/emission counters while active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, operation]
        self.operation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, tracer.operation]
            tracer.spans.append(record)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[1] = start
                tracer._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return wrapper

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_apply(self, args, kwargs, out) -> None:
        operator = args[0]
        n = operator.grid.size
        if getattr(operator, "_matrix", None) is not None:
            # dense: one multiply-add per matrix entry, the matrix read once
            flops, nbytes = 2.0 * n * n, 8.0 * (n * n + 2 * n)
        else:
            # fftconvolve of 2N-1 lags with N values: two forward real
            # transforms and one inverse of length M ~ 3N, 2.5 M log2 M flops
            # each, plus the spectrum product; inputs and output moved once
            m = 3 * n - 2
            flops = 3 * 2.5 * m * math.log2(m) + 3.0 * m
            nbytes = 8.0 * ((2 * n - 1) + n + m)
        self._count("flops", flops)
        self._count("bytes", nbytes)

    def _on_solve(self, args, kwargs, report) -> None:
        full = sum(1 for tau in report.tau_trace if tau == 1.0)
        self._count("stages")
        self._count("iterations", report.iterations)
        self._count("full_steps", full)
        self._count("conservative_steps", len(report.tau_trace) - full)
        self._count("converged", bool(report.converged))
        self.counters["residual_final_max"] = max(
            self.counters.get("residual_final_max", 0.0), float(report.residual)
        )

    def _on_profile(self, args, kwargs, profile) -> None:
        import swarmeq.geometry as geometry

        bound = inspect.signature(geometry.estimate_volume_profile).bind(*args, **kwargs)
        n_probes = bound.arguments["spec"].probe_centers.shape[0]
        self._count("samples", len(profile.radii) * n_probes
                    * bound.arguments["samples_per_radius"])

    def _on_emit(self, args, kwargs, written) -> None:
        self._count("emit_bytes", sum(Path(p).stat().st_size for p in written))

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        import swarmeq.potentials as potentials

        hooks = {"grid.apply": self._on_apply, "solver.solve": self._on_solve,
                 "geometry.profile": self._on_profile, "experiments.emit": self._on_emit}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "swarmeq" or name.startswith("swarmeq.")]
        for module_name, path, span_name in _TARGETS:
            owner, attr = _resolve(sys.modules[f"swarmeq.{module_name}"], path)
            original = getattr(owner, attr)
            wrapper = self.span(span_name, original, hooks.get(span_name))
            if "." in path:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:  # every module that imported it by value
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)
        for base, span_name in ((potentials.InteractionKernel, _KERNEL_SPAN),
                                (potentials.ExternalPotential, _POTENTIAL_SPAN)):
            for cls in _subclasses(base):
                if "__call__" in cls.__dict__:
                    self._replace(cls, "__call__", self.span(span_name, cls.__call__))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def start_pass(self) -> int:
        """Reset the counters; returns the mark that layer_metrics reads from."""
        self.counters = {}
        return len(self.spans)

    def layer_metrics(self, mark: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``mark``."""
        spans = self.spans[mark:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= mark:
                child_time[parent - mark] += end - start
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}  # time in spans of this name
        layer_s: dict[str, float] = {}  # time in outermost spans of a layer
        self_s: dict[str, float] = {}  # self time per layer
        run_self_s = 0.0  # self time of run_experiment, which emit is not part of
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + duration
            self_s[layer] = self_s.get(layer, 0.0) + duration - child_time[i]
            if name == "experiments.run":
                run_self_s += duration - child_time[i]
            if parent < mark or not self.spans[parent][0].startswith(layer + "."):
                layer_s[layer] = layer_s.get(layer, 0.0) + duration

        def layer_calls(layer: str) -> int:
            return sum(n for name, n in calls.items() if name.startswith(layer + "."))

        c = self.counters
        stages = c.get("stages", 0)
        applies = calls.get("grid.apply", 0)
        samples = c.get("samples", 0)
        iterations = c.get("iterations", 0)
        solver_s = layer_s.get("solver", 0.0)
        profile_s = inclusive.get("geometry.profile", 0.0)
        return {
            "grid.build_calls": calls.get("grid.build", 0),
            "grid.build_s": inclusive.get("grid.build", 0.0),
            "grid.builds_per_solve": _ratio(calls.get("grid.build", 0), stages),
            "grid.apply_calls": applies,
            "grid.apply_s": inclusive.get("grid.apply", 0.0),
            "grid.apply_us": 1e6 * _ratio(inclusive.get("grid.apply", 0.0), applies),
            "grid.apply_flops_computed": c.get("flops", 0.0),
            "grid.apply_bytes_computed": c.get("bytes", 0.0),
            "grid.density_calls": calls.get("grid.density", 0),
            "grid.density_s": inclusive.get("grid.density", 0.0),
            "grid.self_s": self_s.get("grid", 0.0),
            "potentials.kernel_evals": calls.get(_KERNEL_SPAN, 0),
            "potentials.kernel_s": inclusive.get(_KERNEL_SPAN, 0.0),
            "potentials.potential_calls": calls.get(_POTENTIAL_SPAN, 0),
            "potentials.self_s": self_s.get("potentials", 0.0),
            "gibbs.map_calls": calls.get("gibbs.map", 0),
            "gibbs.map_s": inclusive.get("gibbs.map", 0.0),
            "gibbs.log_partition_s": inclusive.get("gibbs.log_partition", 0.0),
            "gibbs.self_s": self_s.get("gibbs", 0.0),
            "energy.calls": layer_calls("energy"),
            "energy.s": layer_s.get("energy", 0.0),
            "energy.self_s": self_s.get("energy", 0.0),
            "solver.stages": stages,
            "solver.iterations": iterations,
            "solver.iterations_per_s": _ratio(iterations, solver_s),
            "solver.self_s": self_s.get("solver", 0.0),
            "solver.full_steps": c.get("full_steps", 0),
            "solver.conservative_steps": c.get("conservative_steps", 0),
            "solver.full_step_ratio": _ratio(c.get("full_steps", 0), iterations),
            "solver.budget_exhausted": stages - c.get("converged", 0),
            "solver.residual_final_max": c.get("residual_final_max", 0.0),
            "solver.converged_frac": _ratio(c.get("converged", 0), stages),
            "diagnostics.calls": layer_calls("diagnostics"),
            "diagnostics.s": layer_s.get("diagnostics", 0.0),
            "diagnostics.self_s": self_s.get("diagnostics", 0.0),
            "analytic.calls": layer_calls("analytic"),
            "analytic.s": layer_s.get("analytic", 0.0),
            "analytic.self_s": self_s.get("analytic", 0.0),
            "geometry.samples": samples,
            "geometry.samples_per_s": _ratio(samples, profile_s),
            "geometry.profile_s": profile_s,
            "geometry.self_s": self_s.get("geometry", 0.0),
            "experiments.run_self_s": run_self_s,
            "experiments.emit_s": inclusive.get("experiments.emit", 0.0),
            "experiments.emit_bytes": c.get("emit_bytes", 0),
            "cli.main_self_s": self_s.get("cli", 0.0),
        }

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "operation"],
                       "names": names,
                       "spans": [[index[n], s, e, p, o] for n, s, e, p, o in self.spans]},
                      fh, separators=(",", ":"))


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Lower median of each metric over traced passes (counts repeat exactly)."""
    return {key: statistics.median_low(p[key] for p in passes) for key in passes[0]}


def _subclasses(base) -> list[type]:
    out, todo = [], [base]
    while todo:
        for cls in todo.pop().__subclasses__():
            out.append(cls)
            todo.append(cls)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


