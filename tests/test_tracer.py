"""The benchmark tracer (perfbench/tracer.py) patches package functions and
methods by name.  Entering it resolves every name, so a rename or deletion in
the package that would break a traced benchmark run fails here."""

import importlib.util
from pathlib import Path

import swarmeq.cli  # noqa: F401  (imports every module the tracer patches)
import swarmeq.solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    solve = swarmeq.solver.solve
    with tracer.Tracer():
        assert swarmeq.solver.solve is not solve
    assert swarmeq.solver.solve is solve
