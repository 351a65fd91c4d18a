"""The record comparison of scripts/compare_records.py, on hand-made documents."""

import copy
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_records.py"
spec = importlib.util.spec_from_file_location("compare_records", SCRIPT)
compare_records = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_records)

DOC = {"schema": "swarmeq.records.v1", "records": [
    {"experiment": "kp2", "param_nu": 0.015625, "converged": True, "iterations": 35,
     "total_energy": 0.024083669684899348, "e0": None, "wall_time_s": 0.04,
     "samples_kind": "density", "samples": {"x": [0.0, 1.0], "y": [2.0, 1e-300]}},
    {"experiment": "kp2", "param_nu": 0.015625, "converged": True, "iterations": 13,
     "total_energy": 0.031, "e0": 1e-6, "wall_time_s": 0.02,
     "samples_kind": "density", "samples": {"x": [0.0, 1.0], "y": [3.0, 1e-200]}},
]}


def test_only_wall_time_differs():
    new = copy.deepcopy(DOC)
    new["records"][0]["wall_time_s"] = 9.0
    assert compare_records.compare_documents(DOC, new) == []


def test_moved_float_reports_largest_relative_change():
    new = copy.deepcopy(DOC)
    new["records"][0]["total_energy"] *= 1 + 1e-9
    new["records"][1]["total_energy"] *= 1 + 4e-9
    new["records"][1]["samples"]["y"][1] = 1.5e-200
    assert compare_records.compare_documents(DOC, new) == [
        "total_energy: largest relative change 4e-09",
        "samples.y: largest relative change 0.333",
    ]


def test_reordered_key():
    new = copy.deepcopy(DOC)
    items = list(DOC["records"][0].items())
    items[2], items[3] = items[3], items[2]  # converged after iterations
    new["records"][0] = dict(items)
    assert compare_records.compare_documents(DOC, new) == ["key order"]


def test_added_key():
    new = copy.deepcopy(DOC)
    for record in new["records"]:
        record["stages_converged"] = 1
    assert compare_records.compare_documents(DOC, new) == ["added keys ['stages_converged']"]
