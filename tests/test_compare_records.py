"""The record comparison of scripts/compare_records.py, on hand-made documents."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from swarmeq.grid import make_grid

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_records.py"
spec = importlib.util.spec_from_file_location("compare_records", SCRIPT)
compare_records = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_records)

DOC = {"schema": "swarmeq.records.v2", "records": [
    {"experiment": "kp2", "param_nu": 0.015625, "converged": True, "iterations": 35,
     "total_energy": 0.024083669684899348, "e0": None, "wall_time_s": 0.04,
     "samples_kind": "density", "samples": {"y": [2.0, 1e-300]}},
    {"experiment": "kp2", "param_nu": 0.015625, "converged": True, "iterations": 13,
     "total_energy": 0.031, "e0": 1e-6, "wall_time_s": 0.02,
     "samples_kind": "density", "samples": {"y": [3.0, 1e-200]}},
]}


def _doc(schema: str, records: list[dict]) -> dict:
    return {"schema": f"swarmeq.records.{schema}", "records": records}


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


@pytest.mark.parametrize("indent", [1, 2], ids=["wall-time-only", "indent"])
def test_text_compared_with_wall_time_masked(indent):
    new = copy.deepcopy(DOC)
    new["records"][1]["wall_time_s"] = 1.5e-05
    old_text, new_text = json.dumps(DOC, indent=1), json.dumps(new, indent=indent)
    expected = [] if indent == 1 else [
        """bytes differ, first at offset 3: '{\\n "schema": "swarm' -> '{\\n  "schema": "swar'"""]
    assert compare_records.compare_json(old_text, new_text) == expected


def test_compact_text_compared_with_wall_time_masked():
    new = copy.deepcopy(DOC)
    new["records"][0]["wall_time_s"] = 0.25
    new["records"][1]["wall_time_s"] = 1e-05
    old_text, new_text = (json.dumps(doc, separators=(",", ":")) for doc in (DOC, new))
    assert '"wall_time_s":0.25,' in new_text
    assert compare_records.compare_json(old_text, new_text) == []
    spaced = json.dumps(new)
    assert compare_records.compare_json(old_text, spaced) == [
        """bytes differ, first at offset 10: '{"schema":"swarmeq.records' -> """
        """'{"schema": "swarmeq.record'"""]


def test_same_number_written_another_way():
    new = copy.deepcopy(DOC)
    new["records"][1]["e0"] = 1e16
    old_text = json.dumps(new, indent=1)
    assert '"e0": 1e+16' in old_text
    new_text = old_text.replace('"e0": 1e+16', '"e0": 1e16')
    assert compare_records.compare_documents(json.loads(old_text), json.loads(new_text)) == []
    # the offset is into the texts with each wall_time_s masked, which here
    # shortens the first record's "0.04" to "?"
    at = old_text.index("1e+16") + 2 - 3
    assert compare_records.compare_json(old_text, new_text) == [
        f"bytes differ, first at offset {at}: "
        """'031,\\n   "e0": 1e+16,\\n   "wall_ti' -> '031,\\n   "e0": 1e16,\\n   "wall_tim'"""]


def test_one_line_documents_locate_a_late_difference():
    # a compact document is one line: the offset and the excerpts say where
    # in it the texts part, here in the last sample of the last record
    old_text = json.dumps(DOC, separators=(",", ":"))
    new_text = old_text.replace("1e-200", "1.0e-200")
    masked = old_text.replace(':0.04,', ': ?,').replace(':0.02,', ': ?,')
    assert compare_records.compare_json(old_text, new_text) == [
        f"bytes differ, first at offset {masked.index('1e-200') + 1}: "
        """'les":{"y":[3.0,1e-200]}}]}' -> 'les":{"y":[3.0,1.0e-200]}}]}'"""]


def test_moved_field_is_reported_without_byte_line():
    new = copy.deepcopy(DOC)
    new["records"][0]["iterations"] = 36
    assert compare_records.compare_json(json.dumps(DOC), json.dumps(new)) == [
        "iterations: largest relative change 0.0278"]


def test_total_iterations_of_moved_run():
    new = copy.deepcopy(DOC)
    new["records"][0]["iterations"] = 20
    assert compare_records.iteration_change(DOC["records"], new["records"]) == [
        "total iterations 48 -> 33"]


def test_total_iterations_counts_every_stage_and_csv_cells():
    staged = [{"iterations": 15, "total_iterations": 60}, {"iterations": "7"}]
    assert compare_records.total_iterations(staged) == 67
    assert compare_records.iteration_change([{"n_c": 3}], [{"n_c": 4}]) == []


def _bump_record(centre: int, total_energy: float) -> dict:
    """A density record on nodes 0, 0.5, ..., 9.5 with a bump at node `centre`."""
    y = [0.0] * 20
    y[centre - 1:centre + 2] = [0.5, 1.0, 0.5]
    return {"experiment": "multistate", "param_L": 9.5, "param_N": 20, "param_grid": "uniform",
            "converged": True, "iterations": 47, "total_energy": total_energy,
            "m1": centre * 0.5, "m2": (centre * 0.5) ** 2, "aggregates": 1, "stages_converged": 8, "wall_time_s": 0.1,
            "samples_kind": "density", "samples": {"y": y}}


def test_neighbouring_translate_is_one_line():
    # the second record moves one node right at the same energy; the first
    # stays, and the third moves its energy, so it is no translate
    old = [_bump_record(5, -0.675), _bump_record(5, -0.675), _bump_record(5, -0.675)]
    new = [_bump_record(5, -0.675), _bump_record(6, -0.675 * (1 + 5e-13)),
           _bump_record(6, -0.675 * (1 + 1e-9))]
    new[1]["samples"]["y"][6] = 1.25
    assert compare_records.compare_records(old, new) == [
        "record 1: neighbouring translate, m1 2.5 -> 3.0, L1 0.125 after a shift of 1 nodes",
        "total_energy: largest relative change 1e-09",
        "m1: largest relative change 0.167",
        "m2: largest relative change 0.306",
        "samples.y: largest relative change 1",
    ]


def _hat_record(centre: float) -> dict:
    """_bump_record with the samples of a hat of half-width 1 about `centre`."""
    record = _bump_record(5, -0.675)
    x = compare_records.nodes(record)
    record["samples"]["y"] = [max(0.0, 1.0 - abs(t - centre)) for t in x]
    record["m1"] = centre
    return record


def test_sub_node_translate_is_one_line():
    # the hat moves 0.4 of a node: read against the old samples shifted by the
    # m1 change it is closer than in place; samples that stayed in place are
    # not, and a move of 0.04 of a node is too small to count
    old, new = _hat_record(2.6), _hat_record(2.8)
    assert compare_records.compare_records([old], [new]) == [
        "record 0: neighbouring translate, m1 2.6 -> 2.8, L1 0.08 after a shift of 0.4 nodes"]
    stayed = _hat_record(2.6)
    stayed["m1"] = 2.8
    assert compare_records.translate(0, old, stayed) is None
    assert compare_records.translate(0, old, _hat_record(2.62)) is None


def test_schema_change_alone_is_one_line():
    # the v2 text has the indent=1 layout, which is not reported
    v3 = _doc("v3", copy.deepcopy(DOC["records"]))
    assert compare_records.compare_json(json.dumps(DOC, indent=1), json.dumps(v3)) == [
        "schema 'swarmeq.records.v2' -> 'swarmeq.records.v3'"]
    v3["records"][1]["samples"]["y"][0] = 4.0
    assert compare_records.compare_json(json.dumps(DOC, indent=1), json.dumps(v3)) == [
        "schema 'swarmeq.records.v2' -> 'swarmeq.records.v3'",
        "samples.y: largest relative change 0.25"]


def test_neighbouring_translate_without_nodes():
    # the records' nodes come from param_L and param_N
    old, new = _bump_record(5, -0.675), _bump_record(6, -0.675)
    new["samples"]["y"][6] = 1.25
    line = "record 0: neighbouring translate, m1 2.5 -> 3.0, L1 0.125 after a shift of 1 nodes"
    assert compare_records.compare_documents(_doc("v2", [old]), _doc("v2", [new])) == [line]


def test_v2_nodes_are_the_grid_nodes():
    record = {"samples": {"y": []}, "param_L": 4.0, "param_N": 1000, "param_grid": "uniform"}
    assert compare_records.nodes(record) == make_grid(4.0, 1000).nodes.tolist()
