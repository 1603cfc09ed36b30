"""The cross-kernel artifact comparer: verdicts exact, floats within its budget."""

import json
import shutil

from chdisc.cli import main

from artifact_compare import FLOAT_BUDGET, compare_dirs, leaf_differences


def _edit(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def test_comparer_fails_a_flipped_verdict_and_passes_a_shift_within_budget(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["scan", "--n", "3", "3", "4", "--out", str(a)]) == 0
    shutil.copytree(a, b)
    assert compare_dirs(a, b) == []

    report = b / "turnover_3-3-4_bend0.report.json"
    _edit(report, lambda d: d["toledo"].update(raw=d["toledo"]["raw"] + 1e-15))
    raw = [json.loads(p.read_text())["toledo"]["raw"] for p in (a / report.name, report)]
    assert 0 < abs(raw[1] - raw[0]) < FLOAT_BUDGET
    assert compare_dirs(a, b) == []

    _edit(report, lambda d: d.update(reliable=not d["reliable"]))
    assert compare_dirs(a, b) == ["turnover_3-3-4_bend0.report.json $.reliable: True != False"]

    shutil.copy(a / report.name, report)
    (b / "extra.json").write_text("{}")
    assert compare_dirs(a, b) == [f"extra.json: only in {b}"]


def test_leaf_differences_hold_floats_to_the_budget_and_the_rest_exactly():
    assert leaf_differences({"x": [1.0, "1/3"]}, {"x": [1.0 + 0.5 * FLOAT_BUDGET, "1/3"]}) == []
    assert leaf_differences(1.0, 1.0 + 4 * FLOAT_BUDGET) != []
    assert leaf_differences({"x": "1/3"}, {"x": "1/6"}) == ["$.x: '1/3' != '1/6'"]
    assert leaf_differences([1, 2], [1, 2, 3]) == ["$: lengths 2 != 3"]
    assert leaf_differences(1, 1.0) == ["$: 1 != 1.0"]
    assert leaf_differences(True, 1) == ["$: True != 1"]


def test_mesh_reports_write_the_benchmark_meshes_reproducibly(tmp_path):
    """``tests/mesh_reports.py`` writes one reliable report per benchmark
    mesh, with τ = χ and e = χ/2 on the holomorphic sections and τ = 0,
    e = −χ on the Lagrangian octagon, the same bytes on a second run."""
    from mesh_reports import main as mesh_reports

    a, b = tmp_path / "a", tmp_path / "b"
    assert mesh_reports([str(a)]) == mesh_reports([str(b)]) == 0
    expected = {
        "turnover_3-3-4_r8": ("-1/12", "-1/12", "-1/24"),
        "turnover_3-3-5_r8": ("-2/15", "-2/15", "-1/15"),
        "turnover_2-3-7_r8": ("-1/42", "-1/42", "-1/84"),
        "octagon_complex_r4": ("-2/1", "-2/1", "-1/1"),
        "octagon_lagrangian_r4": ("-2/1", "0/1", "2/1"),
    }
    assert sorted(p.name for p in a.iterdir()) == sorted(f"{n}.report.json" for n in expected)
    for name, (chi, tau, e) in expected.items():
        path = a / f"{name}.report.json"
        doc = json.loads(path.read_text())
        assert (doc["chi"], doc["toledo"]["snapped"], doc["euler"]["snapped"]) == (chi, tau, e)
        assert doc["reliable"] is True
        assert path.read_bytes() == (b / path.name).read_bytes()
    assert compare_dirs(a, b) == []
    assert mesh_reports([]) == 2
