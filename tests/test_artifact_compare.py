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
