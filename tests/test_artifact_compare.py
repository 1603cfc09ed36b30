"""The cross-kernel artifact comparer: verdicts exact, floats within its budget."""

import json
import shutil

from chdisc.cli import main

import artifacts
from artifact_compare import FLOAT_BUDGET, compare_dirs, leaf_differences
from artifacts import REFERENCE


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


def test_comparer_walks_the_tree_and_fails_each_moved_bit(tmp_path):
    """Copies of ``tests/reference/``, whose top level holds only
    directories: a flipped verdict in a nested directory, a moved snapped
    value and a 1e-13 float shift are each reported, and so is a file or a
    directory on one side only."""
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(REFERENCE, a)
    shutil.copytree(REFERENCE, b)
    assert not [p for p in a.iterdir() if p.is_file()]
    assert compare_dirs(a, b) == []
    assert artifacts.main(["compare", str(a), str(b)]) == 0

    cert = b / "scan" / "check" / "turnover_3-3-4_bend0.quad.cert.json"
    _edit(cert, lambda d: d["k3"].update({"pass": not d["k3"]["pass"]}))
    report = b / "meshes" / "turnover_3-3-4_r8.report.json"
    _edit(report, lambda d: d["toledo"].update(snapped="-1/6"))
    fine = b / "fine" / "turnover_3-4-4_bend0.report.json"
    raw = json.loads(fine.read_text())["toledo"]["raw"]
    _edit(fine, lambda d: d["toledo"].update(raw=raw + 1e-13))
    moved = json.loads(fine.read_text())["toledo"]["raw"]
    shutil.rmtree(b / "gkl")
    (b / "figure" / "extra").mkdir()
    assert compare_dirs(a, b) == [
        f"gkl: only in {a}",
        f"figure/extra: only in {b}",
        f"fine/turnover_3-4-4_bend0.report.json $.toledo.raw: {raw!r} and {moved!r} "
        f"differ by {abs(moved - raw):.3g}",
        "meshes/turnover_3-3-4_r8.report.json $.toledo.snapped: '-1/12' != '-1/6'",
        "scan/check/turnover_3-3-4_bend0.quad.cert.json $.k3.pass: True != False",
    ]
    assert artifacts.main(["compare", str(a), str(b)]) == 1
    assert artifacts.main(["compare", str(a)]) == 2
