"""The kernel-stable artifacts, written again in process, match the files
checked in under ``tests/reference/``.

JSON is compared by ``artifact_compare.compare_dirs``: every non-float leaf
equal (verdicts, snapped values, digests), every float within 1e-14, so the
test passes under every BLAS kernel and numpy dispatch target CI runs.  The
``gkl`` text and the SVG are compared byte for byte.  A change that moves a
bit rewrites the references with ``python tests/artifacts.py write``.
"""

import json

from artifact_compare import compare_dirs
from artifacts import REFERENCE, STABLE, write


def test_the_kernel_stable_artifacts_match_the_references(tmp_path):
    write(tmp_path, STABLE)
    assert compare_dirs(REFERENCE, tmp_path) == []


def test_the_benchmark_mesh_reports_hold_the_paper_values():
    """τ = χ and e = χ/2 on the holomorphic sections, τ = 0 and e = −χ on
    the Lagrangian octagon, each report reliable."""
    expected = {
        "turnover_3-3-4_r8": ("-1/12", "-1/12", "-1/24"),
        "turnover_3-3-5_r8": ("-2/15", "-2/15", "-1/15"),
        "turnover_2-3-7_r8": ("-1/42", "-1/42", "-1/84"),
        "octagon_complex_r4": ("-2/1", "-2/1", "-1/1"),
        "octagon_lagrangian_r4": ("-2/1", "0/1", "2/1"),
    }
    meshes = REFERENCE / "meshes"
    assert sorted(p.name for p in meshes.iterdir()) == sorted(f"{n}.report.json" for n in expected)
    for name, (chi, tau, e) in expected.items():
        doc = json.loads((meshes / f"{name}.report.json").read_text())
        assert (doc["chi"], doc["toledo"]["snapped"], doc["euler"]["snapped"]) == (chi, tau, e)
        assert doc["reliable"] is True
