"""Compare two trees of chdisc artifacts written under different BLAS kernels
or dispatch targets (``python tests/artifacts.py compare`` runs it).

Both trees must hold the same files and directories at the same relative
paths.  In each pair of JSON files every leaf that is not a float must be
equal (verdicts, snapped fractions, digests, integers, key sets and list
lengths), and every float must lie within ``FLOAT_BUDGET`` (absolute) of its
partner; any other file must be byte-equal.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: the absolute float budget between kernels; the bend-0 scan of the four
#: standard signatures differs by at most 1.8e-15 (a K2 margin of (3,3,5))
#: between the SkylakeX, Haswell and Prescott OpenBLAS kernels
FLOAT_BUDGET = 1e-14


def leaf_differences(a, b, path: str = "$") -> list[str]:
    """Every place where two parsed JSON values differ beyond the budget."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or abs(a - b) <= FLOAT_BUDGET or (math.isnan(a) and math.isnan(b)):
            return []
        return [f"{path}: {a!r} and {b!r} differ by {abs(a - b):.3g}"]
    if type(a) is not type(b):
        return [f"{path}: {a!r} != {b!r}"]
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in sorted(a) for d in leaf_differences(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}: lengths {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in leaf_differences(x, y, f"{path}[{i}]")]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def _only_in(paths: set, others: set) -> list:
    """The paths of ``paths`` missing from ``others``, each directory named
    once instead of with everything under it."""
    only = paths - others
    return sorted(p for p in only if p.parent not in only)


def compare_dirs(a: Path, b: Path) -> list[str]:
    """Every difference between the artifacts of two output trees, each
    file named by its path relative to its tree."""
    a, b = Path(a), Path(b)
    paths_a = {p.relative_to(a) for p in a.rglob("*")}
    paths_b = {p.relative_to(b) for p in b.rglob("*")}
    out = [f"{rel.as_posix()}: only in {a}" for rel in _only_in(paths_a, paths_b)]
    out += [f"{rel.as_posix()}: only in {b}" for rel in _only_in(paths_b, paths_a)]
    for rel in sorted(paths_a & paths_b):
        fa, fb, name = a / rel, b / rel, rel.as_posix()
        if fa.is_dir() or fb.is_dir():
            if fa.is_dir() != fb.is_dir():
                out.append(f"{name}: a directory in only one of {a} and {b}")
        elif name.endswith(".json"):
            out += [f"{name} {d}" for d in
                    leaf_differences(json.loads(fa.read_text()), json.loads(fb.read_text()))]
        elif fa.read_bytes() != fb.read_bytes():
            out.append(f"{name}: bytes differ")
    return out
