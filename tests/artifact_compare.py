"""Compare two directories of chdisc artifacts written under different BLAS kernels.

    python tests/artifact_compare.py DIR_A DIR_B

Both directories must hold the same file names.  In each pair of JSON files
every leaf that is not a float must be equal (verdicts, snapped fractions,
digests, integers, key sets and list lengths), and every float must lie
within ``FLOAT_BUDGET`` (absolute) of its partner; any other file must be
byte-equal.  Prints each difference and exits 1 when there is one.
"""

from __future__ import annotations

import json
import math
import sys
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


def compare_dirs(a: Path, b: Path) -> list[str]:
    """Every difference between the artifacts of two output directories."""
    names_a = {p.name for p in Path(a).iterdir() if p.is_file()}
    names_b = {p.name for p in Path(b).iterdir() if p.is_file()}
    out = [f"{name}: only in {a}" for name in sorted(names_a - names_b)]
    out += [f"{name}: only in {b}" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        fa, fb = Path(a, name), Path(b, name)
        if name.endswith(".json"):
            out += [f"{name} {d}" for d in
                    leaf_differences(json.loads(fa.read_text()), json.loads(fb.read_text()))]
        elif fa.read_bytes() != fb.read_bytes():
            out.append(f"{name}: bytes differ")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/artifact_compare.py DIR_A DIR_B", file=sys.stderr)
        return 2
    differences = compare_dirs(Path(argv[0]), Path(argv[1]))
    for d in differences:
        print(d)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
