"""Write the invariants report of each of the five benchmark section meshes.

    python tests/mesh_reports.py DIR

One ``.report.json`` per mesh: the (3,3,4), (3,3,5) and (2,3,7) turnovers
at refinement 8 and the complex and Lagrangian octagons at refinement 4.
Each file is ``canonical_dumps`` of ``invariant_report(...).to_json_dict()``,
with τ from ``toledo_via_mesh`` and e from ``euler_via_mesh``, marked
unreliable when the mesh's χ is not the orbifold one, as ``chdisc turnover``
does.  No ``chdisc`` command builds an octagon, so these files put the
octagon path where ``tests/artifact_compare.py`` and ``diff -r`` see it.
"""

from __future__ import annotations

import sys
from pathlib import Path

from chdisc import (
    TurnoverSignature,
    euler_via_mesh,
    invariant_report,
    octagon_mesh,
    orbifold_euler,
    toledo_via_mesh,
    turnover_section_mesh,
)
from chdisc.io import write_json

MESHES = (
    ("turnover", (3, 3, 4), 8),
    ("turnover", (3, 3, 5), 8),
    ("turnover", (2, 3, 7), 8),
    ("octagon", "complex", 4),
    ("octagon", "lagrangian", 4),
)


def write_reports(out: Path) -> list[Path]:
    """Write one report per mesh of ``MESHES`` into ``out``; returns the paths."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for kind, arg, refinement in MESHES:
        if kind == "turnover":
            mesh = turnover_section_mesh(*arg, refinement=refinement)
            chi, tag = orbifold_euler(TurnoverSignature(*arg)), "-".join(map(str, arg))
        else:
            mesh = octagon_mesh(arg, refinement=refinement)
            chi, tag = orbifold_euler(2), arg
        degrees = euler_via_mesh(mesh)
        report = invariant_report(chi, toledo_via_mesh(mesh), degrees.euler_raw,
                                  mesh.snap_denominator())
        if degrees.chi != chi:
            report.reliable = False
        paths.append(out / f"{kind}_{tag}_r{refinement}.report.json")
        write_json(paths[-1], report.to_json_dict())
    return paths


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    write_reports(Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
