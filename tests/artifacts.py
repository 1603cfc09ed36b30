"""Every artifact CI writes, in one table, and the commands over it.

    python tests/artifacts.py write [DIR]
    python tests/artifacts.py compare DIR_A DIR_B [DIR ...]
    python tests/artifacts.py targets NAME ...

``write`` writes each entry of ``ARTIFACTS`` into a new subdirectory of
DIR in one process, then certifies every ``.quad.json`` written again with
check-quadrangle (into ``check/``): it must exit 0 (2 on ``FAILING``), and
its certificate must equal the ``.cert.json`` written beside the quadrangle
byte for byte.  Without DIR it rewrites ``tests/reference/`` with the
kernel-stable entries (``STABLE``).  ``compare`` runs ``compare_dirs`` over
the ``STABLE`` entries of every pair of directories, prints each difference
and exits 1 when there is one.  ``targets`` prints the CPU targets numpy
dispatches that are named or start with AVX512: the value of
``NPY_DISABLE_CPU_FEATURES`` that turns them off.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import sys
from pathlib import Path

from chdisc import (QuadrangleConfig, TurnoverSignature, euler_via_mesh, fuchsian_turnover,
                    invariant_report, octagon_mesh, orbifold_euler, toledo_via_mesh,
                    turnover_section_mesh)
from chdisc.cli import EXIT_FAIL, EXIT_PASS, main as chdisc
from chdisc.io import quadrangle_to_json_dict, write_json

from artifact_compare import compare_dirs
from conftest import boost

#: the checked-in files of the kernel-stable entries, one directory each
REFERENCE = Path(__file__).resolve().parent / "reference"

#: the benchmark section meshes: turnovers at refinement 8, octagons at 4
MESHES = (("turnover", (3, 3, 4), 8), ("turnover", (3, 3, 5), 8), ("turnover", (2, 3, 7), 8),
          ("octagon", "complex", 4), ("octagon", "lagrangian", 4))

#: the quadrangles whose certificate fails: check-quadrangle exits 2 on them
FAILING = {"turnover_2-3-7_bend0"}


def _run(command: str, stdout: str | None = None):
    """A writer that runs one chdisc command line, ``{out}`` in it being the
    entry's directory; ``stdout`` names the file the output goes to."""
    def write(out: Path) -> None:
        text = io.StringIO()
        with contextlib.redirect_stdout(text if stdout else sys.stdout):
            code = chdisc([arg.format(out=out) for arg in command.split()])
        if code != EXIT_PASS:
            raise RuntimeError(f"chdisc {command} exited {code}")
        if stdout:
            (out / stdout).write_text(text.getvalue())
    return write


def _mesh_reports(out: Path) -> None:
    """One ``.report.json`` per mesh of ``MESHES``: τ from ``toledo_via_mesh``
    and e from ``euler_via_mesh``, marked unreliable when the mesh's χ is not
    the orbifold one, as ``chdisc turnover`` does.  No chdisc command builds
    an octagon, so these files are where the octagon path is compared."""
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
        report.reliable = report.reliable and degrees.chi == chi
        write_json(out / f"{kind}_{tag}_r{refinement}.report.json", report.to_json_dict())


def _boosted(out: Path) -> None:
    """The (3,3,4) baseline quadrangle moved far from the origin by the boost
    of rapidity 7 along (1, i); ``write`` certifies it."""
    g = boost(7.0, [1.0, 1j])
    q = fuchsian_turnover(TurnoverSignature(3, 3, 4))[1].config
    write_json(out / "boosted_3-3-4.quad.json",
               quadrangle_to_json_dict(QuadrangleConfig(tuple(g(p) for p in q.polars))))


#: name: (writer, kernel-stable).  The bend 0.02 and -0.05 turnovers (the
#: latter the multistart case) and the (2,3,7) failure row follow the
#: kernel's last bits (ROADMAP item 3); the boosted certificate's margins move
#: by up to 9.9e-10 across BLAS kernels and 1.9e-8 across dispatch targets.
#: ``--mesh 0.02`` runs (3,4,4) at refinement 24 (1152 faces) with a note.
ARTIFACTS = {
    "turnover": (_run("turnover --n 3 3 4 --out {out}"), True),
    "scan": (_run("scan --n 3 3 4 --n 3 3 5 --n 3 4 4 --n 2 3 7 --out {out}"), True),
    "bent": (_run("turnover --n 3 3 4 --bend 0.1 --out {out}"), True),
    "drift": (_run("turnover --n 3 3 4 --bend 0.02 --out {out}"), False),
    "family": (_run("turnover --n 3 3 4 --bend -0.05 --out {out}"), False),
    "fail": (_run("scan --n 2 3 7 --bend 0.02 --out {out}"), False),
    "fine": (_run("turnover --n 3 4 4 --mesh 0.02 --out {out}"), True),
    "meshes": (_mesh_reports, True),
    "gkl": (_run("gkl --genus 7", stdout="gkl_genus7.txt"), True),
    "figure": (_run("figure --n 3 3 4 --draw polygon quadrangle --out {out}/figure_3-3-4.svg"), True),
    "boosted": (_boosted, False),
}

STABLE = tuple(name for name, (_, stable) in ARTIFACTS.items() if stable)


def _check_quadrangles(out: Path) -> None:
    """check-quadrangle on every quadrangle in ``out``, into ``out/check``."""
    for quad in sorted(out.glob("*.quad.json")):
        name = quad.name.removesuffix(".quad.json")
        want = EXIT_FAIL if name in FAILING else EXIT_PASS
        with contextlib.redirect_stdout(io.StringIO()):
            code = chdisc(["check-quadrangle", str(quad), "--out", str(out / "check")])
        if code != want:
            raise RuntimeError(f"check-quadrangle {quad} exited {code}, not {want}")
        written = out / f"{name}.cert.json"
        if written.exists() and written.read_bytes() != (out / "check" / f"{name}.quad.cert.json").read_bytes():
            raise RuntimeError(f"check-quadrangle {quad} differs from {written}")


def write(out: Path, names=tuple(ARTIFACTS)) -> None:
    """Write the entries ``names`` of ``ARTIFACTS`` under ``out``, each
    certified quadrangle read back by check-quadrangle."""
    for name in names:
        (out / name).mkdir(parents=True)
        ARTIFACTS[name][0](out / name)
        _check_quadrangles(out / name)


def compare(dirs) -> list[str]:
    """Every difference between the kernel-stable entries of each pair of ``dirs``."""
    return [f"{a} {b}: {name}/{d}" for a, b in itertools.combinations(dirs, 2)
            for name in STABLE for d in compare_dirs(Path(a, name), Path(b, name))]


def targets(names) -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatched
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__ as dispatched
    return [n for n in dispatched if n in names or n.startswith("AVX512")]


def main(argv: list[str]) -> int:
    command, args = (argv[0], argv[1:]) if argv else (None, [])
    if command == "write" and len(args) == 1:
        write(Path(args[0]))
    elif command == "write" and not args:
        shutil.rmtree(REFERENCE, ignore_errors=True)
        write(REFERENCE, STABLE)
    elif command == "compare" and len(args) >= 2:
        differences = compare(args)
        for d in differences:
            print(d)
        return 1 if differences else 0
    elif command == "targets":
        print(" ".join(targets(args)))
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
