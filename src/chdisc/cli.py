"""Command-line entry points.

Subcommands: ``check-quadrangle``, ``turnover``, ``gkl``, ``figure``,
``scan``.  Exit-code contract: 0 pass, 2 checked failure (a certificate or
solver said no), 3 invalid input.  All outputs are byte-reproducible given
identical inputs, tolerances, and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .disc import disc_distance, triangle_vertices
from .errors import ConvergenceError, GeometryError, InvalidSolutionError
from .invariants import (
    InvariantReport,
    euler_via_mesh,
    gkl_euler,
    invariant_report,
    toledo_via_coning,
)
from .io import (
    SchemaError,
    load_quadrangle,
    quadrangle_to_json_dict,
    representation_to_json_dict,
    write_json,
)
from .meshes import turnover_section_mesh
from .quadrangle import validate_quadrangle
from .representations import (
    SolverSeed,
    TurnoverSignature,
    fuchsian_turnover,
    orbifold_euler,
    turnover_solve,
)
from .svg import FigureSpec, write_svg
from .tolerances import TOL

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_INVALID = 3


def _tolerances(args):
    if getattr(args, "tol", None) is None:
        return TOL
    return dataclasses.replace(TOL, strict_margin=args.tol)


def _bend_tag(bend: float) -> str:
    """The bend in an artifact name: its shortest round-trip digits, so
    distinct bends get distinct names, with "-" as "m" and "." as "p"."""
    s = np.format_float_positional(bend + 0.0, trim="-")  # + 0.0 makes -0.0 into 0.0
    return s.replace("-", "m").replace(".", "p")


def _number_error(mesh: float, bends) -> str | None:
    """Why a ``--mesh`` edge length or a ``--bend`` cannot be run, or None.

    The edge length must be positive and finite: 0 divides by zero, NaN
    has no refinement, and a negative or infinite length would be clipped
    to an arbitrary one.  A bend must be finite.
    """
    if not (math.isfinite(mesh) and mesh > 0.0):
        return f"--mesh must be a positive finite edge length, got {mesh}"
    for bend in bends:
        if not math.isfinite(bend):
            return f"--bend must be finite, got {bend}"
    return None


def _tol_error(tol: float | None) -> str | None:
    """Why a ``--tol`` strict margin cannot be run, or None.

    The margin must be finite and >= 0: NaN or infinity cannot be written
    into a certificate's JSON, and a negative margin would pass a strict
    inequality by a slack it does not have.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        return f"--tol must be a finite strict margin >= 0, got {tol}"
    return None


def _refinement_for(sig: TurnoverSignature, h: float) -> int:
    """The section-mesh refinement for edge length h: the longest side of
    the signature's triangle over h, rounded up, and moved into [2, 24]; a
    one-line stderr note names a refinement so moved and the one used."""
    z1, z2, z3 = triangle_vertices(*sig.angles())
    side = max(disc_distance(z1, z2), disc_distance(z2, z3), disc_distance(z3, z1))
    wanted = np.ceil(side / h)
    used = int(np.clip(wanted, 2, 24))
    if used != wanted:
        print(f"note: --mesh {h} asks refinement {wanted:.0f} for {sig.orders()}; "
              f"using {used}, the nearest in [2, 24]", file=sys.stderr)
    return used


def _unconverged_row(orders, bend: float, error=None) -> dict:
    """A scan summary row for a grid point with no converged solution."""
    return {"signature": list(orders), "bend": bend, "converged": False,
            "certificate_passed": None, "worst_relation_residual": None, "error": error}


def run_turnover(sig: TurnoverSignature, bend: float, seed: int, mesh_h: float,
                 out_dir: Path, tol=TOL) -> dict:
    """Full turnover pipeline; returns a summary row and writes artifacts."""
    row = _unconverged_row(sig.orders(), bend)
    tag = f"turnover_{sig.n1}-{sig.n2}-{sig.n3}_bend{_bend_tag(bend)}"
    try:
        if bend == 0.0:
            rep, quad = fuchsian_turnover(sig, tol=tol)
        else:
            rep, quad = turnover_solve(sig, bend, SolverSeed(seed=seed), tol=tol)
    except (ConvergenceError, InvalidSolutionError) as exc:
        row["error"] = str(exc)
        return row
    row["converged"] = True
    cert = quad.certificate
    row["certificate_passed"] = cert.passed
    rep_doc = representation_to_json_dict(rep)
    # each residual is written as its round-trip repr, so it reads back exactly
    row["worst_relation_residual"] = max(rep_doc["relation_residuals"].values())

    tau_raw = toledo_via_coning(rep, rep.fixed_points(), tol=tol)
    chi = orbifold_euler(sig)
    if bend == 0.0:
        mesh = turnover_section_mesh(sig.n1, sig.n2, sig.n3,
                                     refinement=_refinement_for(sig, mesh_h))
        degrees = euler_via_mesh(mesh, tol=tol)
        report = invariant_report(chi, tau_raw, degrees.euler_raw,
                                  mesh.snap_denominator(), tol=tol)
        if degrees.chi != chi:
            report.reliable = False
    else:
        # no section mesh away from the C-Fuchsian locus: no Euler degree
        report = InvariantReport(chi=chi, toledo_raw=tau_raw, euler_raw=None,
                                 reliable=False, tolerances=tol)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / f"{tag}.rep.json", rep_doc)
    write_json(out_dir / f"{tag}.quad.json", quadrangle_to_json_dict(quad.config))
    write_json(out_dir / f"{tag}.cert.json", cert.to_json_dict())
    write_json(out_dir / f"{tag}.report.json", report.to_json_dict())
    row["toledo_raw"] = tau_raw
    row["report_reliable"] = report.reliable
    return row


def cmd_check_quadrangle(args) -> int:
    error = _tol_error(args.tol)
    if error:
        print(f"invalid input: {error}", file=sys.stderr)
        return EXIT_INVALID
    config = load_quadrangle(args.input)
    cert = validate_quadrangle(config, tol=_tolerances(args))
    out_dir = Path(args.out) if args.out else Path(args.input).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (Path(args.input).stem + ".cert.json")
    write_json(out_path, cert.to_json_dict())
    print(f"certificate: {out_path}  pass={cert.passed}")
    if not cert.passed:
        for name, ok in (("K1", cert.k1), ("K2", cert.k2), ("K3", cert.k3)):
            if not ok:
                print(f"failed: {name}")
    return EXIT_PASS if cert.passed else EXIT_FAIL


def _signature(ns) -> TurnoverSignature:
    n1, n2, n3 = ns
    return TurnoverSignature(n1, n2, n3)


def cmd_turnover(args) -> int:
    error = _number_error(args.mesh, [args.bend]) or _tol_error(args.tol)
    if error:
        print(f"invalid input: {error}", file=sys.stderr)
        return EXIT_INVALID
    try:
        sig = _signature(args.n)
    except GeometryError as exc:
        print(f"invalid signature: {exc}", file=sys.stderr)
        return EXIT_INVALID
    row = run_turnover(sig, args.bend, args.seed, args.mesh,
                       Path(args.out), tol=_tolerances(args))
    if not row["converged"]:
        print(f"solver failed: {row['error']}", file=sys.stderr)
        return EXIT_FAIL
    print(
        f"signature {tuple(sig.orders())} bend {args.bend}: "
        f"certificate={'pass' if row['certificate_passed'] else 'fail'} "
        f"worst relation residual {row['worst_relation_residual']:.3g}"
    )
    return EXIT_PASS


def cmd_gkl(args) -> int:
    taus = [args.tau_abs] if args.tau_abs is not None else list(
        range(0, 2 * args.genus - 1, 2)
    )
    try:
        rows = [(tau_abs, gkl_euler(args.genus, tau_abs)) for tau_abs in taus]
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print("genus  |tau|  t  g1  g2  chi1  chi2  e  identity")
    for tau_abs, (e, chi1, chi2, t) in rows:
        g1 = -chi1 // 2
        g2 = -chi2 // 2
        ok = -3 * tau_abs == 2 * e + 2 * (2 - 2 * args.genus)
        print(f"{args.genus:5d}  {tau_abs:5d}  {t}  {g1:2d}  {g2:2d}  "
              f"{chi1:4d}  {chi2:4d}  {e:2d}  {'OK' if ok else 'FAIL'}")
    return EXIT_PASS


def cmd_figure(args) -> int:
    try:
        sig = _signature(args.n)
    except GeometryError as exc:
        print(f"invalid signature: {exc}", file=sys.stderr)
        return EXIT_INVALID
    z1, z2, z3 = triangle_vertices(*sig.angles())
    z2m = z2 * np.exp(2j * np.pi / sig.n1)
    spec = FigureSpec(title=f"turnover ({sig.n1},{sig.n2},{sig.n3}) fundamental domain")
    if "polygon" in args.draw:
        spec.arcs += [(z1, z2), (z2, z3), (z3, z2m), (z2m, z1)]
        spec.labels += [("C1", z1), ("C2", z2), ("C3", z3)]
    if "quadrangle" in args.draw:
        for name, z in (("C1", z1), ("C2", z2), ("C3", z3), ("C4", z2m)):
            spec.markers.append((z, 0.04))
            if name == "C4":
                spec.labels.append((name, z))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_svg(out, spec)
    print(f"figure: {out}")
    return EXIT_PASS


def cmd_scan(args) -> int:
    error = _number_error(args.mesh, args.bend) or _tol_error(args.tol)
    if error:
        print(f"invalid input: {error}", file=sys.stderr)
        return EXIT_INVALID
    grid = []
    seen = set()
    for ns in args.n:
        for bend in args.bend:
            key = (tuple(ns), float(bend))
            if key in seen:
                print(f"warning: duplicate grid point {key} skipped", file=sys.stderr)
                continue
            seen.add(key)
            grid.append(key)
    grid.sort()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tol = _tolerances(args)

    rows = []
    for ns, bend in grid:
        try:
            sig = _signature(ns)
        except GeometryError as exc:
            rows.append(_unconverged_row(ns, bend, f"invalid signature: {exc}"))
            continue
        try:
            rows.append(run_turnover(sig, bend, args.seed, args.mesh, out_dir, tol=tol))
        except GeometryError as exc:
            rows.append(_unconverged_row(ns, bend, str(exc)))
    summary = {"format": "chdisc/1", "kind": "scan_summary", "rows": rows}
    write_json(out_dir / "summary.json", summary)
    for row in rows:
        status = "ok" if row["converged"] else f"failed ({row['error']})"
        print(f"{tuple(row['signature'])} bend {row['bend']}: {status}")
    print(f"summary: {out_dir / 'summary.json'}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chdisc",
        description="Quadrangles of bisectors, turnover representations, and "
                    "disc-bundle invariants in the complex hyperbolic plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-quadrangle", help="certify a quadrangle JSON file")
    p.add_argument("input", help="quadrangle JSON file (four polars)")
    p.add_argument("--out", help="output directory (default: alongside input)")
    p.add_argument("--tol", type=float, help="strict-margin tolerance override")
    p.set_defaults(func=cmd_check_quadrangle)

    p = sub.add_parser("turnover", help="build a turnover representation and invariants")
    p.add_argument("--n", type=int, nargs=3, required=True, metavar=("N1", "N2", "N3"))
    p.add_argument("--bend", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mesh", type=float, default=0.05, help="target mesh edge length")
    p.add_argument("--tol", type=float, help="strict-margin tolerance override")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_turnover)

    p = sub.add_parser("gkl", help="Euler numbers of the GKL disc-bundle construction")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--tau-abs", type=int, default=None)
    p.set_defaults(func=cmd_gkl)

    p = sub.add_parser("figure", help="SVG figure of a fundamental domain")
    p.add_argument("--n", type=int, nargs=3, required=True, metavar=("N1", "N2", "N3"))
    p.add_argument("--draw", nargs="+", choices=["polygon", "quadrangle"],
                   default=["polygon"])
    p.add_argument("--out", default="figure.svg")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("scan", help="run the turnover pipeline over a grid")
    p.add_argument("--n", type=int, nargs=3, action="append", required=True,
                   metavar=("N1", "N2", "N3"))
    p.add_argument("--bend", type=float, nargs="+", default=[0.0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mesh", type=float, default=0.05)
    p.add_argument("--tol", type=float, help="strict-margin tolerance override")
    p.add_argument("--out", default="scan_out")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
