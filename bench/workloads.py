"""The benchmark's four workloads and the checks on their outputs.

Each workload builds its items from the benchmark seed, runs one item
through chdisc's public API (or ``chdisc.cli.main``) and checks the
item's output.  Every call into chdisc goes through a module attribute
(``quadrangle.validate_quadrangle``, ``cli.main``, ...) so the tracer's
wrappers see it.  A round is one pass over the workload's item list; the
harness repeats rounds until the run's time is up.  ``warmup`` names the
item that setup runs untimed: the same kind of item for every seed, so
that setup time does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from chdisc import (
    Isometry,
    ProjectivePoint,
    QuadrangleConfig,
    SolverSeed,
    TurnoverSignature,
    cli,
    herm_form,
    invariant_report,
    invariants,
    meshes,
    orbifold_euler,
    polar_span,
    quadrangle,
    representations,
)
from chdisc.disc import F0, embed, triangle_vertices
from chdisc.io import canonical_dumps


@dataclass(frozen=True)
class Item:
    label: str
    payload: object
    expected: object


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- certify -----------------------------------------------------------------

PASS = (True, True, True)
K2_REJECT = (True, False, False)
CERTIFY_PASSING = ((3, 3, 4), (3, 3, 5), (3, 4, 4), (4, 4, 4))
CERTIFY_REJECTS = ("conjugated", "wrong_side_c3", "baseline_2-3-7")


def baseline_quadrangle(sig):
    """The C-Fuchsian quadrangle (C1, C2, C3, g1^-1 C2) and its disc vertices."""
    n1, n2, n3 = sig
    z1, z2, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
    z4 = z2 * np.exp(2j * np.pi / n1)
    polars = tuple(polar_span(embed(z), F0) for z in (z1, z2, z3, z4))
    return QuadrangleConfig(polars), (z1, z2, z3, z4)


def certify_bases():
    """Every certify quadrangle before its isometry, with the verdict it must get.

    The verdicts are the ones the acceptance suite establishes: the four
    baselines pass K1-K3; the conjugated polars (orientation), the
    wrong-side C3 and the (2,3,7) baseline keep K1 and fail K2.
    """
    bases = {f"baseline_{a}-{b}-{c}": (baseline_quadrangle((a, b, c))[0], PASS)
             for a, b, c in CERTIFY_PASSING}
    q, (_, _, z3, _) = baseline_quadrangle((3, 3, 4))
    bases["conjugated"] = (
        QuadrangleConfig(tuple(ProjectivePoint(np.conj(p.v)) for p in q.polars)), K2_REJECT)
    bases["wrong_side_c3"] = (
        QuadrangleConfig(q.polars[:2] + (polar_span(embed(-z3), F0),) + q.polars[3:]),
        K2_REJECT)
    bases["baseline_2-3-7"] = (baseline_quadrangle((2, 3, 7))[0], K2_REJECT)
    return bases


def random_isometry(rng, radius: float = 0.8) -> Isometry:
    """A random holomorphic isometry from a form-orthonormal frame.

    Columns: a unit negative point within ``radius`` of the origin in the
    ball model, a unit tangent vector there and the polar completion,
    each multiplied by a random unit phase.
    """
    r = radius * np.sqrt(rng.uniform())
    phi1, phi2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    split = rng.uniform()
    x = ProjectivePoint([1.0, r * np.sqrt(split) * np.exp(1j * phi1),
                         r * np.sqrt(1.0 - split) * np.exp(1j * phi2)])
    xh = x.v / np.sqrt(-x.self_form())
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    e1 = w + herm_form(w, xh) * xh
    e1 = e1 / np.sqrt(herm_form(e1, e1).real)
    e2 = polar_span(ProjectivePoint(xh), ProjectivePoint(e1)).v
    e2 = e2 / np.sqrt(herm_form(e2, e2).real)
    m = np.column_stack([xh, e1, e2]) @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
    return Isometry.from_matrix(m)


class Certify:
    """A stream of ``validate_quadrangle`` calls at the default tolerances.

    A round has 16 items: the four passing baselines three times each and
    four rejects (each reject kind once, plus one chosen by the seed), in
    seeded order, each quadrangle moved by its own seeded isometry.  Every
    round draws fresh isometries; the work per round is the same.
    """

    name = "certify"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.bases = certify_bases()

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        kinds = [f"baseline_{a}-{b}-{c}" for a, b, c in CERTIFY_PASSING] * 3
        kinds += list(CERTIFY_REJECTS) + [CERTIFY_REJECTS[rng.integers(len(CERTIFY_REJECTS))]]
        items = []
        for k in rng.permutation(len(kinds)):
            q, verdict = self.bases[kinds[k]]
            g = random_isometry(rng)
            moved = QuadrangleConfig(tuple(g(p) for p in q.polars))
            items.append(Item(kinds[k], moved, verdict))
        return items

    def warmup(self) -> Item:
        return next(i for i in self.round(0) if i.label == "baseline_3-3-4")

    def run(self, item: Item) -> dict:
        cert = quadrangle.validate_quadrangle(item.payload)
        return {"verdict": (cert.k1, cert.k2, cert.k3),
                "certificate": _digest(canonical_dumps(cert.to_json_dict()).encode())}

    def check(self, item: Item, out: dict):
        if out["verdict"] != item.expected:
            return f"verdict (K1, K2, K3) = {out['verdict']}, expected {item.expected}"
        return None


# -- invariants ----------------------------------------------------------------

INVARIANT_MESHES = (
    ("turnover", (3, 3, 4), 8),
    ("turnover", (3, 3, 5), 8),
    ("turnover", (2, 3, 7), 8),
    ("octagon", "complex", 4),
    ("octagon", "lagrangian", 4),
)


def section_chi(kind, arg) -> Fraction:
    """Orbifold Euler characteristic of the turnover, or of the genus-2 surface."""
    return orbifold_euler(TurnoverSignature(*arg) if kind == "turnover" else 2)


def invariant_expectation(kind, arg):
    """(chi, tau, e, holomorphic) that the section's invariants must snap to.

    Holomorphic sections (turnovers, the complex octagon) give tau = chi
    and e = chi/2; the Lagrangian octagon gives tau = 0 and e = -chi.
    """
    chi = section_chi(kind, arg)
    if arg == "lagrangian":
        return chi, Fraction(0), -chi, False
    return chi, chi, chi / 2, True


class Invariants:
    """Bundle invariants of five section meshes.

    Each item builds the mesh, then runs ``toledo_via_mesh``,
    ``euler_via_mesh`` and ``invariant_report``.  The seed only sets the
    order of the items within a round.
    """

    name = "invariants"

    def __init__(self, seed: int, workdir: Path):
        order = np.random.default_rng(seed).permutation(len(INVARIANT_MESHES))
        self.items = []
        for k in order:
            kind, arg, refinement = INVARIANT_MESHES[k]
            tag = "-".join(map(str, arg)) if kind == "turnover" else arg
            self.items.append(Item(f"{kind}_{tag}_r{refinement}", (kind, arg, refinement),
                                   invariant_expectation(kind, arg)))

    def round(self, r: int) -> list:
        return self.items

    def warmup(self) -> Item:
        return next(i for i in self.items if i.label == "turnover_3-3-4_r8")

    def run(self, item: Item) -> dict:
        kind, arg, refinement = item.payload
        if kind == "turnover":
            mesh = meshes.turnover_section_mesh(*arg, refinement=refinement)
        else:
            mesh = meshes.octagon_mesh(arg, refinement=refinement)
        chi = section_chi(kind, arg)
        tau_raw = invariants.toledo_via_mesh(mesh)
        degrees = invariants.euler_via_mesh(mesh)
        report = invariant_report(chi, tau_raw, degrees.euler_raw, mesh.snap_denominator())
        return {
            "chi_mesh": degrees.chi,
            "tau": report.toledo,
            "e": report.euler,
            "reliable": report.reliable,
            "residual_signed": report.residual(signed=True),
            "residual_unsigned": report.residual(signed=False),
            "tau_raw": tau_raw,
            "e_raw": degrees.euler_raw,
        }

    def check(self, item: Item, out: dict):
        chi, tau, e, holomorphic = item.expected
        if not out["reliable"] or out["tau"] is None or out["e"] is None:
            return "invariants did not snap (report unreliable)"
        got = (out["chi_mesh"], out["tau"], out["e"])
        if got != (chi, tau, e):
            return f"(chi, tau, e) = {got}, expected {(chi, tau, e)}"
        residual = out["residual_signed"] if holomorphic else out["residual_unsigned"]
        if residual != 0:
            return f"identity residual {residual}, expected 0"
        return None


# -- solve -----------------------------------------------------------------

SOLVE_LADDER = (
    ((3, 3, 4), 0.10), ((3, 3, 4), 0.08), ((3, 3, 4), 0.06), ((3, 3, 4), 0.04),
    ((3, 3, 4), 0.03), ((3, 3, 4), -0.05), ((3, 3, 5), 0.10), ((3, 3, 5), 0.05),
)


class Solve:
    """``turnover_solve`` along a bend ladder in continuation order.

    Every item runs at the default ``SolverSeed()``, the start sequence a
    user gets.  The solver's cost depends on that seed through the number
    of starts it needs, so a seed-dependent start sequence would make the
    workload's cost differ from run seed to run seed; the run seed is
    therefore not used.  Every round repeats the same items.
    """

    name = "solve"
    residual_limit = 1e-9

    def __init__(self, seed: int, workdir: Path):
        self.items = [Item(f"{a}-{b}-{c}_bend{bend:+.2f}", (TurnoverSignature(a, b, c), bend),
                           (True, True))
                      for (a, b, c), bend in SOLVE_LADDER]

    def round(self, r: int) -> list:
        return self.items

    def warmup(self) -> Item:
        return self.items[0]

    def run(self, item: Item) -> dict:
        sig, bend = item.payload
        rep, quad = representations.turnover_solve(sig, bend, SolverSeed())
        cert = quad.certificate
        return {"verdict": (cert.k1, cert.k2, cert.k3),
                "g2_order_residual": rep.metadata["g2_order_residual"],
                "params": tuple(rep.metadata["params"])}

    def check(self, item: Item, out: dict):
        if not out["g2_order_residual"] < self.residual_limit:
            return f"g2 order residual {out['g2_order_residual']:.3g} >= {self.residual_limit:g}"
        if out["verdict"][:2] != item.expected:
            return f"(K1, K2) = {out['verdict'][:2]}, expected {item.expected}"
        return None


# -- pipeline --------------------------------------------------------------

SCAN_SIGNATURES = ((3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7))


class Pipeline:
    """``chdisc scan`` over four signatures at bend 0, then ``check-quadrangle``.

    One item is a scan at the default ``--jobs`` into a fresh directory,
    followed by ``check-quadrangle`` on every quadrangle it wrote and the
    read-back of both certificates.  The seed sets the order of the
    ``--n`` flags, which the scan's output must not depend on.  The first
    item checked in a run becomes the reference that its later items'
    artifacts must match byte for byte.
    """

    name = "pipeline"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference = None

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        sigs = [SCAN_SIGNATURES[k] for k in rng.permutation(len(SCAN_SIGNATURES))]
        expected = {f"{a}-{b}-{c}": (a, b, c) != (2, 3, 7) for a, b, c in SCAN_SIGNATURES}
        return [Item("scan_bend0", sigs, expected)]

    def warmup(self) -> Item:
        return self.round(0)[0]

    def run(self, item: Item) -> dict:
        scan_dir, check_dir = self.workdir / "scan", self.workdir / "check"
        argv = ["scan"]
        for sig in item.payload:
            argv += ["--n", *map(str, sig)]
        argv += ["--bend", "0", "--out", str(scan_dir)]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                scan_code = cli.main(argv)
                check_codes = {
                    quad.name: cli.main(["check-quadrangle", str(quad), "--out", str(check_dir)])
                    for quad in sorted(scan_dir.glob("*.quad.json"))
                }
            summary = json.loads((scan_dir / "summary.json").read_text())

            def verdicts(directory):
                return {p.name: json.loads(p.read_text())["pass"]
                        for p in sorted(directory.glob("*.cert.json"))}

            return {
                "scan_code": scan_code,
                "check_codes": check_codes,
                "converged": [row["converged"] for row in summary["rows"]],
                "artifacts": {p.name: _digest(p.read_bytes())
                              for p in sorted(scan_dir.glob("*.json"))},
                "written": verdicts(scan_dir),
                "read_back": verdicts(check_dir),
            }
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, item: Item, out: dict):
        if out["scan_code"] != 0:
            return f"scan exit code {out['scan_code']}"
        if not out["converged"] or not all(out["converged"]):
            return f"scan rows converged: {out['converged']}"
        if self.reference is None:
            self.reference = out["artifacts"]
        elif out["artifacts"] != self.reference:
            changed = sorted(set(out["artifacts"].items()) ^ set(self.reference.items()))
            return f"artifacts differ from the run's first item: {changed[:3]}"
        for tag, want in item.expected.items():
            cert = f"turnover_{tag}_bend0.cert.json"
            written = out["written"].get(cert)
            read_back = out["read_back"].get(f"turnover_{tag}_bend0.quad.cert.json")
            code = out["check_codes"].get(f"turnover_{tag}_bend0.quad.json")
            if written != want:
                return f"{tag}: scan certificate pass={written}, expected {want}"
            if read_back != written or code != (0 if written else 2):
                return f"{tag}: read-back pass={read_back} (exit {code}), scan wrote {written}"
        return None


WORKLOADS = {w.name: w for w in (Certify, Invariants, Solve, Pipeline)}
