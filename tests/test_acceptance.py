"""Acceptance suite: identity- and property-based checks on constructed
configurations, one test per criterion, at the stated tolerances."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from chdisc import (
    QuadrangleConfig,
    TurnoverSignature,
    elliptic_fixed_point,
    epsilon,
    euler_via_mesh,
    fuchsian_turnover,
    gkl_euler,
    h5_builder,
    herm_form,
    invariant_report,
    is_transversal,
    kaehler_angle,
    lagrangian_frame_check,
    octagon_mesh,
    orbifold_euler,
    polar_span,
    position,
    tance,
    toledo_via_coning,
    toledo_via_mesh,
    triangle_over_complex_geodesic,
    turnover_section_mesh,
    turnover_solve,
    validate_quadrangle,
)
from chdisc.core import ProjectivePoint, Isometry, reflection_about
from chdisc.disc import F0, embed, triangle_vertices
from chdisc.geometry import ComplexGeodesic, ULTRAPARALLEL, _negative_units
from chdisc.core import _tangent_basis_of_units
from chdisc.invariants import normalized_negative, tangent_project
from chdisc.meshes import real_plane_point
from chdisc.quadrangle import adjacency_check
from chdisc.tolerances import TOL

from conftest import (
    random_disc_coordinate,
    random_isometry,
    random_negative_point,
    random_positive_point,
)
from oracles import projective_distance, triangle_area_gauss_bonnet, triangle_area_quadrature


def _ccw_triangle(rng, radius=0.8, min_area=1e-3, min_sep=0.05):
    """Random counterclockwise disc triangle, nondegenerate by resampling."""
    while True:
        z1, z2, z3 = (random_disc_coordinate(rng, radius) for _ in range(3))
        if min(abs(z1 - z2), abs(z2 - z3), abs(z3 - z1)) < min_sep:
            continue
        if triangle_area_gauss_bonnet(z1, z2, z3) < min_area:
            continue
        # orientation from the vertex angle at z1: after moving z1 to the
        # origin the sides are straight rays, so the loop is ccw iff the
        # cross product of the ray directions is positive
        from chdisc.disc import mobius

        if (mobius(z1, z2).conjugate() * mobius(z1, z3)).imag < 0:
            z2, z3 = z3, z2
        return z1, z2, z3


def _baseline_quadrangle(sig=(3, 3, 4)):
    n1, n2, n3 = sig
    z1, z2, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
    z4 = z2 * np.exp(2j * np.pi / n1)  # g1^-1 C2
    return QuadrangleConfig(
        tuple(polar_span(embed(z), F0) for z in (z1, z2, z3, z4))
    ), (z1, z2, z3, z4)


def test_criterion_1_eps_area_law(rng):
    """arg(eps) = -2*area for 100 random ccw fiber triangles, area agreeing
    between Gauss-Bonnet and quadrature; all transversal, ccw, area < pi/4."""
    start = time.monotonic()
    for _ in range(100):
        z1, z2, z3 = _ccw_triangle(rng)
        _, tri = triangle_over_complex_geodesic(F0, embed(z1), embed(z2), embed(z3))
        area_gb = triangle_area_gauss_bonnet(z1, z2, z3)
        area_q = abs(triangle_area_quadrature(z1, z2, z3, order=32))
        assert abs(area_gb - area_q) < 1e-6
        assert abs(np.angle(tri.eps) + 2.0 * area_gb) < 1e-6
        ok, margins = is_transversal(tri)
        assert ok, f"transversality failed with margins {margins}"
        assert tri.eps.imag < 0.0  # counterclockwise
        assert area_gb < np.pi / 4.0
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize(
    "orders", [(3, 3, 4), (2, 3, 7), (2, 4, 5), (3, 3, 5)]
)
def test_criterion_2_baseline_kalashnikov(orders):
    """C-Fuchsian baselines: snapped tau = chi, e = chi/2, identity residual
    exactly zero; raw-vs-snapped gaps below 1e-4 (tau) and 1e-3 (e)."""
    start = time.monotonic()
    sig = TurnoverSignature(*orders)
    chi = orbifold_euler(sig)
    rep, _ = fuchsian_turnover(sig)
    fixed = {name: elliptic_fixed_point(g) for name, g in rep.generators.items()}
    tau_raw = toledo_via_coning(rep, fixed)
    mesh = turnover_section_mesh(*orders, refinement=3)
    degrees = euler_via_mesh(mesh)
    assert degrees.chi == chi
    report = invariant_report(chi, tau_raw, degrees.euler_raw, mesh.snap_denominator())
    assert report.reliable
    assert report.toledo == chi
    assert report.euler == chi / 2
    assert report.residual(signed=True) == 0
    assert abs(report.toledo_raw - float(report.toledo)) < 1e-4
    assert abs(report.euler_raw - float(report.euler)) < 1e-3
    assert time.monotonic() - start < 300.0


def test_criterion_3_gkl_arithmetic():
    """-3|tau| = 2e + 2chi exactly for every genus in [2,100], every even
    |tau| <= 2g-2, in integer arithmetic."""
    start = time.monotonic()
    for genus in range(2, 101):
        for tau_abs in range(0, 2 * genus - 1, 2):
            e, chi1, chi2, t = gkl_euler(genus, tau_abs)
            assert -3 * tau_abs == 2 * e + 2 * (2 - 2 * genus)
            assert e == 2 * genus - 2 - 3 * tau_abs // 2
    assert time.monotonic() - start < 1.0


def test_criterion_4_quadrangle_certification():
    """Baseline quadrangles pass K1-K3 with margins > 1e-6; constructed
    counterexamples fail exactly the intended check.

    The wrong-side-C3 configuration necessarily also reverses a triangle
    orientation, so the gated certificate stops at K2; the K3 adjacency
    sub-checks are therefore exercised directly and fail on their sector
    margins as intended.
    """
    start = time.monotonic()
    for sig in ((3, 3, 4), (3, 3, 5)):
        q, _ = _baseline_quadrangle(sig)
        cert = validate_quadrangle(q)
        assert cert.passed
        assert min(cert.k1_margins) > 1e-6
        assert min(min(m) for m in cert.k2_margins.values()) > 1e-6
        assert min(c.margin for c in cert.k3_checks) > 1e-6

    q, (z1, z2, z3, z4) = _baseline_quadrangle()

    # (a) a tance <= 1 pair: F0 is orthogonal to every fiber polar
    bad_k1 = QuadrangleConfig((F0,) + q.polars[1:])
    cert = validate_quadrangle(bad_k1)
    assert not cert.k1 and min(cert.k1_margins) < 0
    assert cert.k2_margins == {} and cert.k3_checks == []  # gated off

    # (b) conjugated (clockwise) polars: K1 survives, K2 fails on orientation
    conj = QuadrangleConfig(tuple(ProjectivePoint(np.conj(p.v)) for p in q.polars))
    cert = validate_quadrangle(conj)
    assert cert.k1 and not cert.k2
    for margins in cert.k2_margins.values():
        assert margins[-1] < 0  # the ccw margin -eps1

    # (c) wrong-side C3: reflect the third vertex through C1; the polars
    # stay pairwise ultraparallel (K1 holds) but C3 now sits on the wrong
    # side of the bisectors through C1 and the sector sub-checks fail
    wrong = QuadrangleConfig(
        q.polars[:2] + (polar_span(embed(-z3), F0),) + q.polars[3:]
    )
    cert = validate_quadrangle(wrong)
    assert cert.k1 and min(cert.k1_margins) > 0
    checks = adjacency_check(wrong)
    sector = [c for c in checks if c.name.startswith("sector")]
    assert any(not c.passed and c.margin < -1e-3 for c in sector)
    assert time.monotonic() - start < 60.0


def test_criterion_5_group_relations(rng):
    """(3,3,5) turnover relations and C4 consistency below 1e-10; H5
    involution residuals below 1e-12."""
    start = time.monotonic()
    rep, quad = fuchsian_turnover(TurnoverSignature(3, 3, 5))
    assert max(rep.relation_residuals().values()) < 1e-10
    assert rep.metadata["c4_consistency_gap"] < 1e-10
    assert quad.certificate.passed

    h5 = h5_builder(F0, [random_negative_point(rng) for _ in range(4)])
    residuals = h5.relation_residuals()
    for i in range(5):
        assert residuals[f"r{i+1} r{i+1}"] < 1e-12
    assert time.monotonic() - start < 10.0


def test_criterion_6_invariance_suite(rng):
    """tance / position / eps / validate_quadrangle invariant under 1000
    random isometries; reflections are projective involutions to 1e-12 that
    fix their mirror point; tance is |<x,y>|^2 / (<x,x><y,y>) to 1e-12.

    The certificates use the default tolerances, K3 sampling included;
    K1, K2 and K3 margins are compared at 1e-10 relative.
    """
    q, _ = _baseline_quadrangle()
    base_cert = validate_quadrangle(q)
    assert base_cert.passed
    ident = Isometry.identity()

    x, y = random_negative_point(rng), random_negative_point(rng)
    p, pp = random_positive_point(rng), random_positive_point(rng)
    c1 = ComplexGeodesic(polar_span(embed(0.0), F0))
    c2 = ComplexGeodesic(polar_span(embed(0.5), F0))
    ta_xy = tance(x, y)
    assert abs(abs(herm_form(x.v, y.v)) ** 2 / (x.self_form() * y.self_form()) - ta_xy) < 1e-12 * ta_xy
    eps0 = epsilon(*q.polars[:3])

    for k in range(1000):
        g = random_isometry(rng)
        assert abs(tance(g(x), g(y)) - ta_xy) < 1e-10 * max(1.0, ta_xy)
        assert position(
            ComplexGeodesic(g(c1.polar)), ComplexGeodesic(g(c2.polar))
        ) == ULTRAPARALLEL
        assert abs(epsilon(*(g(pl) for pl in q.polars[:3])) - eps0) < 1e-10
        mirror = (x, p, y, pp)[k % 4]
        r = reflection_about(mirror)
        assert r(mirror).is_parallel_to(mirror)
        gr = g @ r @ g.inverse()
        assert projective_distance(gr @ gr, ident) < 1e-12

        cert = validate_quadrangle(QuadrangleConfig(tuple(g(pl) for pl in q.polars)))
        assert cert.passed == base_cert.passed
        assert (cert.k1, cert.k2, cert.k3) == (True, True, True)
        for got, want in zip(cert.k1_margins, base_cert.k1_margins):
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))
        for name, want_m in base_cert.k2_margins.items():
            for got, want in zip(cert.k2_margins[name], want_m):
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))
        for got, want in zip(cert.k3_checks, base_cert.k3_checks):
            assert got.name == want.name
            assert abs(got.margin - want.margin) < 1e-10 * max(1.0, abs(want.margin))


def test_criterion_7_kaehler_machinery(rng):
    """Kaehler angle +/-1 on complex planes and 0 on Lagrangian planes at
    100 points each (to 1e-12); lagrangian_frame_check 100/100; Lagrangian
    meshes give tau = 0 +/- 1e-8 and e snapping to -chi."""
    for k in range(100):
        x = random_negative_point(rng)
        b1, b2 = _tangent_basis_of_units(_negative_units(normalized_negative(x)[None]))[0]
        u = b1 if k % 2 == 0 else b1 + 0.5 * b2
        val, cls = kaehler_angle(x, u, 1j * u)
        assert abs(val + 1.0) < 1e-12 and cls == "complex"
        val, cls = kaehler_angle(x, u, -1j * u)
        assert abs(val - 1.0) < 1e-12 and cls == "complex"

    passes = 0
    for _ in range(100):
        r = 0.8 * np.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * np.pi)
        x = real_plane_point(float(r * np.cos(phi)), float(r * np.sin(phi)))
        xh = normalized_negative(x)
        u1 = tangent_project(xh, rng.normal(size=3).astype(complex))
        u2 = tangent_project(xh, rng.normal(size=3).astype(complex))
        val, cls = kaehler_angle(x, u1, u2)
        assert abs(val) < 1e-12 and cls == "Lagrangian"
        if lagrangian_frame_check(x, u1, u2):
            passes += 1
    assert passes == 100

    mesh = octagon_mesh("lagrangian", refinement=3)
    tau = toledo_via_mesh(mesh)
    assert abs(tau) < 1e-8
    degrees = euler_via_mesh(mesh)
    chi = Fraction(-2)
    assert degrees.chi == chi
    report = invariant_report(chi, tau, degrees.euler_raw, mesh.snap_denominator())
    assert report.euler == -chi  # e(N) = -chi for Lagrangian sections


def test_criterion_8_solver_continuation():
    """turnover_solve: bend 0 matches the baseline traces to 1e-8; bend 0.02
    for (3,3,4) converges with g2-order residual < 1e-9 and a K1/K2-passing
    quadrangle, at the recorded twists (1, 0) and parameters."""
    start = time.monotonic()
    sig = TurnoverSignature(3, 3, 4)
    rep0, _ = turnover_solve(sig, 0.0)
    base, _ = fuchsian_turnover(sig)
    for name in ("g1", "g2", "g3"):
        assert abs(
            np.trace(rep0.generators[name].matrix)
            - np.trace(base.generators[name].matrix)
        ) < 1e-8

    rep, quad = turnover_solve(sig, 0.02)
    assert rep.metadata["g2_order_residual"] < 1e-9
    # the search is deterministic: these twists and parameters are the
    # first certifying solution of the default start sequence
    assert rep.metadata["polar_twists"] == (1, 0)
    assert rep.metadata["params"] == pytest.approx(
        [0.42711219423221974, 0.8518113806893682, 0.8588864593275108, -3.141592653589793],
        abs=1e-12,
    )
    residuals = rep.relation_residuals()
    # g2 := g3^-1 g1^-1 makes the product relation exact; g2 has honest
    # projective order 3; g1 and g3 carry the bending phase on their polar
    # eigenvalue, so their own power relations are bent open by design
    assert residuals["g2 g2 g2"] < 1e-9
    assert residuals["g3 g2 g1"] < 1e-12
    cert = quad.certificate
    assert cert.k1 and cert.k2  # K3 is reported, not required
    assert time.monotonic() - start < 120.0


def test_criterion_9_cli_determinism(tmp_path):
    """check-quadrangle and figure outputs are byte-identical across runs."""
    from chdisc.cli import main
    from chdisc.io import quadrangle_to_json_dict, write_json

    q, _ = _baseline_quadrangle()
    src = tmp_path / "quad.json"
    write_json(src, quadrangle_to_json_dict(q))
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["check-quadrangle", str(src), "--out", str(out_dir)]) == 0
        outs.append((out_dir / "quad.cert.json").read_bytes())
    assert outs[0] == outs[1]

    figs = []
    for name in ("fa.svg", "fb.svg"):
        out = tmp_path / name
        assert main(
            ["figure", "--n", "3", "3", "4", "--draw", "polygon", "quadrangle",
             "--out", str(out)]
        ) == 0
        figs.append(out.read_bytes())
    assert figs[0] == figs[1]
