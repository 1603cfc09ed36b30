"""Kaehler angles, symplectic integrals, discrete bundle degrees, identities."""

import itertools
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chdisc import (
    ClassError,
    Isometry,
    ConvergenceError,
    DegenerateError,
    Tolerances,
    InvariantReport,
    MeshError,
    ProjectivePoint,
    SectionMesh,
    SidePairing,
    build_frame_field,
    euler_via_mesh,
    gkl_euler,
    invariant_report,
    kaehler_angle,
    kalashnikov_residual,
    lagrangian_frame_check,
    octagon_mesh,
    snap_rational,
    toledo_via_coning,
    toledo_via_mesh,
    turnover_section_mesh,
)
from chdisc.core import _tangent_basis_of_units, herm_rows
from chdisc.disc import F0, embed
from chdisc.geometry import _negative_units
from chdisc import invariants as invariants_module
from chdisc.invariants import (
    COMPLEX_CLASS,
    GENERIC_CLASS,
    LAGRANGIAN_CLASS,
    _rotation_angle,
    _vertex_scatter,
    normalized_negative,
    orientation_sign,
    symplectic_area_triangle,
    tangent_project,
)
from chdisc.meshes import real_plane_point
from chdisc.tolerances import TOL
from chdisc.representations import TurnoverSignature, fuchsian_turnover, orbifold_euler
from chdisc.representations import elliptic_fixed_point

from conftest import random_isometry, random_negative_point
from oracles import mesh_json, orientation_determinants, symplectic_area_quadrature


# -- Kaehler angle and Lagrangian frames --------------------------------------

def test_kaehler_angle_complex_plane(rng):
    x = random_negative_point(rng)
    b1, _ = _tangent_basis_of_units(_negative_units(normalized_negative(x)[None]))[0]
    val, cls = kaehler_angle(x, b1, 1j * b1)
    assert val == pytest.approx(-1.0, abs=1e-12)
    assert cls == COMPLEX_CLASS
    val2, cls2 = kaehler_angle(x, b1, -1j * b1)
    assert val2 == pytest.approx(1.0, abs=1e-12)
    assert cls2 == COMPLEX_CLASS


def test_kaehler_angle_lagrangian_and_generic():
    x = real_plane_point(0.2, -0.1)
    u1 = tangent_project(normalized_negative(x), np.array([0.0, 1.0, 0.0]))
    u2 = tangent_project(normalized_negative(x), np.array([0.0, 0.0, 1.0]))
    val, cls = kaehler_angle(x, u1, u2)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert cls == LAGRANGIAN_CLASS
    # a tilted plane between the two extremes
    val3, cls3 = kaehler_angle(x, u1, u2 + 0.7j * u1)
    assert cls3 == GENERIC_CLASS
    assert 0.0 < abs(val3) < 1.0


def test_kaehler_angle_isometry_invariance(rng):
    x = real_plane_point(0.2, -0.1)
    xh = normalized_negative(x)
    u1 = tangent_project(xh, np.array([0.0, 1.0, 0.0]))
    u2 = tangent_project(xh, np.array([0.3, 0.0, 1.0 + 0.4j]))
    val, _ = kaehler_angle(x, u1, u2)
    g = random_isometry(rng)
    val_g, _ = kaehler_angle(g(x), g.matrix @ u1, g.matrix @ u2)
    # the pushed-forward pair sits at the image point after reprojection
    assert val_g == pytest.approx(val, abs=1e-9)


def test_lagrangian_frame_check():
    x = real_plane_point(0.1, 0.25)
    xh = normalized_negative(x)
    u1 = tangent_project(xh, np.array([0.0, 1.0, 0.0]))
    u2 = tangent_project(xh, np.array([0.0, 0.0, 1.0]))
    # lemma assignment v = (i u2, i u1): positively oriented either way
    # around, because swapping the tangent pair swaps the normals too
    assert lagrangian_frame_check(x, u1, u2)
    assert lagrangian_frame_check(x, u2, u1)
    # holding the normal frame fixed while swapping the tangent pair flips
    # the orientation
    from chdisc.invariants import _gram_schmidt

    e1, e2 = _gram_schmidt([u1, u2], xh)
    assert lagrangian_frame_check(x, u1, u2, normal_pair=(1j * e2, 1j * e1))
    assert not lagrangian_frame_check(x, u2, u1, normal_pair=(1j * e2, 1j * e1))
    with pytest.raises(ClassError):
        lagrangian_frame_check(x, u1, 1j * u1)  # complex, not Lagrangian


def _basis_orientation_sign(xh, frames):
    """Sign of det of the frames' real coordinates in ``_tangent_basis_of_units``."""
    basis = _tangent_basis_of_units(_negative_units(xh))
    a = np.einsum("nfd,nkd->nfk", frames * np.array([-1.0, 1.0, 1.0]), basis.conj())
    return np.where(np.linalg.det(np.stack([a.real, a.imag], -1).reshape(-1, 4, 4)) > 0, 1, -1)


def test_orientation_sign_matches_the_tangent_basis_coordinates(rng):
    points = [random_negative_point(rng) for _ in range(60)]
    points += [embed(0.0), embed(0.4 - 0.2j), real_plane_point(0.3, -0.1)]
    xh = np.array([normalized_negative(p) for p in points])
    w = rng.normal(size=(len(xh), 4, 3)) + 1j * rng.normal(size=(len(xh), 4, 3))
    frames = w + herm_rows(w, xh[:, None])[..., None] * xh[:, None]  # into x^perp
    signs = orientation_sign(xh, frames)
    assert set(signs) == {-1, 1}
    assert np.array_equal(signs, _basis_orientation_sign(xh, frames))
    assert orientation_sign(xh[0], frames[0]) == signs[0]
    frames[0, 3] = frames[0, 0]
    with pytest.raises(DegenerateError, match="degenerate 4-frame"):
        orientation_sign(xh[:1], frames[:1])


def test_gram_pfaffians_have_the_sign_and_size_of_the_orientation_determinant(rng):
    """The Pfaffian of Im <f_a, f_b> that orientation_sign and
    FrameField.validate read is the determinant of the frame's real
    coordinates in a unitary tangent basis: it has the sign and, to
    rounding, the value of the 6x6 real determinant of (x, ix, f1..f4) for
    any tangent 4-frame, and orientation_sign projects any other frame into
    x^perp first, where that determinant does not change, from any
    representative of x."""
    points = [random_negative_point(rng) for _ in range(60)]
    points += [embed(0.0), embed(0.4 - 0.2j), real_plane_point(0.3, -0.1)]
    xh = np.array([normalized_negative(p) for p in points])
    w = rng.normal(size=(len(xh), 4, 3)) + 1j * rng.normal(size=(len(xh), 4, 3))
    frames = w + herm_rows(w, xh[:, None])[..., None] * xh[:, None]  # into x^perp
    pf = invariants_module._gram_pfaffians(herm_rows(frames[:, :, None], frames[:, None]))
    det6 = orientation_determinants(xh, frames)
    assert np.array_equal(np.sign(pf), np.sign(det6))
    np.testing.assert_allclose(pf, det6, rtol=1e-9)
    assert np.array_equal(orientation_sign(xh, frames), np.where(det6 > 0, 1, -1))
    assert np.array_equal(orientation_sign(xh, w), np.where(orientation_determinants(xh, w) > 0, 1, -1))
    assert np.array_equal(orientation_sign((0.5 - 2.0j) * xh, w), orientation_sign(xh, w))
    basis = _tangent_basis_of_units(_negative_units(xh))
    a = np.einsum("nfd,nkd->nfk", frames * np.array([-1.0, 1.0, 1.0]), basis.conj())
    det = np.linalg.det(np.stack([a.real, a.imag], -1).reshape(-1, 4, 4))
    np.testing.assert_allclose(pf, det, rtol=1e-9)


def test_closed_form_orientation_signs_match_lapack_determinants(rng):
    """The frame field reads its two orientation signs in closed form; they
    are LAPACK's on 10^4 random orthogonal 4x4 coordinate frames (each
    column pair a complex coordinate) and on 10^4 2x2 matrices with
    |det| >= 1e-8, half of them near singular."""
    q = np.linalg.qr(rng.normal(size=(10_000, 4, 4)))[0]
    q[rng.random(10_000) < 0.5, 0] *= -1.0  # QR's factors share one determinant
    pf, det = invariants_module._coordinate_pfaffians(q), np.linalg.det(q)
    assert np.array_equal(pf < 0, det < 0)
    assert 4_000 < np.count_nonzero(det < 0) < 6_000
    np.testing.assert_allclose(pf, det, rtol=0, atol=1e-14)
    m = rng.normal(size=(20_000, 2, 2))
    # the second row of half of them is a multiple of the first plus a
    # perturbation of size 10^-9 to 10^-3
    near, t, eps = m[:10_000], rng.normal(size=(10_000, 1)), 10.0 ** rng.uniform(-9, -3, (10_000, 1))
    near[:, 1] = t * near[:, 0] + eps * near[:, 1]
    det = np.linalg.det(m)
    keep = abs(det) >= 1e-8
    m, det = m[keep][:10_000], det[keep][:10_000]
    assert len(m) == 10_000 and np.count_nonzero(abs(det) < 1e-4) > 1_000
    assert np.array_equal(invariants_module._det2(m) < 0, det < 0)


# -- symplectic integrals ------------------------------------------------------

def test_symplectic_area_closed_form_vs_quadrature(rng):
    for _ in range(8):
        x1, x2, x3 = (random_negative_point(rng) for _ in range(3))
        q = symplectic_area_quadrature(x1, x2, x3, order=24)
        c = symplectic_area_triangle(x1, x2, x3)
        assert q == pytest.approx(c, abs=1e-10)


def test_symplectic_area_antisymmetry_and_invariance(rng):
    x1, x2, x3 = (random_negative_point(rng) for _ in range(3))
    c = symplectic_area_triangle(x1, x2, x3)
    assert symplectic_area_triangle(x1, x3, x2) == pytest.approx(-c, abs=1e-12)
    g = random_isometry(rng)
    assert symplectic_area_triangle(g(x1), g(x2), g(x3)) == pytest.approx(
        c, abs=1e-10
    )


def test_symplectic_area_additive_under_subdivision(rng):
    from chdisc.geometry import geodesic_interp

    x1, x2, x3 = (random_negative_point(rng) for _ in range(3))
    m = geodesic_interp(x2, x3, 0.4)
    total = symplectic_area_triangle(x1, x2, x3)
    parts = symplectic_area_triangle(x1, x2, m) + symplectic_area_triangle(
        x1, m, x3
    )
    assert parts == pytest.approx(total, abs=1e-10)


def test_symplectic_area_complex_geodesic_triangle():
    # inside a complex geodesic traversed counterclockwise the integral of
    # omega is minus the area, and eps-area gives the closed form exactly
    from chdisc.disc import triangle_vertices
    from oracles import triangle_area_gauss_bonnet

    z1, z2, z3 = triangle_vertices(np.pi / 3, np.pi / 4, np.pi / 5)
    area = triangle_area_gauss_bonnet(z1, z2, z3)
    got = symplectic_area_triangle(embed(z1), embed(z2), embed(z3))
    assert got == pytest.approx(-area, abs=1e-12)


def test_symplectic_area_lagrangian_triangle_vanishes():
    pts = [real_plane_point(0.0, 0.0), real_plane_point(0.5, 0.1), real_plane_point(-0.2, 0.4)]
    assert symplectic_area_triangle(*pts) == 0.0
    assert symplectic_area_quadrature(*pts, order=8) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("orders", [(3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7)],
                         ids=["3-3-4", "3-3-5", "3-4-4", "2-3-7"])
def test_toledo_via_coning_matches_quadrature_oracle(orders):
    sig = TurnoverSignature(*orders)
    rep, _ = fuchsian_turnover(sig)
    fixed = {name: elliptic_fixed_point(g) for name, g in rep.generators.items()}
    x1, x2, x3 = (fixed[n] for n in ("g1", "g2", "g3"))
    x2m = rep.generators["g1"].inverse()(x2)
    oracle = 2.0 / np.pi * (symplectic_area_quadrature(x1, x2, x3, order=24)
                            + symplectic_area_quadrature(x1, x3, x2m, order=24))
    tau = toledo_via_coning(rep, fixed)
    assert tau == pytest.approx(oracle, abs=1e-12)
    assert tau == pytest.approx(float(orbifold_euler(sig)), abs=1e-12)


def test_toledo_via_coning_checks_fixed_points():
    sig = TurnoverSignature(3, 3, 4)
    rep, _ = fuchsian_turnover(sig)
    fixed = {name: elliptic_fixed_point(g) for name, g in rep.generators.items()}
    tau = toledo_via_coning(rep, fixed)
    assert tau == pytest.approx(-1.0 / 12.0, abs=1e-10)
    bad = dict(fixed, g1=embed(0.3 + 0.3j))
    with pytest.raises(ConvergenceError):
        toledo_via_coning(rep, bad)


# -- meshes and discrete degrees ----------------------------------------------

def test_turnover_mesh_structure():
    mesh = turnover_section_mesh(3, 3, 4, refinement=3)
    assert not hasattr(mesh, "validate")  # checked once, on construction
    assert mesh.cone_orders() == [3, 3, 4]
    assert mesh.snap_denominator() == 24
    assert len(mesh.side_pairings) == 2


def test_mesh_validate_rejects_broken_pairing():
    mesh = turnover_section_mesh(3, 3, 4, refinement=2)
    first, second = mesh.side_pairings
    with pytest.raises(FrozenInstanceError):
        first.run_b = list(reversed(first.run_b))
    broken = replace(first, run_b=list(reversed(first.run_b)))
    with pytest.raises(MeshError, match="pairing maps vertex"):
        replace(mesh, side_pairings=[broken, second])


def test_section_mesh_check_rejects_a_non_finite_pairing_matrix():
    """A NaN gap fails the pairing check rather than passing it."""
    mesh = turnover_section_mesh(3, 3, 4, refinement=4)
    first, *rest = mesh.side_pairings
    matrix = first.isometry.matrix.copy()
    matrix[1, 2] = np.nan
    with pytest.raises(MeshError, match="pairing maps vertex .* to tance gap nan from"):
        replace(mesh, side_pairings=[replace(first, isometry=Isometry(matrix)), *rest])


@pytest.mark.parametrize("scale", [1.0, 1e100])
def test_section_mesh_check_sees_a_moved_paired_vertex_at_any_scale(scale):
    """One vertex of a paired run moved by distance 0.3 breaks its pairing,
    whatever the scale of the representatives (|<x,y>|^2 overflows at
    1e100, the canonical representatives do not)."""
    mesh = turnover_section_mesh(3, 3, 4, refinement=4)
    k = mesh.side_pairings[0].run_a[1]
    u = mesh.units[k]
    vertices = mesh.vertices.copy()
    vertices[k] = np.cosh(0.3) * u + np.sinh(0.3) * _tangent_basis_of_units(u[None])[0, 0]
    # the unmoved mesh passes at this scale
    SectionMesh(vertices=mesh.vertices * scale, triangles=mesh.triangles,
                side_pairings=mesh.side_pairings, cone_points=mesh.cone_points)
    with pytest.raises(MeshError, match="pairing maps vertex"):
        replace(mesh, vertices=vertices * scale)


def test_mesh_validate_rejects_non_negative_vertex():
    mesh = turnover_section_mesh(3, 3, 4, refinement=2)
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices[0] = F0.v
    vertices = mesh.vertices.copy()
    vertices[0] = F0.v
    with pytest.raises(MeshError, match="embedded vertex 0 is not a negative point"):
        replace(mesh, vertices=vertices)


# each breakage checks that the in-place edit it stands for is refused, and
# returns the fields of the broken mesh


def _face_index_off_by_v(mesh):
    with pytest.raises(ValueError, match="read-only"):
        mesh.triangles[5, 1] = -1
    triangles = mesh.triangles.copy()
    triangles[5, 1] = -1  # would wrap to the last vertex without an index check
    return {"triangles": triangles}


def _runs_shifted_by_v(mesh):
    v = len(mesh.vertices)
    for p in mesh.side_pairings:
        with pytest.raises(FrozenInstanceError):
            p.run_a, p.run_b = p.run_a - v, p.run_b - v
    return {"side_pairings": [replace(p, run_a=p.run_a - v, run_b=p.run_b - v)
                              for p in mesh.side_pairings]}


def _float_faces(mesh):
    with pytest.raises(FrozenInstanceError):
        mesh.triangles = mesh.triangles.astype(float)
    return {"triangles": mesh.triangles.astype(float)}


def _flat_faces(mesh):
    with pytest.raises(FrozenInstanceError):
        mesh.triangles = mesh.triangles.reshape(-1)
    return {"triangles": mesh.triangles.reshape(-1)}


@pytest.mark.parametrize("breakage, message", [
    (_face_index_off_by_v, r"triangles index a vertex outside \[0, 16\)"),
    (_runs_shifted_by_v, r"side pairing runs index a vertex outside \[0, 16\)"),
    (_float_faces, r"triangles must be an \(F,3\) integer array"),
    (_flat_faces, r"triangles must be an \(F,3\) integer array"),
])
def test_mesh_validate_rejects_bad_indices(breakage, message):
    mesh = turnover_section_mesh(3, 3, 4, refinement=3)
    fields = breakage(mesh)
    with pytest.raises(MeshError, match=message):
        replace(mesh, **fields)
    # the refused edits left the mesh as built
    assert toledo_via_mesh(mesh) == pytest.approx(-1.0 / 12.0, abs=1e-10)
    assert euler_via_mesh(mesh).chi == Fraction(-1, 12)


@pytest.mark.parametrize("mesh", [
    turnover_section_mesh(3, 3, 4, refinement=3),
    octagon_mesh("complex", refinement=2),
    octagon_mesh("lagrangian", refinement=2),
], ids=["turnover", "octagon_complex", "octagon_lagrangian"])
def test_section_mesh_is_read_only(mesh):
    arrays = [mesh.vertices, mesh.triangles] + [
        a for p in mesh.side_pairings for a in (p.run_a, p.run_b, p.isometry.matrix)
    ]
    assert len(arrays) == 2 + 3 * len(mesh.side_pairings)
    assert not any(a.flags.writeable for a in arrays)
    assert isinstance(mesh.side_pairings, tuple) and isinstance(mesh.cone_points, tuple)
    with pytest.raises(FrozenInstanceError):
        mesh.vertices = mesh.vertices.copy()
    with pytest.raises(FrozenInstanceError):
        mesh.side_pairings = ()
    with pytest.raises(FrozenInstanceError):
        mesh.side_pairings[0].isometry = Isometry.identity()


def test_section_mesh_copies_its_inputs():
    built = turnover_section_mesh(3, 3, 4, refinement=3)
    vertices, triangles = built.vertices.copy(), built.triangles.copy()
    inputs = [(p.run_a.copy(), p.run_b.copy(), p.isometry.matrix.copy())
              for p in built.side_pairings]
    pairings = [SidePairing(a, b, Isometry(m)) for a, b, m in inputs]
    cones = list(built.cone_points)
    mesh = SectionMesh(vertices, triangles, pairings, cones)
    doc = mesh_json(mesh)
    assert doc == mesh_json(built)
    for array in [vertices, triangles, *(a for row in inputs for a in row)]:
        array[...] = 0
    pairings.pop()
    cones.clear()
    assert mesh_json(mesh) == doc


def test_mesh_check_runs_once_on_construction(monkeypatch):
    calls = []
    check = SectionMesh._check

    def counting(mesh):
        calls.append(mesh)
        check(mesh)

    monkeypatch.setattr(SectionMesh, "_check", counting)
    for build, arg in ((turnover_section_mesh, (3, 3, 4)), (octagon_mesh, ("lagrangian",))):
        mesh = build(*arg, refinement=2)
        assert len(calls) == 1 and calls[0] is mesh
        toledo_via_mesh(mesh)
        euler_via_mesh(mesh)
        assert len(calls) == 1
        calls.clear()


@pytest.mark.parametrize("kind, arg, refinement, tau_exact", [
    ("turnover", (3, 3, 4), 3, -1.0 / 12.0),
    ("octagon", "complex", 2, -2.0),
    ("octagon", "lagrangian", 2, 0.0),
], ids=["turnover_3-3-4_r3", "octagon_complex_r2", "octagon_lagrangian_r2"])
def test_toledo_via_mesh_matches_quadrature_oracle(kind, arg, refinement, tau_exact):
    if kind == "turnover":
        mesh = turnover_section_mesh(*arg, refinement=refinement)
    else:
        mesh = octagon_mesh(arg, refinement=refinement)
    tau_mesh = toledo_via_mesh(mesh)
    # the turnover mesh covers the same fundamental quadrilateral as the coned polygon
    assert tau_mesh == pytest.approx(tau_exact, abs=1e-8)
    oracle = sum(
        symplectic_area_quadrature(*(ProjectivePoint(mesh.vertices[i]) for i in tri), order=12)
        for tri in mesh.triangles
    )
    assert tau_mesh == pytest.approx(2.0 / np.pi * oracle, abs=1e-12)


def test_euler_via_mesh_turnover_baseline():
    mesh = turnover_section_mesh(3, 3, 4, refinement=3)
    degrees = euler_via_mesh(mesh)
    assert degrees.chi == Fraction(-1, 12)
    assert degrees.euler == Fraction(-1, 24)
    # discrete holonomy totals are exact to rounding, not just snappable
    assert degrees.chi_raw == pytest.approx(-1.0 / 12.0, abs=1e-10)
    assert degrees.euler_raw == pytest.approx(-1.0 / 24.0, abs=1e-10)


def test_euler_via_mesh_complex_octagon():
    mesh = octagon_mesh("complex", refinement=3)
    assert mesh.snap_denominator() == 2
    degrees = euler_via_mesh(mesh)
    assert degrees.chi == Fraction(-2)
    assert degrees.euler == Fraction(-1)  # holomorphic section: e = chi/2


def test_euler_via_mesh_lagrangian_octagon():
    mesh = octagon_mesh("lagrangian", refinement=3)
    degrees = euler_via_mesh(mesh)
    assert degrees.chi == Fraction(-2)
    assert degrees.euler == Fraction(2)  # Lagrangian section: e = -chi
    tau = toledo_via_mesh(mesh)
    assert tau == pytest.approx(0.0, abs=1e-10)
    assert not np.signbit(tau)  # prints as +0.0


# the five meshes of the invariants benchmark, with their exact (chi, e)
BENCH_MESHES = [
    ("turnover", (3, 3, 4), 8, Fraction(-1, 12), Fraction(-1, 24)),
    ("turnover", (3, 3, 5), 8, Fraction(-2, 15), Fraction(-1, 15)),
    ("turnover", (2, 3, 7), 8, Fraction(-1, 42), Fraction(-1, 84)),
    ("octagon", "complex", 4, Fraction(-2), Fraction(-1)),
    ("octagon", "lagrangian", 4, Fraction(-2), Fraction(2)),
]


def _bench_mesh(kind, arg, refinement):
    if kind == "turnover":
        return turnover_section_mesh(*arg, refinement=refinement)
    return octagon_mesh(arg, refinement=refinement)


def _moved(mesh, g):
    """The mesh carried by the isometry g, with side pairings conjugated by g."""
    g_inv = g.inverse()
    return SectionMesh(
        vertices=mesh.vertices @ g.matrix.T,
        triangles=mesh.triangles,
        side_pairings=[
            SidePairing(p.run_a, p.run_b, Isometry.from_matrix(
                g.matrix @ p.isometry.matrix @ g_inv.matrix))
            for p in mesh.side_pairings
        ],
        cone_points=mesh.cone_points,
    )


def _rescaled(mesh, rng):
    """The mesh with each vertex representative multiplied by its own random
    complex scalar, of modulus 10^u with u uniform in [-60, 60] and a
    uniform phase: the same points, pairings and faces."""
    v = len(mesh.vertices)
    scalars = 10.0 ** rng.uniform(-60.0, 60.0, (v, 1)) * np.exp(2j * np.pi * rng.random((v, 1)))
    return SectionMesh(vertices=mesh.vertices * scalars, triangles=mesh.triangles,
                       side_pairings=mesh.side_pairings, cone_points=mesh.cone_points)


@pytest.mark.parametrize("kind, arg, refinement, chi, e", [
    *(pytest.param(*m, id=f"{m[0]}_{m[1]}") for m in BENCH_MESHES),
    # the demos' turnover mesh; their octagons are the benchmark's
    pytest.param("turnover", (3, 3, 4), 4, Fraction(-1, 12), Fraction(-1, 24),
                 id="turnover_(3, 3, 4)_r4"),
])
def test_euler_via_mesh_raw_degrees_exact_and_coordinate_free(kind, arg, refinement, chi, e,
                                                              rng):
    """Exact to rounding, and τ, χ and e the same under an isometry and
    under a change of the vertex representatives and their scales, unmoved
    and moved."""
    mesh = _bench_mesh(kind, arg, refinement)
    degrees = euler_via_mesh(mesh)
    tau = toledo_via_mesh(mesh)
    den = mesh.snap_denominator()
    assert abs(degrees.chi_raw - float(chi)) < 1e-12
    assert abs(degrees.euler_raw - float(e)) < 1e-12
    moved = _moved(mesh, random_isometry(rng))
    for other in (moved, _rescaled(mesh, rng), _rescaled(moved, rng)):
        d = euler_via_mesh(other)
        t = toledo_via_mesh(other)
        assert (d.chi, d.euler) == (degrees.chi, degrees.euler)
        assert snap_rational(t, den) == snap_rational(tau, den)
        assert abs(d.chi_raw - degrees.chi_raw) < 1e-12
        assert abs(d.euler_raw - degrees.euler_raw) < 1e-12
        assert abs(t - tau) < 1e-12


def test_frame_field_validate_rejects_bad_frames():
    mesh = turnover_section_mesh(3, 3, 4, refinement=2)
    ff = build_frame_field(mesh)
    ff.validate(mesh)
    assert ff.tangent.shape == ff.normal.shape == (len(mesh.vertices), 2, 3)
    # the thresholds follow tol.orthogonality: rounding noise fails at 1e-16
    with pytest.raises(MeshError, match="is not g-orthonormal|is not tangent"):
        ff.validate(mesh, Tolerances(orthogonality=1e-16))
    k = 5
    u1, u2 = ff.tangent[k]
    xh = normalized_negative(ProjectivePoint(mesh.vertices[k]))
    a = 0.1
    breaks = [
        ("tangent", 0, 1.1 * u1, "is not g-orthonormal"),
        # g-orthonormal to the rest of the frame, but not in x^perp
        ("tangent", 0, (u1 + a * xh) / np.sqrt(1.0 - a * a), "is not tangent"),
        ("normal", 1, -ff.normal[k, 1], "has negative orientation"),
    ]
    for name, slot, vector, what in breaks:
        broken = build_frame_field(mesh)
        getattr(broken, name)[k, slot] = vector
        with pytest.raises(MeshError, match=f"frame at vertex {k} {what}"):
            broken.validate(mesh)


_CORRUPTED_MESHES = {
    "turnover": lambda: turnover_section_mesh(3, 3, 4, refinement=4),
    "complex": lambda: octagon_mesh("complex", refinement=3),
    "lagrangian": lambda: octagon_mesh("lagrangian", refinement=3),
}


def _corrupt_frames(ff, xh, k, how):
    if how == "flipped v2":
        ff.normal[k, 1] *= -1.0
    elif how == "flipped u2":
        ff.tangent[k, 1] *= -1.0
    elif how == "stretched":
        ff.normal[k, 0] *= 1.0 + 1e-6
    elif how == "skewed":
        ff.tangent[k, 1] += 1e-6 * ff.tangent[k, 0]
    else:  # off-tangent by 1e-6, still g-orthonormal to 1e-12
        ff.normal[k, 0] += 1e-6 * xh[k]


@pytest.mark.parametrize("kind", sorted(_CORRUPTED_MESHES))
@pytest.mark.parametrize("how, what", [
    ("flipped v2", "has negative orientation"),
    ("flipped u2", "has negative orientation"),
    ("stretched", "is not g-orthonormal"),
    ("skewed", "is not g-orthonormal"),
    ("off-tangent", "is not tangent"),
])
def test_frame_field_validate_names_the_first_corrupted_vertex(kind, how, what):
    """Frames corrupted at vertices 7 and 3 fail at vertex 3, the first,
    and the message names the check that failed there."""
    mesh = _CORRUPTED_MESHES[kind]()
    ff = build_frame_field(mesh)
    ff.validate(mesh)
    xh = np.array([normalized_negative(ProjectivePoint(v)) for v in mesh.vertices])
    for k in (7, 3):
        _corrupt_frames(ff, xh, k, how)
    with pytest.raises(MeshError) as info:
        ff.validate(mesh)
    assert str(info.value) == f"frame at vertex 3 {what}"


def test_frame_field_validate_keeps_the_degenerate_frame_verdict():
    """A frame with u2 = u1 is not g-orthonormal at the default tolerances;
    at an orthogonality bound loose enough to pass it, its vanishing
    orientation determinant raises DegenerateError."""
    mesh = _CORRUPTED_MESHES["turnover"]()
    ff = build_frame_field(mesh)
    ff.tangent[3, 1] = ff.tangent[3, 0]
    with pytest.raises(MeshError, match="^frame at vertex 3 is not g-orthonormal$"):
        ff.validate(mesh)
    with pytest.raises(DegenerateError, match="^degenerate 4-frame$"):
        ff.validate(mesh, Tolerances(orthogonality=10.0))


@pytest.mark.parametrize("kind, pairing_error", [
    ("turnover", "pairing maps vertex 8 to tance gap 0.196923 from 12"),
    ("complex", "pairing maps vertex 18 to tance gap 4.82843 from 24"),
    ("lagrangian", "pairing maps vertex 18 to tance gap 112.569 from 24"),
])
def test_section_mesh_check_names_a_missed_run_and_the_first_bad_vertex(kind, pairing_error):
    """A last pairing whose run_b is rolled by one misses its run, and the
    message names the first vertex it misses and by how much; positive
    vertices at 9 and 5 fail at 5, and a null vertex at 4 fails."""
    mesh = _CORRUPTED_MESHES[kind]()
    last = mesh.side_pairings[-1]
    with pytest.raises(MeshError) as info:
        replace(mesh, side_pairings=[*mesh.side_pairings[:-1],
                                     replace(last, run_b=np.roll(last.run_b, 1))])
    assert str(info.value) == pairing_error
    for rows, point in (([9, 5], F0.v), ([4], [1.0, 1.0, 0.0])):
        vertices = mesh.vertices.copy()
        vertices[rows] = point
        with pytest.raises(MeshError) as info:
            replace(mesh, vertices=vertices)
        assert str(info.value) == f"embedded vertex {min(rows)} is not a negative point"


def _svd_rotation(m):
    """The special-orthogonal polar factor of m by SVD, det-fixed (the oracle)."""
    u, _, vt = np.linalg.svd(m)
    if np.linalg.det(u @ vt) < 0:
        u = u.copy()
        u[:, -1] *= -1.0
    return u @ vt


_entry = st.floats(-10.0, 10.0, allow_nan=False)
_general = st.lists(_entry, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2)))
_near_rank_one = st.tuples(
    st.lists(_entry, min_size=2, max_size=2),
    st.lists(_entry, min_size=2, max_size=2),
    st.lists(st.floats(-1e-8, 1e-8), min_size=4, max_size=4),
).map(lambda t: np.outer(t[0], t[1]) + np.reshape(t[2], (2, 2)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_general, _near_rank_one), st.sampled_from([1.0, -1.0]))
def test_rotation_angle_matches_svd_polar_factor(m, column_sign):
    m = m * np.array([1.0, column_sign])  # a column flip covers det < 0
    norm = np.linalg.norm(m)
    assume(norm > 1e-6)
    # the maximiser of tr(R^T m) is unique unless sigma1 - sigma2 = 0 with det < 0
    assume(np.hypot(m[0, 0] + m[1, 1], m[1, 0] - m[0, 1]) > 1e-3 * norm)
    t = _rotation_angle(m)
    r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    assert np.max(abs(r - _svd_rotation(m))) < 1e-12


def test_octagon_mesh_rejects_unknown_kind():
    with pytest.raises(ValueError):
        octagon_mesh("totally-real-ish")


# -- snapping, reports, identities --------------------------------------------

def test_snap_rational():
    assert snap_rational(-0.08333333333, 24) == Fraction(-1, 12)
    assert snap_rational(0.5000000001, 2) == Fraction(1, 2)
    with pytest.raises(ConvergenceError):
        snap_rational(0.123456, 24)


def _snap_denominators():
    """Every denominator limit a section mesh snaps to: 2 for the octagons,
    2 lcm(n1, n2, n3) for every hyperbolic turnover with n_i <= 12."""
    dens = {octagon_mesh("complex", 1).snap_denominator()}
    for orders in itertools.product(range(2, 13), repeat=3):
        if sum(Fraction(1, n) for n in orders) < 1:
            dens.add(turnover_section_mesh(*orders, refinement=1).snap_denominator())
    return sorted(dens)


def test_snap_rational_is_fraction_limit_denominator(rng):
    """The integer path is ``Fraction(x).limit_denominator(den)`` and its
    snap verdict, for every denominator limit the meshes use, on random
    floats, on rationals moved by 10^-17 to 10^-3, and on the midpoints
    between neighbouring fractions, where the closing choice ties."""
    dens = _snap_denominators()
    assert {2, 24, 30, 84} <= set(dens) and len(dens) > 50
    loose = Tolerances(snap=math.inf)
    for den in dens:
        q = rng.integers(1, den + 1, 100)
        p = rng.integers(-4 * q, 4 * q + 1)
        xs = [*rng.uniform(-4.0, 4.0, 100),
              *(p / q + rng.choice([-1.0, 1.0], 100) * 10.0 ** rng.uniform(-17, -3, 100)),
              *((p + 0.5) / q), *(p / q)]
        for x in map(float, xs):
            want = Fraction(x).limit_denominator(den)
            got = snap_rational(x, den, loose)
            assert type(got) is Fraction and got.as_integer_ratio() == want.as_integer_ratio()
            if abs(float(want) - x) > TOL.snap:
                with pytest.raises(ConvergenceError):
                    snap_rational(x, den)
            else:
                assert snap_rational(x, den) == want
    with pytest.raises(ValueError):
        snap_rational(0.5, 0)


def test_invariant_report_clean():
    report = invariant_report(Fraction(-1, 12), -1.0 / 12.0 + 1e-9, -1.0 / 24.0 - 1e-9, 24)
    assert report.reliable
    assert report.toledo == Fraction(-1, 12)
    assert report.euler == Fraction(-1, 24)
    assert report.residual(signed=True) == 0
    assert report.residual(signed=False) == 0
    doc = report.to_json_dict()
    assert doc["kind"] == "invariants"
    assert doc["chi"] == "-1/12"
    assert doc["toledo"]["snapped"] == "-1/12"
    assert doc["euler"]["snapped"] == "-1/24"
    assert doc["orientation_convention"] == "fiberwise-counterclockwise"
    assert doc["residual_signed"] == 0.0


def test_invariant_report_snap_failure_is_flagged():
    report = invariant_report(Fraction(-1, 12), -0.123, -0.456, 24)
    assert not report.reliable
    assert report.toledo is None and report.euler is None
    # raw values are still reported
    assert report.to_json_dict()["toledo"]["raw"] == -0.123


def test_invariant_report_rigidity_violation_is_flagged():
    # |tau| > |chi| violates Toledo rigidity
    report = invariant_report(Fraction(-1, 12), -0.5, -0.25, 24)
    assert not report.reliable


def test_invariant_report_without_euler_data():
    report = InvariantReport(chi=Fraction(-1, 12), toledo_raw=-0.0833, euler_raw=None,
                             reliable=False)
    assert report.residual() is None
    doc = report.to_json_dict()
    assert doc["euler"]["raw"] is None
    assert doc["residual_signed"] is None


def test_kalashnikov_residual_arithmetic():
    report = InvariantReport(
        chi=Fraction(-2), toledo_raw=-2.0, euler_raw=-1.0,
        toledo=Fraction(-2), euler=Fraction(-1),
    )
    # 3(-2) - 2(-1) - 2(-2) = 0
    assert kalashnikov_residual(report, signed=True) == 0
    # -3|t| - 2e - 2chi = -6 + 2 + 4 = 0
    assert kalashnikov_residual(report, signed=False) == 0


def test_kalashnikov_residual_of_rationals_is_the_fraction_arithmetic(rng):
    """Three snapped rationals are combined over one common denominator;
    the result is the Fraction that the arithmetic on them gives, with the
    same numerator and denominator."""
    for _ in range(2_000):
        chi, tau, e = (Fraction(int(a), int(b)) for a, b in
                       zip(rng.integers(-60, 61, 3), rng.integers(1, 169, 3)))
        report = InvariantReport(chi=chi, toledo_raw=float(tau), euler_raw=float(e),
                                 toledo=tau, euler=e)
        for signed, want in ((True, abs(3 * tau - 2 * e - 2 * chi)),
                             (False, abs(-3 * abs(tau) - 2 * e - 2 * chi))):
            got = kalashnikov_residual(report, signed=signed)
            assert type(got) is Fraction and got.as_integer_ratio() == want.as_integer_ratio()


def test_gkl_euler_values_and_errors():
    # explicit small cases: e = 2g - 2 - 3|tau|/2
    assert gkl_euler(2, 0) == (2, 0, -2, 1)
    assert gkl_euler(2, 2) == (-1, -2, 0, 0)
    for genus in (2, 3, 10):
        for tau_abs in range(0, 2 * genus - 1, 2):
            e, chi1, chi2, t = gkl_euler(genus, tau_abs)
            assert -3 * tau_abs == 2 * e + 2 * (2 - 2 * genus)
            assert chi1 + chi2 == 2 - 2 * genus  # split along a circle
    with pytest.raises(ValueError):
        gkl_euler(1, 0)
    with pytest.raises(ValueError):
        gkl_euler(3, 3)  # odd
    with pytest.raises(ValueError):
        gkl_euler(3, 6)  # beyond rigidity


# -- work shared across an invariants item ------------------------------------------

def test_face_triples_are_computed_once_for_tau_and_the_bundle_degrees(monkeypatch):
    mesh = turnover_section_mesh(3, 3, 4, refinement=4)
    calls = []
    original = invariants_module._triple_products
    monkeypatch.setattr(invariants_module, "_triple_products",
                        lambda *args: calls.append(1) or original(*args))
    tau = toledo_via_mesh(mesh)
    degrees = euler_via_mesh(mesh)
    assert len(calls) == 1
    triples = mesh.face_triples
    assert triples is mesh.face_triples and not triples.flags.writeable
    assert triples.tobytes() == original(mesh.units, mesh.triangles).tobytes()
    # neither the cache nor the canonical representatives is a dataclass
    # field, and both are read-only
    assert {"face_triples", "units"}.isdisjoint(f.name for f in fields(mesh))
    assert not mesh.units.flags.writeable
    fresh = turnover_section_mesh(3, 3, 4, refinement=4)
    assert (toledo_via_mesh(fresh), euler_via_mesh(fresh)) == (tau, degrees)


def test_vertex_scatter_has_the_bits_of_add_at(rng):
    """Each vertex adds its edges' r r^T left to right from zero, as
    ``np.add.at`` does, signed zeros included."""
    degree = rng.integers(2, 9, size=60)
    degree[0] = degree.max()
    r = rng.normal(size=(degree.sum(), 4)) * np.exp(4.0 * rng.normal(size=(degree.sum(), 4)))
    r[rng.random(r.shape) < 0.2] = -0.0
    r[rng.random(r.shape) < 0.1] = 0.0
    # vertex 0 has no padding, and its entry (0, 1) sums only -0.0 products
    r[:degree[0], 0], r[:degree[0], 1] = -0.0, np.abs(r[:degree[0], 1]) + 1.0
    expected = np.zeros((len(degree), 4, 4))
    np.add.at(expected, np.repeat(np.arange(len(degree)), degree), r[:, :, None] * r[:, None, :])
    assert _vertex_scatter(r, degree).tobytes() == expected.tobytes()
