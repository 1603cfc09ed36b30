"""Section-mesh constructors: the geodesic-fan lattice and its arguments."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from chdisc import ProjectivePoint, octagon_mesh, turnover_section_mesh
from chdisc.cli import _refinement_for
from chdisc.core import Isometry
from chdisc.disc import _disc_rotations, embed, triangle_vertices
from chdisc.geometry import _geodesic_rows
from chdisc.invariants import SidePairing, euler_via_mesh, toledo_via_mesh
from chdisc.io import canonical_dumps
from chdisc.meshes import (
    _OCTAGON_PAIRS,
    _fan_lattice,
    _octagon_circumradius,
    real_plane_point,
)
from chdisc.representations import TurnoverSignature

from conftest import scalar_slerp
from oracles import (
    disc_automorphism_per_call,
    disc_isometry_per_call,
    disc_rotation_per_call,
    herm_rows_by_sum,
    mesh_json,
    projective_distance,
    real_plane_isometry_per_pair,
    real_plane_lift_per_call,
    self_norms_by_blas,
)
from test_core import _blas_sums_in_order


def _scalar_fan_lattice(center, corners, n, closed, geometry=True):
    """One point at a time: the reference for ``_fan_lattice``.  Without
    ``geometry`` the points list holds the vertex numbers alone.

    Each point is reduced as the lattice reduces it: a spoke point is
    scaled by ``np.linalg.norm`` along its axis and the rows between spokes
    start from those scaled spokes; every stored point then gets the
    ``ProjectivePoint`` scaling."""
    m = len(corners)
    points = [center]
    radial = []
    spokes = {}  # vertex number -> the scaled spoke row the inner rows start from

    def spoke(v, t):
        if not geometry:
            return len(points)
        row = scalar_slerp(center.v, v.v, t)
        spokes[len(points)] = row = row / np.linalg.norm(row, axis=-1)
        return ProjectivePoint(row)

    def point(a, b, t):
        return ProjectivePoint(scalar_slerp(spokes[a], spokes[b], t)) if geometry else len(points)

    for v in corners:
        chain = [0]
        for i in range(1, n + 1):
            chain.append(len(points))
            points.append(spoke(v, i / n))
        radial.append(chain)

    sectors = m if closed else m - 1
    faces = []
    outer = []
    for k in range(sectors):
        ka, kb = k, (k + 1) % m
        rows = [[0]]
        for i in range(1, n + 1):
            row = [radial[ka][i]]
            a, b = radial[ka][i], radial[kb][i]
            for j in range(1, i):
                row.append(len(points))
                points.append(point(a, b, j / i))
            row.append(radial[kb][i])
            rows.append(row)
        for i in range(1, n + 1):
            for j in range(i):
                faces.append((rows[i - 1][j], rows[i][j], rows[i][j + 1]))
                if j < i - 1:
                    faces.append((rows[i - 1][j], rows[i][j + 1], rows[i - 1][j + 1]))
        outer.append(rows[n])
    return points, faces, outer, radial


def _rows(center, corners):
    """The (3,) centre and (m, 3) corner stack ``_fan_lattice`` takes."""
    return center.v, np.array([p.v for p in corners])


def _fan_inputs(kind, arg):
    """(centre, corners, closed) as the mesh constructors build them."""
    if kind == "turnover":
        n1, n2, n3 = arg
        z1, z2, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
        c2m = Isometry(_disc_rotations([z1], [2.0 * np.pi / n1])[0])(embed(z2))
        return embed(z1), [embed(z2), embed(z3), c2m], False
    r1 = _octagon_circumradius()
    angles = [2.0 * np.pi * k / 8.0 + np.pi / 8.0 for k in range(8)]
    if arg == "complex":
        s = np.tanh(r1 / 2.0)
        return embed(0.0), [embed(s * np.exp(1j * a)) for a in angles], True
    s = np.tanh(r1)
    return (real_plane_point(0.0, 0.0),
            [real_plane_point(s * np.cos(a), s * np.sin(a)) for a in angles], True)


FAN_CASES = [
    ("turnover", (3, 3, 4), 1),
    ("turnover", (3, 3, 4), 8),
    ("octagon", "complex", 4),
    ("octagon", "lagrangian", 4),
]


@pytest.mark.parametrize("kind, arg, n", FAN_CASES)
def test_fan_lattice_matches_scalar_loop(kind, arg, n):
    center, corners, closed = _fan_inputs(kind, arg)
    vertices, faces, outer, radial = _fan_lattice(*_rows(center, corners), n, closed)
    ref_points, ref_faces, ref_outer, ref_radial = _scalar_fan_lattice(center, corners, n, closed)
    assert faces.dtype.kind == outer.dtype.kind == radial.dtype.kind == "i"
    assert (faces.tolist(), outer.tolist(), radial.tolist()) == (
        [list(f) for f in ref_faces], ref_outer, ref_radial)
    np.testing.assert_allclose(vertices, np.array([p.v for p in ref_points]), rtol=0, atol=1e-15)
    # the inputs above are the constructor's own
    mesh = (turnover_section_mesh(*arg, refinement=n) if kind == "turnover"
            else octagon_mesh(arg, refinement=n))
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, faces)


@pytest.mark.parametrize("kind, arg", [("turnover", (3, 3, 4)), ("octagon", "complex")])
@pytest.mark.parametrize("n", range(1, 25))
def test_fan_lattice_topology_matches_the_scalar_loop_at_every_refinement(kind, arg, n):
    """faces, outer and radial equal the loop's vertex numbers for open
    (m = 3) and closed (m = 8) polygons at every refinement the CLI uses."""
    center, corners, closed = _fan_inputs(kind, arg)
    _, faces, outer, radial = _fan_lattice(*_rows(center, corners), n, closed)
    _, ref_faces, ref_outer, ref_radial = _scalar_fan_lattice(center, corners, n, closed,
                                                              geometry=False)
    assert len(corners) == (3 if kind == "turnover" else 8)
    assert faces.dtype.kind == outer.dtype.kind == radial.dtype.kind == "i"
    assert faces.shape == (len(ref_faces), 3)
    assert (faces == np.array(ref_faces)).all()
    assert (outer == np.array(ref_outer)).all()
    assert (radial == np.array(ref_radial)).all()


def _wrapped_fan_vertices(center, corners, n, closed):
    """The lattice rows wrapped one at a time in ``ProjectivePoint``, as the
    mesh stored them when it held one point object per vertex."""
    m = len(corners)
    sectors = m if closed else m - 1
    spokes = _geodesic_rows(center.v, np.array([v.v for v in corners])[:, None],
                            np.arange(1, n + 1) / n)
    spokes = spokes / np.linalg.norm(spokes, axis=-1, keepdims=True)
    i, j = (np.tile(a + 1, sectors) for a in np.tril_indices(n, -1))
    sec = np.repeat(np.arange(sectors), n * (n - 1) // 2)
    inner = _geodesic_rows(spokes[sec, i - 1], spokes[(sec + 1) % m, i - 1], j / i)
    rows = np.concatenate([spokes.reshape(-1, 3), inner])
    return np.array([center.v] + [ProjectivePoint(v).v for v in rows])


@pytest.mark.parametrize("kind, arg, n", FAN_CASES)
def test_mesh_vertices_have_projective_point_bits(kind, arg, n):
    center, corners, closed = _fan_inputs(kind, arg)
    mesh = (turnover_section_mesh(*arg, refinement=n) if kind == "turnover"
            else octagon_mesh(arg, refinement=n))
    ref = _wrapped_fan_vertices(center, corners, n, closed)
    # tobytes also tells the two zeros apart
    assert mesh.vertices.shape == ref.shape
    assert mesh.vertices.tobytes() == ref.tobytes()


@pytest.mark.parametrize("refinement", [0, -1])
def test_mesh_constructors_reject_bad_refinement(refinement):
    with pytest.raises(ValueError, match="refinement must be a positive integer"):
        turnover_section_mesh(3, 3, 4, refinement=refinement)
    with pytest.raises(ValueError, match="refinement must be a positive integer"):
        octagon_mesh("complex", refinement)


# -- side pairings and invariants against the one-pair paths -----------------------

#: the invariants benchmark's meshes, then the scan's four turnovers at the
#: refinement ``chdisc scan`` gives them
BIT_CASES = [
    ("turnover", (3, 3, 4), 8),
    ("turnover", (3, 3, 5), 8),
    ("turnover", (2, 3, 7), 8),
    ("octagon", "complex", 4),
    ("octagon", "lagrangian", 4),
] + [("turnover", sig, _refinement_for(TurnoverSignature(*sig), 0.05))
     for sig in [(3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7)]]


def _mesh(kind, arg, n):
    return (turnover_section_mesh(*arg, refinement=n) if kind == "turnover"
            else octagon_mesh(arg, refinement=n))


def _octagon_disc_corners():
    """The octagon's corners in the curvature -4 disc, one complex scalar each."""
    r1 = _octagon_circumradius()
    return [np.tanh(r1 / 2.0) * np.exp(1j * (2.0 * np.pi * k / 8.0 + np.pi / 8.0)) for k in range(8)]


def _per_pair_isometries(kind, arg):
    """The side-pairing matrices, each from its own one-pair construction."""
    if kind == "turnover":
        n1, n2, n3 = arg
        z1, _, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
        return [disc_rotation_per_call(z1, 2.0 * np.pi / n1),
                disc_rotation_per_call(z3, -2.0 * np.pi / n3)]
    zs = _octagon_disc_corners()
    ends = [(zs[k], zs[(k + 1) % 8], zs[(kp + 1) % 8], zs[kp]) for k, kp in _OCTAGON_PAIRS]
    if arg == "complex":
        return [disc_isometry_per_call(*z) for z in ends]
    return [real_plane_lift_per_call(*disc_automorphism_per_call(*z)) for z in ends]


@pytest.mark.parametrize("kind, arg, n", BIT_CASES)
def test_side_pairings_and_mesh_json_have_the_bits_of_the_per_pair_constructors(kind, arg, n):
    mesh = _mesh(kind, arg, n)
    expected = _per_pair_isometries(kind, arg)
    assert [p.isometry.matrix.tobytes() for p in mesh.side_pairings] == [m.tobytes() for m in expected]
    per_pair = replace(mesh, side_pairings=[
        SidePairing(run_a=p.run_a, run_b=p.run_b, isometry=Isometry(m))
        for p, m in zip(mesh.side_pairings, expected)])
    assert canonical_dumps(mesh_json(mesh)) == canonical_dumps(mesh_json(per_pair))


def _invariants(mesh):
    degrees = euler_via_mesh(mesh)
    return toledo_via_mesh(mesh), degrees.chi_raw, degrees.euler_raw


@pytest.mark.parametrize("kind, arg, n", BIT_CASES)
def test_raw_invariants_have_the_bits_of_the_reduction_kernels(monkeypatch, kind, arg, n):
    """tau, chi and e, raw, are the same doubles when every module pairs rows
    through the length-3 sum and the BLAS product that the signed sums
    replaced (to rounding where BLAS sums in another order)."""
    mesh = _mesh(kind, arg, n)
    ours = _invariants(mesh)
    for name in ("core", "geometry", "invariants", "meshes", "quadrangle"):
        module = importlib.import_module(f"chdisc.{name}")
        for attr, oracle in (("herm_rows", herm_rows_by_sum), ("self_norms", self_norms_by_blas)):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, oracle)
    reference = _invariants(replace(mesh))
    if _blas_sums_in_order():
        assert ours == reference
    else:
        np.testing.assert_allclose(ours, reference, rtol=0, atol=1e-12)


def test_lagrangian_pairings_are_the_frame_maps_of_the_corner_pairs():
    """The lifted side pairings of the Lagrangian octagon carry each side's
    corners onto the paired side's, as the independent frame construction
    does: equal up to a cube root of unity, to 1e-12 absolute (entries are
    at most ~10, and the two constructions agree to ~3e-13)."""
    _, corners, _ = _fan_inputs("octagon", "lagrangian")
    for (k, kp), p in zip(_OCTAGON_PAIRS, octagon_mesh("lagrangian", 2).side_pairings):
        frame_map = real_plane_isometry_per_pair(corners[k], corners[(k + 1) % 8],
                                                 corners[(kp + 1) % 8], corners[kp])
        assert projective_distance(p.isometry, Isometry(frame_map)) < 1e-12

