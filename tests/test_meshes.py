"""Section-mesh constructors: the geodesic-fan lattice and its arguments."""

import importlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chdisc import ProjectivePoint, octagon_mesh, turnover_section_mesh
from chdisc.cli import _refinement_for
from chdisc.core import Isometry, _unit_reps
from chdisc.disc import (
    _disc_automorphisms,
    _disc_rotations,
    _so21_stack,
    _su11_stack,
    embed,
    triangle_vertices,
)
from chdisc.geometry import _geodesic_rows
from chdisc.errors import MeshError
from chdisc.invariants import (
    SectionMesh,
    SidePairing,
    _FACE_BLOCK,
    _connection_totals,
    _mesh_edges,
    _taut_phases,
    build_frame_field,
    euler_via_mesh,
    toledo_via_mesh,
)
from chdisc.io import canonical_dumps
from chdisc.meshes import (
    _OCTAGON_PAIRS,
    _ORIGIN,
    _fan_lattice,
    _octagon_circumradius,
    real_plane_point,
)
from chdisc.representations import TurnoverSignature

from conftest import random_isometry, scalar_slerp
from oracles import (
    connection_total,
    connection_totals_one_pass,
    disc_automorphism_per_call,
    disc_isometry_per_call,
    disc_rotation_per_call,
    fan_spokes_two_passes,
    frame_field_by_lapack,
    herm_rows_by_sum,
    mesh_edges_by_unique,
    mesh_json,
    octagon_corners_per_angle,
    projective_distance,
    real_plane_isometry_per_pair,
    real_plane_lift_per_call,
    self_norms_by_blas,
    so21_stack_by_arrays,
)
from test_core import _blas_sums_in_order
from test_invariants import _moved


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


@pytest.mark.parametrize("refinement", [0, -1, 2.0, 2.5, True])
def test_mesh_constructors_reject_bad_refinement(refinement):
    """Floats and bools are refused up front, not as an IndexError (2.0) or
    a MeshError about side pairing runs (True) further on."""
    with pytest.raises(ValueError, match="refinement must be a positive integer"):
        turnover_section_mesh(3, 3, 4, refinement=refinement)
    with pytest.raises(ValueError, match="refinement must be a positive integer"):
        octagon_mesh("complex", refinement)


def test_mesh_constructors_take_a_numpy_integer_refinement():
    mesh = turnover_section_mesh(3, 3, 4, refinement=np.int64(3))
    assert mesh_json(mesh) == mesh_json(turnover_section_mesh(3, 3, 4, refinement=3))


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


# -- the frame field's edges and the stacked connection pass -------------------------

@pytest.mark.parametrize("kind, arg, n", BIT_CASES)
def test_mesh_edges_match_the_corner_list_derivation(kind, arg, n):
    """On each mesh, and on its faces reordered with their columns rotated,
    so that each vertex's first corner moves."""
    mesh = _mesh(kind, arg, n)
    rng = np.random.default_rng(0)
    shuffled = np.roll(mesh.triangles[rng.permutation(len(mesh.triangles))], 1, axis=1)
    for tri in (mesh.triangles, shuffled):
        ours, reference = _mesh_edges(tri, len(mesh.vertices)), mesh_edges_by_unique(tri, len(mesh.vertices))
        for got, want in zip(ours, reference):
            np.testing.assert_array_equal(got, want)


def test_a_vertex_with_one_neighbour_raises():
    """A degenerate face (4, 0, 0) gives the added vertex 4 the one neighbour 0."""
    good = turnover_section_mesh(3, 3, 4, refinement=1)
    assert len(good.vertices) == 4
    mesh = SectionMesh(vertices=np.concatenate([good.vertices, good.vertices[:1]]),
                       triangles=np.concatenate([good.triangles, [[4, 0, 0]]]))
    for call in (build_frame_field, euler_via_mesh):
        with pytest.raises(MeshError, match="vertex 4 has fewer than two neighbours"):
            call(mesh)


@pytest.mark.parametrize("kind, arg, n", BIT_CASES)
def test_stacked_connection_pass_has_the_bits_of_one_pass_per_bundle(kind, arg, n):
    mesh = _mesh(kind, arg, n)
    frames = build_frame_field(mesh)
    taut = _taut_phases(mesh)
    stacked = _connection_totals(mesh.triangles, np.stack([frames.tangent, frames.normal]), taut)
    expected = [connection_total(mesh.triangles, f, taut) for f in (frames.tangent, frames.normal)]
    assert [x.hex() for x in stacked] == [x.hex() for x in expected]


@pytest.mark.parametrize("kind, arg, n", [("turnover", (3, 4, 4), r) for r in (8, 9, 12, 14, 24)]
                         + [("octagon", kind, 8) for kind in ("complex", "lagrangian")])
def test_blocked_connection_pass_has_the_bits_of_one_pass(kind, arg, n):
    """The connection pass forms its holonomies a block of faces at a time;
    r8 and r9 are one block, the rest several."""
    mesh = _mesh(kind, arg, n)
    assert (len(mesh.triangles) > _FACE_BLOCK) == (kind == "octagon" or n >= 12)
    frames = build_frame_field(mesh)
    stacked, taut = np.stack([frames.tangent, frames.normal]), _taut_phases(mesh)
    got = _connection_totals(mesh.triangles, stacked, taut)
    want = connection_totals_one_pass(mesh.triangles, stacked, taut)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# -- the replaced steps of the builders and the frame field, against their oracles ----

#: every mesh a shipped path builds: the benchmark's five and the bend-0
#: scan's four turnovers (``BIT_CASES``), CI's fine (3,4,4) r24, the demo's
#: (3,3,4) r4 (its octagons are the benchmark's) and both octagons at r8
SHIPPED_MESHES = BIT_CASES + [("turnover", (3, 4, 4), 24), ("turnover", (3, 3, 4), 4),
                              ("octagon", "complex", 8), ("octagon", "lagrangian", 8)]
#: isometry-moved copies per shipped mesh: 8 each, 104 in all
MOVES_PER_MESH = 8


@pytest.mark.parametrize("kind, arg, n", SHIPPED_MESHES)
def test_fan_spokes_have_the_bits_of_the_two_pass_scaling(kind, arg, n, rng):
    """The lattice scales its centre and corners to <,> = -1 in one pass;
    its spokes are the rows ``_geodesic_rows`` gave, which scaled them in
    two, on each mesh's own ends and on isometry-moved copies of them."""
    center, corners = _rows(*_fan_inputs(kind, arg)[:2])
    closed = kind == "octagon"
    m = len(corners)
    for g in [np.eye(3)] + [random_isometry(rng).matrix for _ in range(MOVES_PER_MESH)]:
        c, k = center @ g.T, corners @ g.T
        vertices = _fan_lattice(c, k, n, closed)[0]
        assert vertices[1:1 + m * n].tobytes() == _unit_reps(fan_spokes_two_passes(c, k, n)).tobytes()


@pytest.mark.parametrize("kind", ["complex", "lagrangian"])
@pytest.mark.parametrize("n", [4, 8])
def test_octagon_mesh_has_the_bits_of_its_per_angle_corners(kind, n):
    """Vertices and side pairings of ``octagon_mesh``, whose corners come
    from arrays of angles, equal those built from the per-angle loop's
    corners, with the Lagrangian pairings lifted by the array lift."""
    zs, corners = octagon_corners_per_angle(kind)
    k, kp = np.array(_OCTAGON_PAIRS).T
    alpha, beta = _disc_automorphisms(zs[k], zs[(k + 1) % 8], zs[(kp + 1) % 8], zs[kp])
    pairs = _su11_stack(alpha, beta) if kind == "complex" else so21_stack_by_arrays(alpha, beta)
    mesh = octagon_mesh(kind, refinement=n)
    assert mesh.vertices.tobytes() == _fan_lattice(_ORIGIN, _unit_reps(corners), n, True)[0].tobytes()
    assert [p.isometry.matrix.tobytes() for p in mesh.side_pairings] == [g.tobytes() for g in pairs]


def test_so21_stack_has_the_bits_of_the_array_lift(rng):
    """The per-pair Python-float lift equals the length-k array lift on 100
    random SU(1,1) coefficient pairs, as a stack and one pair at a time."""
    t, phi, psi = rng.uniform(0.0, 3.0, 100), *rng.uniform(-np.pi, np.pi, (2, 100))
    alpha, beta = np.cosh(t) * np.exp(1j * phi), np.sinh(t) * np.exp(1j * psi)
    stack = _so21_stack(alpha, beta)
    assert stack.tobytes() == so21_stack_by_arrays(alpha, beta).tobytes()
    assert stack.tobytes() == np.concatenate(
        [_so21_stack(alpha[i:i + 1], beta[i:i + 1]) for i in range(100)]).tobytes()


@pytest.mark.parametrize("kind, arg, n", SHIPPED_MESHES)
def test_frame_field_and_degrees_have_the_bits_of_the_lapack_signs(kind, arg, n, rng):
    """The closed-form orientation signs flip the frames LAPACK's
    determinants flipped, on each shipped mesh and on isometry-moved
    copies; so the raw and snapped chi and e are the same doubles."""
    mesh = _mesh(kind, arg, n)
    for moved in [mesh] + [_moved(mesh, random_isometry(rng)) for _ in range(MOVES_PER_MESH)]:
        ours, ref = build_frame_field(moved), frame_field_by_lapack(moved)
        assert ours.tangent.tobytes() == ref.tangent.tobytes()
        assert ours.normal.tobytes() == ref.normal.tobytes()
    degrees, ref = euler_via_mesh(mesh), frame_field_by_lapack(mesh)
    chi, e = _connection_totals(mesh.triangles, np.stack([ref.tangent, ref.normal]), _taut_phases(mesh))
    assert (degrees.chi_raw.hex(), degrees.euler_raw.hex()) == (chi.hex(), e.hex())
    den = mesh.snap_denominator()
    assert (degrees.chi, degrees.euler) == (Fraction(chi).limit_denominator(den),
                                            Fraction(e).limit_denominator(den))
