"""Section-mesh constructors: the geodesic-fan lattice and its arguments."""

import importlib
import json
import platform
from dataclasses import replace

import numpy as np
import pytest

from chdisc import meshes, octagon_mesh, turnover_section_mesh
from chdisc.cli import _refinement_for
from chdisc.core import Isometry, _euclidean_units, _pair_tances, herm_rows
from chdisc.disc import _disc_automorphisms, _so21_stack, _su11_stack, triangle_vertices
from chdisc.geometry import _geodesic_rows, _negative_units, _phase_align
from chdisc.errors import MeshError
from chdisc.invariants import (
    SectionMesh,
    SidePairing,
    _FACE_BLOCK,
    _connection_totals,
    _first_corners,
    _taut_phases,
    build_frame_field,
    euler_via_mesh,
    snap_rational,
    toledo_via_mesh,
)
from chdisc.io import canonical_dumps
from chdisc.meshes import (
    _OCTAGON_PAIRS,
    _ORIGIN,
    _fan_lattice,
)
from chdisc.representations import TurnoverSignature

from artifacts import targets
from conftest import cpu_has, fresh_process_json, random_isometry
from oracles import (
    aligned_unit_pair,
    connection_total,
    connection_totals_one_pass,
    disc_automorphism_per_call,
    disc_isometry_per_call,
    disc_rotation_per_call,
    euclidean_point,
    fan_spokes_two_passes,
    first_corners_by_unique,
    frame_field_by_eigen_fit,
    herm_rows_by_sum,
    mesh_json,
    octagon_corners_per_angle,
    projective_distance,
    real_plane_isometry_per_pair,
    real_plane_lift_per_call,
    self_norms_by_blas,
    slerp_fan_vertices,
    so21_stack_by_arrays,
    su11_lift_per_call,
    weighted_point,
)
from test_core import _blas_sums_in_order
from test_invariants import _moved


def _scalar_fan_lattice(center, corners, n, closed, geometry=True):
    """One point at a time: the reference for ``_fan_lattice``.  Without
    ``geometry`` the points list holds the vertex numbers alone.

    Each point is (1 - t) x + t y in Python floats (``weighted_point``) on
    the ends x and y scaled to <,> = -1 and phase aligned
    (``aligned_unit_pair``): a spoke point on the centre and its corner, a
    row point on the two spoke points that end its row, taken before they
    are scaled for storing.  Every stored point then gets the
    ``np.linalg.norm`` scaling (``euclidean_point``)."""
    m = len(corners)
    points = [center]
    radial = []
    spokes = {}  # vertex number -> the unscaled spoke row the inner rows start from

    def spoke(v, t):
        if not geometry:
            return len(points)
        spokes[len(points)] = row = weighted_point(*aligned_unit_pair(center.v, v.v), t)
        return euclidean_point(row)

    def point(a, b, t):
        if not geometry:
            return len(points)
        return euclidean_point(weighted_point(*aligned_unit_pair(spokes[a], spokes[b]), t))

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
    """(centre, corners, closed) as the mesh constructors build them, one
    point at a time in complex scalars: the turnover's c2' = g1^-1 c2 as
    the Mobius image (alpha z2 + beta) / (conj(beta) z2 + conj(alpha)), and
    every point embedded as (1, z, 0) or (1, a, b) and scaled by its own
    ``np.linalg.norm``; the octagon's corners from libm, one angle at a
    time (``octagon_corners_per_angle``)."""
    if kind == "turnover":
        n1, n2, n3 = arg
        z1, z2, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
        a, b = disc_rotation_per_call(z1, 2.0 * np.pi / n1)
        z2m = (a * z2 + b) / (b.conjugate() * z2 + a.conjugate())
        return euclidean_point([1.0, z1, 0.0]), [euclidean_point([1.0, z, 0.0]) for z in (z2, z3, z2m)], False
    return euclidean_point(_ORIGIN), [euclidean_point(c) for c in octagon_corners_per_angle(arg)[1]], True


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
    # tobytes also tells the two zeros apart
    assert vertices.tobytes() == np.array([p.v for p in ref_points]).tobytes()
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


def _scaled_fan_vertices(center, corners, n, closed):
    """The lattice from arrays in complex arithmetic, (1 - t) x + t y with
    real t, each stored row scaled by its own ``np.linalg.norm``
    (``euclidean_point``).  A real factor is a complex one with a zero
    imaginary part, so fused or not each part is one rounded product."""
    m = len(corners)
    sectors = m if closed else m - 1
    xh = _negative_units(center.v)
    yh = _phase_align(xh, _negative_units(np.array([v.v for v in corners])))
    t = (np.arange(1, n + 1) / n)[:, None]
    spokes = (1.0 - t) * xh + t * yh[:, None]
    i, j = (np.tile(a + 1, sectors) for a in np.tril_indices(n, -1))
    sec = np.repeat(np.arange(sectors), n * (n - 1) // 2)
    a = _negative_units(spokes[sec, i - 1])
    b = _phase_align(a, _negative_units(spokes[(sec + 1) % m, i - 1]))
    t = (j / i)[:, None]
    rows = np.concatenate([spokes.reshape(-1, 3), (1.0 - t) * a + t * b])
    return np.array([center.v] + [euclidean_point(v).v for v in rows])


@pytest.mark.parametrize("kind, arg, n", FAN_CASES)
def test_mesh_vertices_have_the_bits_of_one_row_scaling(kind, arg, n):
    center, corners, closed = _fan_inputs(kind, arg)
    mesh = (turnover_section_mesh(*arg, refinement=n) if kind == "turnover"
            else octagon_mesh(arg, refinement=n))
    ref = _scaled_fan_vertices(center, corners, n, closed)
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


def _per_pair_isometries(kind, arg):
    """The side-pairing matrices, each from its own one-pair construction."""
    if kind == "turnover":
        n1, n2, n3 = arg
        z1, _, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
        return [su11_lift_per_call(*disc_rotation_per_call(z1, 2.0 * np.pi / n1)),
                su11_lift_per_call(*disc_rotation_per_call(z3, -2.0 * np.pi / n3))]
    zs = octagon_corners_per_angle("complex")[0]
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


# -- the stacked connection pass -----------------------------------------------------

def test_a_vertex_with_one_neighbour_raises():
    """A degenerate face (4, 0, 0) gives the added vertex 4 the one neighbour 0."""
    good = turnover_section_mesh(3, 3, 4, refinement=1)
    assert len(good.vertices) == 4
    mesh = SectionMesh(vertices=np.concatenate([good.vertices, good.vertices[:1]]),
                       triangles=np.concatenate([good.triangles, [[4, 0, 0]]]))
    for call in (build_frame_field, euler_via_mesh):
        with pytest.raises(MeshError, match="vertex 4 has fewer than two neighbours"):
            call(mesh)


def test_a_flat_first_corner_and_a_vertex_in_no_face_raise_by_name():
    """Inner vertex 10 of the (3,3,4) r3 mesh, in no side-pairing run, moved
    to the midpoint of the geodesic between vertices 1 and 2: its first
    face (1, 2, 10) is then flat at each corner, and it is also vertex 2's
    first face, so vertex 2, the first such vertex, is named.  A vertex 16
    added in no face has no corner, and no neighbour."""
    good = turnover_section_mesh(3, 3, 4, refinement=3)
    assert len(good.vertices) == 16
    corners = _first_corners(good.triangles, len(good.vertices))
    assert corners[10].tolist() == [1, 2] and corners[2].tolist() == [10, 1]
    vertices = good.vertices.copy()
    vertices[10] = _euclidean_units(_geodesic_rows(vertices[1], vertices[2], 0.5))
    flat = replace(good, vertices=vertices)
    unused = replace(good, vertices=np.concatenate([good.vertices, good.vertices[:1]]))
    for mesh, message in ((flat, "vertex 2 has a flat first corner"),
                          (unused, "vertex 16 has fewer than two neighbours")):
        for call in (build_frame_field, euler_via_mesh):
            with pytest.raises(MeshError, match=f"^{message}$"):
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
    its spokes are the points the two-pass scaling and the per-point linear
    combination give, on each mesh's own ends and on isometry-moved copies
    of them."""
    center, corners = _rows(*_fan_inputs(kind, arg)[:2])
    closed = kind == "octagon"
    m = len(corners)
    for g in [np.eye(3)] + [random_isometry(rng).matrix for _ in range(MOVES_PER_MESH)]:
        c, k = center @ g.T, corners @ g.T
        vertices = _fan_lattice(c, k, n, closed)[0]
        assert vertices[1:1 + m * n].tobytes() == fan_spokes_two_passes(c, k, n).tobytes()


@pytest.mark.parametrize("kind, arg, n", SHIPPED_MESHES)
def test_side_pairings_map_runs_onto_their_partners_on_moved_lattices(kind, arg, n, rng):
    """The lattice built on a mesh's centre and corners moved by g
    (``random_isometry``, radius 0.8), or unmoved, is carried into itself
    by the conjugated pairings g p g^-1: each run maps onto its partner
    within tance gap 1e-12, far below ``TOL.mesh`` (1e-8).  The worst gap
    measured is 5.5e-14, on the Lagrangian octagon r4."""
    center, corners = _rows(*_fan_inputs(kind, arg)[:2])
    pairings = _mesh(kind, arg, n).side_pairings
    for g in [np.eye(3)] + [random_isometry(rng).matrix for _ in range(MOVES_PER_MESH)]:
        vertices = _fan_lattice(center @ g.T, corners @ g.T, n, kind == "octagon")[0]
        for p in pairings:
            h = g @ p.isometry.matrix @ np.linalg.inv(g)
            assert abs(_pair_tances(vertices[p.run_a] @ h.T, vertices[p.run_b]) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("kind, arg, n", SHIPPED_MESHES)
def test_slerp_lattice_gives_the_same_snapped_invariants(monkeypatch, kind, arg, n):
    """The arclength lattice (``slerp_fan_vertices``, hyperbolic slerp) on
    the constructor's own centre and corners gives other vertices and the
    same snapped tau, chi and e as the linear weights; raw, they lie within
    1e-13 (measured: 1.3e-15)."""
    mesh = _mesh(kind, arg, n)
    linear = meshes._fan_lattice

    def slerp_lattice(center, corners, n, closed):
        _, faces, outer, radial = linear(center, corners, n, closed)
        return slerp_fan_vertices(center, corners, n, closed), faces, outer, radial

    monkeypatch.setattr(meshes, "_fan_lattice", slerp_lattice)
    slerp = _mesh(kind, arg, n)
    assert slerp.vertices.shape == mesh.vertices.shape
    assert not np.array_equal(slerp.vertices, mesh.vertices)
    got, want = _invariants(mesh), _invariants(slerp)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13
    assert _snapped(mesh, got) == _snapped(mesh, want)


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
    units = np.array([euclidean_point(c).v for c in corners])
    assert mesh.vertices.tobytes() == _fan_lattice(_ORIGIN, units, n, True)[0].tobytes()
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


def _largest_cross_pairing(a: np.ndarray, b: np.ndarray) -> float:
    """max |Re <a_i, b_j>| over the vectors of two (V, 2, 3) stacks of pairs,
    vertex by vertex."""
    return float(abs(herm_rows(a[:, :, None], b[:, None]).real).max())


def _degrees_of(mesh, frames):
    """(raw chi, raw e) of a mesh from a given frame field."""
    return _connection_totals(mesh.triangles, np.stack([frames.tangent, frames.normal]), _taut_phases(mesh))


def _snapped(mesh, values):
    return [snap_rational(x, mesh.snap_denominator()) for x in values]


@pytest.mark.parametrize("kind, arg, n", SHIPPED_MESHES)
def test_first_corners_match_the_corner_list_derivation(kind, arg, n):
    """On each mesh, and on its faces reordered with their columns rotated,
    so that each vertex's first corner moves."""
    mesh = _mesh(kind, arg, n)
    rng = np.random.default_rng(0)
    shuffled = np.roll(mesh.triangles[rng.permutation(len(mesh.triangles))], 1, axis=1)
    for tri in (mesh.triangles, shuffled):
        assert _first_corners(tri, len(mesh.vertices)).tolist() == first_corners_by_unique(tri)[:, 1:].tolist()


@pytest.mark.parametrize("kind, arg, n", SHIPPED_MESHES)
def test_frame_field_spans_the_planes_of_the_eigen_fit(kind, arg, n, rng):
    """On each shipped mesh, its isometry-moved copies and a copy with its
    faces reordered and their columns rotated (so that each vertex's first
    corner moves), the first-corner frames span the tangent and normal
    planes the eigen-fit over all neighbours finds: each tangent vector is
    g-orthogonal to the fit's normal pair and each normal vector to its
    tangent pair, to 1e-12.  Raw chi and e lie within 1e-13 of those of the
    fit's frames, and snap to the same rationals."""
    mesh = _mesh(kind, arg, n)
    shuffled = np.roll(mesh.triangles[rng.permutation(len(mesh.triangles))], 1, axis=1)
    copies = ([mesh, replace(mesh, triangles=shuffled)]
              + [_moved(mesh, random_isometry(rng)) for _ in range(MOVES_PER_MESH)])
    for copy in copies:
        ours, ref = build_frame_field(copy), frame_field_by_eigen_fit(copy)
        assert _largest_cross_pairing(ours.tangent, ref.normal) <= 1e-12
        assert _largest_cross_pairing(ours.normal, ref.tangent) <= 1e-12
        degrees, want = euler_via_mesh(copy), _degrees_of(copy, ref)
        got = (degrees.chi_raw, degrees.euler_raw)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13
        assert _snapped(copy, got) == _snapped(copy, want)


#: how far the off-geodesic test moves each inner vertex, in Euclidean norm:
#: 1e-3, but 2e-4 for (2,3,7), whose snap denominator 84 leaves e only
#: 7e-5 of room before -1/83 and chi 2.7e-4 before -1/43.  Moved by 1e-3 its
#: raw degrees move by up to 8e-4 under either frame field, and in 51 of
#: 100 seeded draws the two give different snapped values.
_OFF_GEODESIC = {(2, 3, 7): 2e-4}


@pytest.mark.parametrize("kind, arg, n", BIT_CASES[:5])
def test_frame_field_degrees_match_the_eigen_fit_off_the_geodesic(kind, arg, n, rng):
    """The benchmark meshes with every vertex outside the side-pairing runs
    moved in a random direction of C^3 (``_OFF_GEODESIC``), off the totally
    geodesic section: the first corner and the fit over all neighbours now
    give other planes (by more than 1e-6) and other raw degrees, and the
    same snapped chi and e, which are the unmoved mesh's."""
    mesh = _mesh(kind, arg, n)
    runs = np.concatenate([r for p in mesh.side_pairings for r in (p.run_a, p.run_b)])
    inner = np.setdiff1d(np.arange(len(mesh.vertices)), runs)
    step = rng.normal(size=(len(inner), 3)) + 1j * rng.normal(size=(len(inner), 3))
    step *= _OFF_GEODESIC.get(arg, 1e-3) / np.sqrt((abs(step) ** 2).sum(axis=1, keepdims=True))
    vertices = mesh.vertices.copy()
    vertices[inner] += step
    bent = replace(mesh, vertices=vertices)
    ours, ref = build_frame_field(bent), frame_field_by_eigen_fit(bent)
    assert _largest_cross_pairing(ours.tangent, ref.normal) > 1e-6
    degrees, want = euler_via_mesh(bent), _degrees_of(bent, ref)
    got = (degrees.chi_raw, degrees.euler_raw)
    flat = euler_via_mesh(mesh)
    assert min(abs(got[0] - want[0]), abs(got[0] - flat.chi_raw)) > 1e-9
    assert _snapped(bent, got) == _snapped(bent, want) == _snapped(mesh, (flat.chi_raw, flat.euler_raw))


@pytest.mark.parametrize("kind, arg, n", SHIPPED_MESHES)
def test_meshes_and_their_degrees_call_no_lapack_and_no_einsum(monkeypatch, kind, arg, n):
    """Each shipped mesh is built, and its tau and degrees formed, with
    every function of ``np.linalg`` and ``np.einsum`` made to raise: no
    LAPACK call forms a vertex, pairing or degree."""
    def refuse(*args, **kwargs):
        raise AssertionError("the mesh path called np.linalg or einsum")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    mesh = _mesh(kind, arg, n)
    assert euler_via_mesh(mesh).chi is not None
    toledo_via_mesh(mesh)


# -- mesh vertices across BLAS kernels -----------------------------------------------

#: the benchmark's five meshes, the bend-0 scan's four turnovers at their
#: ``--mesh 0.05`` refinements and the fine (3,4,4) r24
KERNEL_MESHES = BIT_CASES + [("turnover", (3, 4, 4), 24)]

_KERNEL_BYTES = """
import hashlib, json, sys
from chdisc import euler_via_mesh, octagon_mesh, toledo_via_mesh, turnover_section_mesh

def digests(mesh):
    degrees = euler_via_mesh(mesh)
    pairings = b"".join(p.isometry.matrix.tobytes() for p in mesh.side_pairings)
    return [hashlib.sha256(mesh.vertices.tobytes()).hexdigest(), hashlib.sha256(pairings).hexdigest(),
            toledo_via_mesh(mesh).hex(), degrees.chi_raw.hex(), degrees.euler_raw.hex(),
            hashlib.sha256(mesh.triangles.tobytes()).hexdigest()]

print(json.dumps([digests(turnover_section_mesh(*arg, refinement=n) if kind == "turnover"
                          else octagon_mesh(arg, refinement=n))
                  for kind, arg, n in json.loads(sys.argv[1])]))
"""


def _kernel_digests(**extra) -> list:
    """The digests of ``_KERNEL_BYTES`` for every ``KERNEL_MESHES`` entry,
    from a new process with neither OPENBLAS_CORETYPE nor
    NPY_DISABLE_CPU_FEATURES set, but for ``extra``."""
    cases = json.dumps([[kind, arg, int(n)] for kind, arg, n in KERNEL_MESHES])
    digests = fresh_process_json(_KERNEL_BYTES, cases, **extra)
    assert len(digests) == len(KERNEL_MESHES)
    return digests


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_mesh_vertices_pairings_and_raw_invariants_do_not_depend_on_the_blas_kernel():
    """Every section-mesh vertex, side-pairing matrix and frame comes from
    elementwise numpy, so the vertices, faces and pairings have the same
    bytes, and raw tau, chi and e the same doubles, under the default
    OpenBLAS kernel and under Prescott (SSE3), and Haswell (AVX2) where the
    CPU has it."""
    default = _kernel_digests()
    for kernel in ["Prescott"] + (["Haswell"] if cpu_has("AVX2") else []):
        assert _kernel_digests(OPENBLAS_CORETYPE=kernel) == default, kernel


@pytest.mark.skipif(not cpu_has("AVX512F"), reason="the CPU has no AVX-512 to turn off")
def test_mesh_vertices_faces_and_raw_tau_do_not_depend_on_avx512():
    """The kernel test's other half, across numpy's dispatch targets: with
    every AVX-512 target off (``tests/artifacts.py targets X86_V4``), the
    vertices, faces and side pairings have the same bytes and raw tau the
    same double.
    The lattice weights its rows part by part, and its constants
    (``triangle_vertices``, the octagon's corners, the pairings' SU(1,1)
    coefficients) come from libm scalars, so no vectorised ``tanh``, ``exp``
    or fused product moves a bit.  Raw chi and e are not compared: the
    connection pass's ``arctan2`` follows the target."""
    off = " ".join(targets(["X86_V4"]))
    pick = [0, 5, 1, 2]  # vertices, faces, pairings, raw tau
    default = [[d[k] for k in pick] for d in _kernel_digests()]
    assert [[d[k] for k in pick] for d in _kernel_digests(NPY_DISABLE_CPU_FEATURES=off)] == default
