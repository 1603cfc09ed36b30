"""Section-mesh constructors: the geodesic-fan lattice and its arguments."""

import numpy as np
import pytest

from chdisc import ProjectivePoint, octagon_mesh, turnover_section_mesh
from chdisc.disc import disc_rotation, embed, triangle_vertices
from chdisc.geometry import _geodesic_rows
from chdisc.meshes import _fan_lattice, _octagon_circumradius, real_plane_point

from conftest import scalar_geodesic_interp


def _scalar_fan_lattice(center, corners, n, closed):
    """One point at a time: the reference for ``_fan_lattice``."""
    m = len(corners)
    points = [center]
    radial = []
    for v in corners:
        chain = [0]
        for i in range(1, n + 1):
            chain.append(len(points))
            points.append(scalar_geodesic_interp(center, v, i / n))
        radial.append(chain)

    sectors = m if closed else m - 1
    faces = []
    outer = []
    for k in range(sectors):
        ka, kb = k, (k + 1) % m
        rows = [[0]]
        for i in range(1, n + 1):
            row = [radial[ka][i]]
            a, b = points[radial[ka][i]], points[radial[kb][i]]
            for j in range(1, i):
                row.append(len(points))
                points.append(scalar_geodesic_interp(a, b, j / i))
            row.append(radial[kb][i])
            rows.append(row)
        for i in range(1, n + 1):
            for j in range(i):
                faces.append((rows[i - 1][j], rows[i][j], rows[i][j + 1]))
                if j < i - 1:
                    faces.append((rows[i - 1][j], rows[i][j + 1], rows[i - 1][j + 1]))
        outer.append(rows[n])
    return points, faces, outer, radial


def _fan_inputs(kind, arg):
    """(centre, corners, closed) as the mesh constructors build them."""
    if kind == "turnover":
        n1, n2, n3 = arg
        z1, z2, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
        c2m = disc_rotation(z1, 2.0 * np.pi / n1)(embed(z2))
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
    vertices, faces, outer, radial = _fan_lattice(center, corners, n, closed)
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
