"""Constructors for the standard section meshes.

All meshes are geodesic fans: a centre vertex coned over a polygon of
corners, each sector subdivided into a lattice of n^2 geodesic triangles.
Boundary points are arclength-uniform along each edge, so side-pairing
isometries map boundary runs onto each other exactly.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .core import Isometry, ProjectivePoint, _euclidean_units, _unit_reps
from .disc import _disc_automorphisms, _disc_rotations, _so21_stack, _su11_stack, triangle_vertices
from .errors import DegenerateError
from .geometry import (
    _negative_units,
    _slerp_units,
    geodesic_interp,  # noqa: F401  (bench/tracer.py wraps chdisc.meshes.geodesic_interp)
)
from .invariants import SectionMesh, SidePairing


def _fan_lattice(center: np.ndarray, corners: np.ndarray, n: int, closed: bool):
    """Coned lattice over a polygon; returns (vertices, faces, outer, radial).

    ``center`` is a (3,) and ``corners`` an (m, 3) stack of Euclidean-unit
    representatives (as ``ProjectivePoint`` stores them).  ``vertices`` is
    the (V,3) stack of unit representatives, centre first, then the spokes
    corner by corner, then the inner points sector by sector; ``faces`` is
    an (F,3) int array.  ``outer[k]`` indexes the arclength-uniform run
    along the polygon side from corner k to corner k+1; ``radial[k]`` the
    run from the centre to corner k.  Faces are counterclockwise when the
    corners are.
    """
    # a float or a bool would fail further on, as an IndexError (2.0) or a
    # misleading MeshError (True); a numpy integer is an Integral
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise ValueError("refinement must be a positive integer")
    m = len(corners)
    sectors = m if closed else m - 1
    per = n * (n - 1) // 2  # inner points per sector
    w = n + 1
    col = np.arange(w)
    # spokes[k, i-1] is the point at i/n from the centre to corner k; the
    # centre and the corners are scaled to <,> = -1 in one pass
    ends = _negative_units(np.concatenate([center[None], corners]))
    spokes = _slerp_units(center, ends[0], ends[1:, None], col[1:] / n)
    spokes = _euclidean_units(spokes).reshape(-1, 3)
    # the inner points of a sector, at j/i along row i for 0 < j < i, rows
    # ascending; row i of sector k runs from spoke k to spoke k+1 (spoke 0
    # after the last)
    i, j = np.nonzero((col > 0) & (col < col[:, None]))
    ends = (np.arange(sectors + 1) % m * n)[:, None] + (i - 1)
    units = _negative_units(spokes)
    inner = _slerp_units(spokes[ends[:-1]], units[ends[:-1]], units[ends[1:]], j / i)
    vertices = np.empty((1 + m * n + sectors * per, 3), dtype=complex)
    vertices[0] = center
    vertices[1:1 + m * n], vertices[1 + m * n:] = spokes, inner.reshape(-1, 3)
    vertices[1:] = _unit_reps(vertices[1:])

    # lat[k, i, j], 0 <= j <= i <= n: the vertex at j/i along row i of
    # sector k.  The inner numbering is written over every entry, then the
    # spokes over columns j = 0 and j = i (spoke k+1 ends the row).
    lat = np.empty((sectors, w, w), dtype=int)
    sector0 = m * n + ((col - 1) * (col - 2) // 2)[:, None] + col
    lat[:] = sector0 + per * np.arange(sectors)[:, None, None]
    radial = np.arange(m)[:, None] * n + col
    radial[:, 0] = 0
    lat[:, :, 0] = radial[:sectors]
    lat.reshape(sectors, -1)[:, ::w + 1] = radial[np.arange(1, sectors + 1) % m]
    # row i holds faces (i-1)^2 .. i^2 - 1, alternating up (i-1,j)(i,j)(i,j+1)
    # and down (i-1,j)(i,j+1)(i-1,j+1), j ascending: corners at offsets
    # (0, w, w+1) or (0, w+1, 1) from lat[k, i-1, j]
    f = np.arange(n * n)
    above = np.sqrt(f).astype(int)  # i - 1
    t = f - above * above
    corner = (above * w + (t >> 1))[:, None] + np.array([[0, w, w + 1], [0, w + 1, 1]])[t & 1]
    faces = lat.reshape(sectors, -1)[:, corner].reshape(-1, 3)
    outer = lat[:, n]
    return vertices, faces, outer, radial


def turnover_section_mesh(n1: int, n2: int, n3: int, refinement: int = 8) -> SectionMesh:
    """Section mesh of the C-Fuchsian turnover quadrilateral for (n1, n2, n3).

    The fundamental polygon is the counterclockwise triangle (c1, c2, c3)
    with angles pi/n_i together with its rotated copy (c1, c3, c2') where
    c2' = g1^-1 c2, embedded in the standard complex geodesic.  Side
    pairings: c1-c2 to c1-c2' by g1^-1 and c3-c2 to c3-c2' by g3.
    """
    z1, z2, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
    rotations = _disc_rotations([z1, z3], [2.0 * np.pi / n1, -2.0 * np.pi / n3])
    g1_inv, g3 = (Isometry(m) for m in rotations)
    # embed(z1), embed(z2), embed(z3), then c2' = g1^-1 c2 as Isometry.__call__ maps it
    points = np.zeros((4, 3), dtype=complex)
    points[:3, 0], points[:3, 1] = 1.0, (z1, z2, z3)
    points[:3] = _unit_reps(points[:3])
    points[3] = _unit_reps(rotations[0] @ points[1])
    vertices, faces, outer, radial = _fan_lattice(points[0], points[1:], refinement, closed=False)
    pairings = [
        SidePairing(run_a=radial[0], run_b=radial[2], isometry=g1_inv),
        SidePairing(run_a=outer[0, ::-1], run_b=outer[1], isometry=g3),
    ]
    cones = [(0, n1), (int(radial[0, -1]), n2), (int(radial[1, -1]), n3)]
    return SectionMesh(
        vertices=vertices, triangles=faces, side_pairings=pairings, cone_points=cones
    )


# -- genus-2 octagon meshes --------------------------------------------------

_OCTAGON_PAIRS = [(0, 2), (1, 3), (4, 6), (5, 7)]
#: the unit representative of embed(0) and real_plane_point(0, 0)
_ORIGIN = np.array([1.0, 0.0, 0.0], dtype=complex)


def _octagon_circumradius() -> float:
    """Intrinsic (curvature -1) circumradius of the regular pi/4 octagon."""
    return float(np.arccosh(1.0 / np.tan(np.pi / 8.0) ** 2))


def real_plane_point(a: float, b: float) -> ProjectivePoint:
    """The point (1, a, b) of the standard real (Lagrangian) plane."""
    if a * a + b * b >= 1.0:
        raise DegenerateError("real-plane coordinates must satisfy a^2 + b^2 < 1")
    return ProjectivePoint([1.0, a, b])


def octagon_mesh(kind: str = "complex", refinement: int = 8) -> SectionMesh:
    """Closed genus-2 section mesh from the regular pi/4 octagon.

    Sides k and k+2 are identified, reversed, for k in 0, 1, 4, 5 (the
    standard single-vertex-cycle pattern, total corner angle 2 pi, so
    there are no cone points).  ``kind`` selects the embedding: "complex"
    lies in the standard complex geodesic at curvature -4, "lagrangian" in
    the standard real plane at curvature -1.
    """
    if kind not in ("complex", "lagrangian"):
        raise ValueError("kind must be 'complex' or 'lagrangian'")
    r1 = _octagon_circumradius()
    angles = 2.0 * np.pi * np.arange(8) / 8.0 + np.pi / 8.0
    # the octagon in the curvature -4 disc, where intrinsic distances are
    # halved; pair k maps the side (k, k+1) onto (kp+1, kp)
    s = np.tanh(r1 / 2.0)
    zs = s * np.exp(1j * angles)
    k, kp = np.array(_OCTAGON_PAIRS).T
    alpha, beta = _disc_automorphisms(zs[k], zs[(k + 1) % 8], zs[(kp + 1) % 8], zs[kp])
    corners = np.zeros((8, 3), dtype=complex)
    corners[:, 0] = 1.0
    if kind == "complex":
        corners[:, 1] = zs
        pairs = _su11_stack(alpha, beta)
    else:
        # the Klein point 2z / (1 + |z|^2) of corner z, at curvature -1
        s = np.tanh(r1)
        corners[:, 1], corners[:, 2] = s * np.cos(angles), s * np.sin(angles)
        pairs = _so21_stack(alpha, beta)
    corners = _unit_reps(corners)  # embed(z), or real_plane_point(a, b)

    vertices, faces, outer, _ = _fan_lattice(_ORIGIN, corners, refinement, closed=True)
    pairings = [
        SidePairing(run_a=outer[a], run_b=outer[b, ::-1], isometry=Isometry(m))
        for a, b, m in zip(k, kp, pairs)
    ]
    return SectionMesh(vertices=vertices, triangles=faces, side_pairings=pairings)
