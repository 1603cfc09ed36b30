"""Constructors for the standard section meshes.

All meshes are geodesic fans: a centre vertex coned over a polygon of
corners, each sector subdivided into a lattice of n^2 geodesic triangles.
Each lattice point is a linear combination (1 - t) x + t y of two
representatives scaled to <,> = -1 and phase aligned, which spans the
geodesic through x and y (Goldman, Complex Hyperbolic Geometry, 1999).
An isometry keeps <,>, so it maps such a pair onto such a pair up to one
common phase: side pairings map boundary runs onto each other to rounding.
The weights step evenly, the geodesic steps do not: ``--mesh h`` is the
mean step along the longest side, and the longest step on the turnover
sides is at most 1.064 times the mean (the (3,4,4) side c3 c2 at
refinement 24).
"""

from __future__ import annotations

import cmath
import math
from numbers import Integral

import numpy as np

from .core import Isometry, ProjectivePoint, _euclidean_units
from .disc import _disc_automorphisms, _disc_rotations, _so21_stack, _su11_stack, triangle_vertices
from .errors import DegenerateError
from .geometry import (
    _negative_units,
    _phase_align,
    geodesic_interp,  # noqa: F401  (bench/tracer.py wraps chdisc.meshes.geodesic_interp)
)
from .invariants import SectionMesh, SidePairing


def _weighted(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1 - t) a + t b over broadcasting complex stacks a, b and real
    weights t, one per row, on the real and imaginary parts: two rounded
    products and a sum each, which numpy's complex products, fused (FMA)
    on some dispatch targets, would not give."""
    t = t[..., None]
    return ((1.0 - t) * a.view(float) + t * b.view(float)).view(complex)


def _fan_lattice(center: np.ndarray, corners: np.ndarray, n: int, closed: bool):
    """Coned lattice over a polygon; returns (vertices, faces, outer, radial).

    ``center`` is a (3,) and ``corners`` an (m, 3) stack of Euclidean-unit
    representatives (``_euclidean_units`` rows).  ``vertices`` is
    the (V,3) stack of unit representatives, centre first, then the spokes
    corner by corner, then the inner points sector by sector; ``faces`` is
    an (F,3) int array.  ``outer[k]`` indexes the run along the polygon
    side from corner k to corner k+1; ``radial[k]`` the run from the centre
    to corner k.  The point at weight i/n on spoke k, and the one at j/i on
    row i of a sector, are ``_weighted`` on their ends scaled to <,> = -1
    and phase aligned.  Faces are counterclockwise when the corners are.
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
    spokes = _weighted(ends[0], _phase_align(ends[0], ends[1:])[:, None], col[1:] / n)
    # the inner points of a sector, at j/i along row i for 0 < j < i, rows
    # ascending; row i of sector k runs from spoke k to spoke k+1 (spoke 0
    # after the last)
    i, j = np.nonzero((col > 0) & (col < col[:, None]))
    units = _negative_units(spokes)
    a, b = units[:sectors], units[(np.arange(sectors) + 1) % m]
    inner = _weighted(a[:, i - 1], _phase_align(a, b)[:, i - 1], j / i)
    vertices = np.empty((1 + m * n + sectors * per, 3), dtype=complex)
    vertices[0] = center
    vertices[1:1 + m * n], vertices[1 + m * n:] = spokes.reshape(-1, 3), inner.reshape(-1, 3)
    vertices[1:] = _euclidean_units(vertices[1:])

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
    alpha, beta = _disc_rotations([z1, z3], [2.0 * np.pi / n1, -2.0 * np.pi / n3])
    g1_inv, g3 = (Isometry(m) for m in _su11_stack(alpha, beta))
    # c2' = g1^-1 c2 in the disc, in complex scalars
    a, b = complex(alpha[0]), complex(beta[0])
    z2m = (a * z2 + b) / (b.conjugate() * z2 + a.conjugate())
    # embed(z1), embed(z2), embed(z3) and embed(c2'), Euclidean units
    points = np.zeros((4, 3), dtype=complex)
    points[:, 0], points[:, 1] = 1.0, (z1, z2, z3, z2m)
    points = _euclidean_units(points)
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
    return math.acosh(1.0 / math.tan(math.pi / 8.0) ** 2)


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
    angles = [2.0 * math.pi * k / 8.0 + math.pi / 8.0 for k in range(8)]
    # the octagon in the curvature -4 disc, where intrinsic distances are
    # halved; pair k maps the side (k, k+1) onto (kp+1, kp)
    s = math.tanh(r1 / 2.0)
    zs = np.array([s * cmath.exp(1j * a) for a in angles])
    k, kp = np.array(_OCTAGON_PAIRS).T
    alpha, beta = _disc_automorphisms(zs[k], zs[(k + 1) % 8], zs[(kp + 1) % 8], zs[kp])
    corners = np.zeros((8, 3), dtype=complex)
    corners[:, 0] = 1.0
    if kind == "complex":
        corners[:, 1] = zs
        pairs = _su11_stack(alpha, beta)
    else:
        # the Klein point 2z / (1 + |z|^2) of corner z, at curvature -1
        s = math.tanh(r1)
        corners[:, 1:] = [(s * math.cos(a), s * math.sin(a)) for a in angles]
        pairs = _so21_stack(alpha, beta)
    corners = _euclidean_units(corners)  # embed(z), or real_plane_point(a, b)

    vertices, faces, outer, _ = _fan_lattice(_ORIGIN, corners, refinement, closed=True)
    pairings = [
        SidePairing(run_a=outer[a], run_b=outer[b, ::-1], isometry=Isometry(m))
        for a, b, m in zip(k, kp, pairs)
    ]
    return SectionMesh(vertices=vertices, triangles=faces, side_pairings=pairings)
