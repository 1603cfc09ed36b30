"""The Poincare disc of curvature -4 sitting inside H^2_C.

A complex geodesic is an isometrically embedded Poincare disc of curvature
-4.  For the standard one, P(f0^perp) with f0 = (0,0,1), the embedding is
z -> (1, z, 0).  All 2D trigonometry (law of cosines, triangle
construction) is done at curvature -1 and distances are halved.
"""

from __future__ import annotations

import numpy as np

from .core import Isometry, OrthogonalFrame, ProjectivePoint, elliptic_from_frame, herm_form
from .errors import DegenerateError

F0 = ProjectivePoint([0.0, 0.0, 1.0])


def embed(z: complex) -> ProjectivePoint:
    """Embed a unit-disc coordinate into the complex geodesic f0^perp."""
    if abs(z) >= 1.0:
        raise DegenerateError("disc coordinate must satisfy |z| < 1")
    return ProjectivePoint([1.0, z, 0.0])


def mobius(a: complex, z: complex) -> complex:
    """Disc automorphism sending a to 0: (z - a) / (1 - conj(a) z)."""
    return (z - a) / (1.0 - np.conj(a) * z)


def disc_distance(z1: complex, z2: complex) -> float:
    """Distance at curvature -4: half the classical Poincare distance."""
    return float(np.arctanh(abs(mobius(z1, z2))))


def radius_for_distance(d: float) -> float:
    """Euclidean radius of the circle at curvature -4 distance d from 0."""
    return float(np.tanh(d))


# -- hyperbolic trigonometry at curvature -1 ---------------------------------

def side_from_angles(alpha: float, beta: float, gamma: float) -> float:
    """Curvature -1 length of the side joining the alpha and beta vertices.

    Angle law of cosines: cosh c = (cos gamma + cos alpha cos beta) /
    (sin alpha sin beta), with c the side opposite gamma.
    """
    num = np.cos(gamma) + np.cos(alpha) * np.cos(beta)
    den = np.sin(alpha) * np.sin(beta)
    return float(np.arccosh(num / den))


def triangle_vertices(alpha1: float, alpha2: float, alpha3: float) -> tuple[complex, complex, complex]:
    """Disc coordinates of a counterclockwise triangle with the given angles.

    Vertex i carries interior angle alpha_i; c1 sits at the disc centre, c2
    on the positive real axis, c3 at argument alpha1, so the loop
    c1 -> c2 -> c3 runs counterclockwise.
    """
    if alpha1 + alpha2 + alpha3 >= np.pi:
        raise DegenerateError("angle sum must be below pi for a hyperbolic triangle")
    # curvature -1 sides, halved for the curvature -4 disc
    s12 = 0.5 * side_from_angles(alpha1, alpha2, alpha3)
    s13 = 0.5 * side_from_angles(alpha1, alpha3, alpha2)
    c1 = 0.0 + 0.0j
    c2 = complex(radius_for_distance(s12))
    c3 = radius_for_distance(s13) * np.exp(1j * alpha1)
    return c1, c2, complex(c3)


# -- isometries of the standard complex geodesic -----------------------------

def in_plane_frame(z: complex) -> OrthogonalFrame:
    """Orthogonal frame (point, in-plane direction, polar) at a disc point."""
    b0 = embed(z)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    b1 = ProjectivePoint(e1 - (herm_form(e1, b0.v) / b0.self_form()) * b0.v)
    return OrthogonalFrame(b0, b1, F0)


def disc_rotation(center: complex, angle: float) -> Isometry:
    """Rotation by ``angle`` about a disc point, extended to H^2_C.

    Positive angle rotates counterclockwise with respect to the complex
    orientation of the disc; the polar direction f0 is left untouched
    (eigenphase 1), so the map is C-Fuchsian.
    """
    frame = in_plane_frame(center)
    return elliptic_from_frame(frame, [1.0, np.exp(1j * angle), 1.0])


def su11_to_isometry(alpha: complex, beta: complex) -> Isometry:
    """Extend the disc Mobius map z -> (alpha z + beta)/(conj(beta) z + conj(alpha)).

    Requires |alpha|^2 - |beta|^2 = 1; acts trivially on the polar
    direction.
    """
    m = np.array(
        [
            [np.conj(alpha), np.conj(beta), 0.0],
            [beta, alpha, 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    return Isometry.from_matrix(m)


def disc_isometry_two_points(z1: complex, z2: complex, w1: complex, w2: complex) -> Isometry:
    """The disc automorphism with z1 -> w1 and z2 -> w2.

    The pairs must be equidistant; the map is the unique
    orientation-preserving one, returned as a C-Fuchsian isometry of H^2_C.
    """
    d1 = disc_distance(z1, z2)
    d2 = disc_distance(w1, w2)
    if abs(d1 - d2) > 1e-9 * max(1.0, d1):
        raise DegenerateError("point pairs are not equidistant")
    phi = np.angle(mobius(w1, w2)) - np.angle(mobius(z1, z2))
    # g = m_{w1}^{-1} o rot(phi) o m_{z1}, assembled in SU(1,1)
    def su(a, b):
        return np.array([[a, b], [np.conj(b), np.conj(a)]], dtype=complex)

    n1 = 1.0 / np.sqrt(1.0 - abs(z1) ** 2)
    m_z1 = su(n1, -n1 * z1)
    nw = 1.0 / np.sqrt(1.0 - abs(w1) ** 2)
    m_w1_inv = su(nw, nw * w1)
    rot = su(np.exp(1j * phi / 2.0), 0.0)
    g = m_w1_inv @ rot @ m_z1
    return su11_to_isometry(g[0, 0], g[0, 1])
