"""The Poincare disc of curvature -4 sitting inside H^2_C.

A complex geodesic is an isometrically embedded Poincare disc of curvature
-4.  For the standard one, P(f0^perp) with f0 = (0,0,1), the embedding is
z -> (1, z, 0).  All 2D trigonometry (law of cosines, triangle
construction) is done at curvature -1 and distances are halved.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ProjectivePoint,
    _SEEDS,
    _form_pairs,
    _isometry_stack,
    _py_products,
    _py_quotients,
    _unit_reps,
)
from .errors import DegenerateError

F0 = ProjectivePoint([0.0, 0.0, 1.0])


def embed(z: complex) -> ProjectivePoint:
    """Embed a unit-disc coordinate into the complex geodesic f0^perp."""
    if abs(z) >= 1.0:
        raise DegenerateError("disc coordinate must satisfy |z| < 1")
    return ProjectivePoint([1.0, z, 0.0])


def mobius(a: complex, z: complex) -> complex:
    """Disc automorphism sending a to 0: (z - a) / (1 - conj(a) z).

    Elementwise on arrays, each entry with the bits of complex scalars.
    """
    return (z - a) / (1.0 - _py_products(np.conj(a), z))


def _disc_distances(z1, z2):
    # |.| as hypot, which complex scalars use and numpy's array abs does not
    w = mobius(z1, z2)
    return np.arctanh(np.hypot(w.real, w.imag))


def disc_distance(z1: complex, z2: complex) -> float:
    """Distance at curvature -4: half the classical Poincare distance."""
    return float(_disc_distances(z1, z2))


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

def _in_plane_frames(z) -> np.ndarray:
    """Orthogonal frames (point, in-plane direction, polar) at each of an
    array of disc points: a (k, 3, 3) stack whose rows are the frame
    vectors, each with the bits of the one-point construction
    (``herm_form`` pairings, a Python complex quotient, ``ProjectivePoint``
    normalisation)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if (np.abs(z) >= 1.0).any():
        raise DegenerateError("disc coordinate must satisfy |z| < 1")
    frames = np.zeros((len(z), 3, 3), dtype=complex)
    # rows (1, z, 0), e1 and F0
    frames[:, 0, 0], frames[:, 0, 1], frames[:, 1, 1], frames[:, 2, 2] = 1.0, z, 1.0, 1.0
    b0 = frames[:, 0] = _unit_reps(frames[:, 0])  # embed(z)
    # <b0, b0> and <e1, b0> from one pass, while row 1 still holds e1
    pairs = _form_pairs(frames[:, :2], b0[:, None])
    q = _py_quotients(pairs[:, 1], pairs[:, 0].real)
    frames[:, 1] = _unit_reps(_SEEDS[1] - q[:, None] * b0)
    return frames


def _disc_rotations(centers, angles):
    """SU(1,1) coefficients (alpha, beta) of the rotations by ``angles[i]``
    about the disc points ``centers[i]``, two length-k arrays, as
    ``_disc_automorphisms`` gives them; ``_su11_stack`` lifts them to
    C-Fuchsian isometries of H^2_C.

    A positive angle rotates counterclockwise with respect to the complex
    orientation of the disc.  With e = exp(i angle / 2) and r = |c|^2,
    alpha = (e - r conj(e)) / (1 - r) and beta = c (conj(e) - e) / (1 - r)
    (Goldman, Complex Hyperbolic Geometry, 1999): elementwise, with the bits
    of the complex-scalar computation (hypot for |c|, libm ``pow`` for
    |c|^2, CPython's complex products and quotients).
    """
    c = np.asarray(centers, dtype=complex).reshape(-1)
    r = np.float_power(np.hypot(c.real, c.imag), 2)
    if (r >= 1.0).any():
        raise DegenerateError("disc coordinate must satisfy |z| < 1")
    e = np.exp(0.5j * np.asarray(angles, dtype=float).reshape(-1))
    d = 1.0 - r
    return _py_quotients(e - r * e.conj(), d), _py_quotients(_py_products(c, e.conj() - e), d)


def _su11_stack(alpha, beta) -> np.ndarray:
    """The disc Mobius maps z -> (alpha z + beta)/(conj(beta) z + conj(alpha))
    over arrays of coefficients with |alpha|^2 - |beta|^2 = 1, extended to
    H^2_C with a trivial action on the polar direction: a (k, 3, 3) stack."""
    alpha, beta = (np.asarray(c, dtype=complex).reshape(-1) for c in (alpha, beta))
    m = np.zeros((len(alpha), 3, 3), dtype=complex)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = np.conj(alpha), np.conj(beta), beta, alpha
    m[:, 2, 2] = 1.0
    return _isometry_stack(m)


def _so21_stack(alpha, beta) -> np.ndarray:
    """The same disc Mobius maps, for length-k arrays of coefficients,
    acting on the standard real plane, whose point (1, a, b) is the disc
    point z with a + ib = 2z / (1 + |z|^2) (Klein coordinates): a (k, 3, 3)
    stack of real matrices, extended complex-linearly to H^2_C.

    Row by row the adjoint action of SU(1,1) on (1, a, b) is
    [|alpha|^2 + |beta|^2, 2 Re(alpha conj(beta)), -2 Im(alpha conj(beta))],
    [2 Re(alpha beta), Re(alpha^2 + beta^2), -Im(alpha^2 - beta^2)],
    [2 Im(alpha beta), Im(alpha^2 + beta^2), Re(alpha^2 - beta^2)],
    each entry formed from the real parts in Python floats, whose rounded
    products and sums are numpy's elementwise ones, so that a stack and one
    pair at a time get the same bits under any BLAS kernel.  For the few
    pairs a mesh lifts this costs less than some twenty array operations.
    """
    lifts = []
    for a, b in zip(np.asarray(alpha).tolist(), np.asarray(beta).tolist()):
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        a2, b2 = ar * ar - ai * ai, br * br - bi * bi  # Re alpha^2, Re beta^2
        lifts.append([
            [(ar * ar + ai * ai) + (br * br + bi * bi), 2.0 * (ar * br + ai * bi), 2.0 * (ar * bi - ai * br)],
            [2.0 * (ar * br - ai * bi), a2 + b2, 2.0 * (br * bi - ar * ai)],
            [2.0 * (ar * bi + ai * br), 2.0 * (ar * ai + br * bi), a2 - b2],
        ])
    return _isometry_stack(np.array(lifts, dtype=complex))


def _disc_automorphisms(z1, z2, w1, w2):
    """SU(1,1) coefficients (alpha, beta) of the disc automorphisms with
    z1[i] -> w1[i] and z2[i] -> w2[i] over arrays of disc points, two
    length-k arrays; ``_su11_stack`` lifts them to C-Fuchsian and
    ``_so21_stack`` to R-Fuchsian isometries of H^2_C.

    The pairs must be equidistant (else ``DegenerateError``); each map is
    the unique orientation-preserving one, with the bits of the
    complex-scalar computation (``mobius``, hypot for |z|, libm ``pow`` for
    |z|^2).
    """
    z1, z2, w1, w2 = (np.asarray(v, dtype=complex).reshape(-1) for v in (z1, z2, w1, w2))
    k = len(z1)
    # both pairs in one pass: rows [:k] are (z1, z2), rows [k:] are (w1, w2)
    a = np.concatenate([z1, w1])
    m = mobius(a, np.concatenate([z2, w2]))
    d = np.arctanh(np.hypot(m.real, m.imag))  # _disc_distances
    # the relative 1e-9 (equal distances up to rounding) decides the
    # verdict
    if (abs(d[:k] - d[k:]) > 1e-9 * np.maximum(1.0, d[:k])).any():
        raise DegenerateError("point pairs are not equidistant")
    angle = np.angle(m)
    n = 1.0 / np.sqrt(1.0 - np.float_power(np.hypot(a.real, a.imag), 2))
    # g = m_{w1}^{-1} o rot(phi) o m_{z1}, assembled in SU(1,1): factor i of
    # the (3, k, 2, 2) stack is [[alpha_i, beta_i], [conj(beta_i), conj(alpha_i)]]
    alpha = np.array([n[k:], np.exp(1j * (angle[k:] - angle[:k]) / 2.0), n[:k]], dtype=complex)
    beta = np.zeros((3, k), dtype=complex)
    beta[0], beta[2] = n[k:] * w1, -n[:k] * z1
    su = np.empty((3, k, 2, 2), dtype=complex)
    su[..., 0, 0], su[..., 0, 1] = alpha, beta
    su[..., 1, 0], su[..., 1, 1] = beta.conj(), alpha.conj()
    g = su[0] @ su[1] @ su[2]
    return g[:, 0, 0], g[:, 0, 1]
