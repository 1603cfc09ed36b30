"""The Poincare disc of curvature -4 sitting inside H^2_C.

A complex geodesic is an isometrically embedded Poincare disc of curvature
-4.  For the standard one, P(f0^perp) with f0 = (0,0,1), the embedding is
z -> (1, z, 0).  All 2D trigonometry (law of cosines, triangle
construction) is done at curvature -1 and distances are halved.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (
    ProjectivePoint,
    _SEEDS,
    _check_isometries,
    _form_pairs,
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
    """Disc automorphism sending a to 0: (z - a) / (1 - conj(a) z), in
    complex scalars."""
    return (z - a) / (1.0 - a.conjugate() * z)


def disc_distance(z1: complex, z2: complex) -> float:
    """Distance at curvature -4: half the classical Poincare distance, in
    libm scalars (|.| as hypot)."""
    return math.atanh(abs(mobius(z1, z2)))


def radius_for_distance(d: float) -> float:
    """Euclidean radius of the circle at curvature -4 distance d from 0."""
    return math.tanh(d)


# -- hyperbolic trigonometry at curvature -1 ---------------------------------

def side_from_angles(alpha: float, beta: float, gamma: float) -> float:
    """Curvature -1 length of the side joining the alpha and beta vertices.

    Angle law of cosines: cosh c = (cos gamma + cos alpha cos beta) /
    (sin alpha sin beta), with c the side opposite gamma, in libm scalars.
    """
    num = math.cos(gamma) + math.cos(alpha) * math.cos(beta)
    return math.acosh(num / (math.sin(alpha) * math.sin(beta)))


def triangle_vertices(alpha1: float, alpha2: float, alpha3: float) -> tuple[complex, complex, complex]:
    """Disc coordinates of a counterclockwise triangle with the given angles.

    Vertex i carries interior angle alpha_i; c1 sits at the disc centre, c2
    on the positive real axis, c3 at argument alpha1, so the loop
    c1 -> c2 -> c3 runs counterclockwise.  Every step is a libm or Python
    complex scalar, so no numpy dispatch target moves a bit.
    """
    if alpha1 + alpha2 + alpha3 >= np.pi:
        raise DegenerateError("angle sum must be below pi for a hyperbolic triangle")
    # curvature -1 sides, halved for the curvature -4 disc
    s12 = 0.5 * side_from_angles(alpha1, alpha2, alpha3)
    s13 = 0.5 * side_from_angles(alpha1, alpha3, alpha2)
    return 0j, complex(radius_for_distance(s12)), radius_for_distance(s13) * cmath.exp(1j * alpha1)


# -- isometries of the standard complex geodesic -----------------------------

def _in_plane_frames(z) -> np.ndarray:
    """Orthogonal frames (point, in-plane direction, polar) at each of an
    array of disc points: a (k, 3, 3) stack whose rows are the frame
    vectors, each with the bits of the one-point construction
    (np.dot pairings as ``_form_pairs`` takes them, a Python complex
    quotient, ``ProjectivePoint`` normalisation)."""
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
    (Goldman, Complex Hyperbolic Geometry, 1999): one pair at a time in
    Python complex scalars (hypot for |c|, libm ``pow`` for |c|^2, ``cmath``
    for e), which for the two rotations of a mesh is faster than arrays.
    """
    pairs = []
    for c, angle in zip(_scalars(centers), _scalars(angles)):
        r = abs(c) ** 2
        if r >= 1.0:
            raise DegenerateError("disc coordinate must satisfy |z| < 1")
        e = cmath.exp(0.5j * angle.real)
        pairs.append(((e - r * e.conjugate()) / (1.0 - r), c * (e.conjugate() - e) / (1.0 - r)))
    return tuple(np.array(pairs, dtype=complex).reshape(-1, 2).T)


def _scalars(values) -> list:
    """An array-like of numbers as a list of Python complex scalars."""
    return np.asarray(values, dtype=complex).reshape(-1).tolist()


def _su11_stack(alpha, beta) -> np.ndarray:
    """The disc Mobius maps z -> (alpha z + beta)/(conj(beta) z + conj(alpha))
    over arrays of coefficients with |alpha|^2 - |beta|^2 = 1, extended to
    H^2_C with a trivial action on the polar direction: a (k, 3, 3) stack.

    Each matrix is checked by ``_check_isometries`` and scaled to
    determinant 1 by D^(-1/3), D = |alpha|^2 - |beta|^2 being its
    determinant in closed form, formed as complex scalars form it (libm
    ``pow``, as ``np.float_power`` takes it)."""
    alpha, beta = (np.asarray(c, dtype=complex).reshape(-1) for c in (alpha, beta))
    m = np.zeros((len(alpha), 3, 3), dtype=complex)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = np.conj(alpha), np.conj(beta), beta, alpha
    m[:, 2, 2] = 1.0
    _check_isometries(m)
    return m * np.float_power(_su11_dets(alpha, beta), -1.0 / 3.0)[:, None, None]


def _su11_dets(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """|alpha|^2 - |beta|^2 over arrays of coefficients, as
    (re re + im im) - (re re + im im)."""
    return (alpha.real * alpha.real + alpha.imag * alpha.imag) - (beta.real * beta.real + beta.imag * beta.imag)


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

    The action is X -> g X g* on Hermitian 2x2 matrices, quadratic in
    (alpha, beta): scaling them by s > 0 scales the matrix by s^2 and its
    determinant by s^6, and an SU(1,1) pair gives determinant 1.  So the
    determinant is D^3, with D = |alpha|^2 - |beta|^2 = s^2 (``_su11_dets``),
    and each checked matrix (``_check_isometries``) is divided by D for
    determinant 1.
    """
    alpha, beta = (np.asarray(c, dtype=complex).reshape(-1) for c in (alpha, beta))
    lifts = []
    for a, b in zip(alpha.tolist(), beta.tolist()):
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        a2, b2 = ar * ar - ai * ai, br * br - bi * bi  # Re alpha^2, Re beta^2
        lifts.append([
            [(ar * ar + ai * ai) + (br * br + bi * bi), 2.0 * (ar * br + ai * bi), 2.0 * (ar * bi - ai * br)],
            [2.0 * (ar * br - ai * bi), a2 + b2, 2.0 * (br * bi - ar * ai)],
            [2.0 * (ar * bi + ai * br), 2.0 * (ar * ai + br * bi), a2 - b2],
        ])
    m = np.array(lifts, dtype=float).reshape(-1, 3, 3)
    _check_isometries(m)
    return (m / _su11_dets(alpha, beta)[:, None, None]).astype(complex)


def _disc_automorphisms(z1, z2, w1, w2):
    """SU(1,1) coefficients (alpha, beta) of the disc automorphisms with
    z1[i] -> w1[i] and z2[i] -> w2[i] over arrays of disc points, two
    length-k arrays; ``_su11_stack`` lifts them to C-Fuchsian and
    ``_so21_stack`` to R-Fuchsian isometries of H^2_C.

    The pairs must be equidistant (else ``DegenerateError``); each map is
    the unique orientation-preserving one, formed one map at a time in
    Python complex scalars and libm (``math``, ``cmath``), so no numpy
    dispatch target moves a bit.
    """
    pairs = []
    for a, b, c, d in zip(*map(_scalars, (z1, z2, w1, w2))):
        # the Mobius images m_a(b) and m_c(d), whose moduli are tanh of the
        # two distances; the relative 1e-9 (equal distances up to
        # rounding) decides the verdict
        u, v = mobius(a, b), mobius(c, d)
        du = math.atanh(abs(u))
        if abs(du - math.atanh(abs(v))) > 1e-9 * max(1.0, du):
            raise DegenerateError("point pairs are not equidistant")
        # g = m_c^{-1} o rot(phi) o m_a, the SU(1,1) product
        # (n_c, n_c c)(e, 0)(n_a, -n_a a) with e = exp(i phi / 2), in closed
        # form: alpha = n (e - c conj(a) conj(e)), beta = n (c conj(e) - e a)
        # with n = n_c n_a
        e = cmath.exp(0.5j * (cmath.phase(v) - cmath.phase(u)))
        n = (1.0 / math.sqrt(1.0 - abs(c) ** 2)) * (1.0 / math.sqrt(1.0 - abs(a) ** 2))
        pairs.append((n * (e - c * a.conjugate() * e.conjugate()), n * (c * e.conjugate() - e * a)))
    return tuple(np.array(pairs, dtype=complex).reshape(-1, 2).T)
