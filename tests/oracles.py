"""One-point reference implementations that no package code calls.

Each function here is an independent, one-point-at-a-time path to a value
the package computes another way (closed forms, batched kernels), or a
plain reader of a coordinate the tests check.  None of them is reached by
the command line, the demos or the benchmark.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math

import numpy as np

from chdisc.core import (
    _CUBE_ROOTS,
    _SIGNS,
    FORM_MATRIX,
    NULL,
    Isometry,
    OrthogonalFrame,
    ProjectivePoint,
    _check_isometries,
    _distance_from_tance,
    _elliptic_rows,
    _euclidean_units,
    _form_adjoint,
    _gram_tances,
    _norms_and_squares,
    _points_of_units,
    _sign_code,
    _tangent_basis_of_units,
    _unit_det,
    classify,
    gram,
    herm_form,
    herm_rows,
    polar_rows,
    polar_span,
    self_norms,
    sign_classes,
)
from chdisc.disc import F0, _in_plane_frames, disc_distance, embed, mobius, triangle_vertices
from chdisc.errors import (
    ClassError,
    DegenerateError,
    NotUltraparallelError,
    NullPointError,
)
from chdisc.geometry import (
    Bisector,
    BisectorSegment,
    ComplexGeodesic,
    _aligned_units,
    _geodesic_rows,
    _negative_units,
    _phase_align,
    geodesic_interp,
)
from chdisc.invariants import (
    FrameField,
    _rotation_angle,
    _toledo,
    _triple_products,
    normalized_negative,
)
from chdisc.io import _vector_json
from chdisc.meshes import _octagon_circumradius
from chdisc.quadrangle import SubCheck, _side_values
from chdisc.representations import _rotation_phases
from chdisc.tolerances import TOL, Tolerances


# -- isometries ----------------------------------------------------------------

def isometry_residual(m) -> float:
    """max-norm of M* J M - J; zero exactly on U(2,1)."""
    m = np.asarray(m, dtype=complex).reshape(3, 3)
    return float(np.abs(m.conj().T @ FORM_MATRIX @ m - FORM_MATRIX).max())


def projective_distance(g: Isometry, h: Isometry) -> float:
    """min over cube roots of unity w of max-norm of (g - w*h)."""
    return min(float(np.abs(g.matrix - w * h.matrix).max()) for w in _CUBE_ROOTS)


def projector(b: np.ndarray) -> np.ndarray:
    """The form-orthogonal projection onto C b, P(x) = (<x,b>/<b,b>) b."""
    return np.outer(b, _SIGNS * np.conj(b)) / herm_form(b, b).real


# -- distances between stacks -----------------------------------------------------

def tance_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T[i, j] = ta(x_i, y_j) between two stacks, from one Gram matrix."""
    return _gram_tances(gram(x, y), self_norms(x), self_norms(y))


def distance_matrix(x: np.ndarray, y: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """D[i, j] = distance(x_i, y_j) between two stacks of negative points, the
    reference for ``min_distances``.

    Raises ``ClassError`` unless every row is negative, and
    ``GeometryDomainError`` when a tance falls below 1 beyond noise.
    """
    if (sign_classes(x, tol) != -1).any() or (sign_classes(y, tol) != -1).any():
        raise ClassError("distance requires two negative points")
    return _distance_from_tance(tance_values(x, y))


# -- the standard complex geodesic as a disc ------------------------------------

def coordinate(x: ProjectivePoint, tol: float = 1e-9) -> complex:
    """Disc coordinate of a negative point lying in f0^perp."""
    v = x.v
    if abs(v[2]) > tol * np.linalg.norm(v):
        raise DegenerateError("point does not lie in the standard complex geodesic")
    return complex(v[1] / v[0])


def mobius_inv(a: complex, w: complex) -> complex:
    return (w + a) / (1.0 + np.conj(a) * w)


def _mobius_inv_deriv(a: complex, w: complex) -> complex:
    return (1.0 - abs(a) ** 2) / (1.0 + np.conj(a) * w) ** 2


def _mobius_deriv(a: complex, z: complex) -> complex:
    return (1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2


def geodesic_point(z1: complex, z2: complex, t: float) -> complex:
    """Point at arclength fraction t on the geodesic from z1 to z2."""
    w = mobius(z1, z2)
    r = abs(w)
    if r == 0.0:
        return z1
    return mobius_inv(z1, w / r * np.tanh(t * np.arctanh(r)))


def disc_angle(v: complex, a: complex, b: complex) -> float:
    """Interior angle at v between the geodesics v->a and v->b, in [0, pi].

    The disc metric is conformal, so the hyperbolic angle equals the
    Euclidean angle between the geodesics' initial directions, which after
    moving v to the origin are straight rays.
    """
    wa, wb = mobius(v, a), mobius(v, b)
    if wa == 0 or wb == 0:
        raise DegenerateError("angle needs three distinct points")
    ang = abs(np.angle(wb / wa))
    return float(min(ang, 2.0 * np.pi - ang))


def angles_from_sides(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Curvature -1 interior angles opposite the sides a, b, c."""

    def ang(u, v, w):
        # angle opposite u
        r = (np.cosh(v) * np.cosh(w) - np.cosh(u)) / (np.sinh(v) * np.sinh(w))
        return float(np.arccos(np.clip(r, -1.0, 1.0)))

    return ang(a, b, c), ang(b, c, a), ang(c, a, b)


def triangle_area_gauss_bonnet(z1: complex, z2: complex, z3: complex) -> float:
    """Area of the geodesic triangle at curvature -4 by angle defect.

    Side lengths are doubled to curvature -1, angles recovered by the law of
    cosines, and the curvature -1 defect pi - sum(angles) is divided by 4.
    """
    a = 2.0 * disc_distance(z2, z3)
    b = 2.0 * disc_distance(z3, z1)
    c = 2.0 * disc_distance(z1, z2)
    if min(a, b, c) < 1e-14:
        return 0.0
    angs = angles_from_sides(a, b, c)
    return float((np.pi - sum(angs)) / 4.0)


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_area_quadrature(z1: complex, z2: complex, z3: complex, order: int = 32) -> float:
    """Area of the geodesic triangle at curvature -4 by 2D quadrature.

    The triangle is parameterized by coning from z1 over the geodesic
    z2 -> z3 and the area element dx dy / (1 - |z|^2)^2 is integrated with
    a tensor Gauss-Legendre rule; derivatives of the cone map are evaluated
    with the analytic Mobius chain rule.
    """
    s, ws = _gl_nodes(order)
    t, wt = _gl_nodes(order)

    w23 = mobius(z2, z3)
    total = 0.0
    for tj, wtj in zip(t, wt):
        # gamma(t): geodesic-line parameterization from z2 to z3
        u = tj * w23
        g = mobius_inv(z2, u)
        dg = _mobius_inv_deriv(z2, u) * w23
        # cone coordinates around z1
        w = mobius(z1, g)
        dw = _mobius_deriv(z1, g) * dg
        for si, wsi in zip(s, ws):
            arg = si * w
            finv = _mobius_inv_deriv(z1, arg)
            fs = finv * w            # d/ds of F
            ft = finv * si * dw      # d/dt of F
            z = mobius_inv(z1, arg)
            jac = (np.conj(fs) * ft).imag
            total += wsi * wtj * jac / (1.0 - abs(z) ** 2) ** 2
    return float(total)


# -- the symplectic area of a geodesic triangle ---------------------------------

def pullback_h(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """Pulled-back Hermitian metric for derivatives of an unnormalized lift.

    For derivatives of curves of unnormalized representatives x(t),
    h(u, v) = -( <u,v><x,x> - <u,x><x,v> ) / <x,x>^2 projects out the
    radial component, so any smooth lift of a surface patch can be
    differentiated directly.
    """
    xx = herm_form(x, x)
    return -(herm_form(u, v) * xx - herm_form(u, x) * herm_form(x, v)) / (xx * xx)


def symplectic_area_quadrature(x1: ProjectivePoint, x2: ProjectivePoint,
                               x3: ProjectivePoint, order: int = 24) -> float:
    """The integral of omega over the geodesic triangle (x1, x2, x3) by quadrature.

    The triangle is coned from x1 over the geodesic x2 -> x3; the smooth
    lift F(s,t) = slerp(x1, slerp(x2, x3, t), s) is differentiated
    analytically and Im of the pulled-back metric integrated with a tensor
    Gauss-Legendre rule.  The reference for ``symplectic_area_triangle``.
    """
    x1h = normalized_negative(x1)
    x2h = normalized_negative(x2)
    x3h = _phase_align(x2h, normalized_negative(x3))
    cc = -herm_form(x3h, x2h).real
    dd = float(np.arccosh(max(cc, 1.0)))
    if dd < 1e-14:
        return 0.0
    s_nodes, s_weights = _gl_nodes(order)
    t_nodes, t_weights = _gl_nodes(order)
    total = 0.0
    for tj, wtj in zip(t_nodes, t_weights):
        c = (np.sinh((1.0 - tj) * dd) * x2h + np.sinh(tj * dd) * x3h) / np.sinh(dd)
        cdot = dd * (-np.cosh((1.0 - tj) * dd) * x2h + np.cosh(tj * dd) * x3h) / np.sinh(dd)
        p = herm_form(x1h, c)
        pdot = herm_form(x1h, cdot)
        ap = abs(p)
        if ap < 1e-14:
            continue
        apdot = (p.conjugate() * pdot).real / ap
        lam = -p / ap
        lamdot = -pdot / ap + p * apdot / (ap * ap)
        y = lam * c
        ydot = lamdot * c + lam * cdot
        d = float(np.arccosh(max(ap, 1.0)))
        if d < 1e-14:
            continue
        ddot = apdot / np.sinh(d)
        sh = np.sinh(d)
        for si, wsi in zip(s_nodes, s_weights):
            f = (np.sinh((1.0 - si) * d) * x1h + np.sinh(si * d) * y) / sh
            fs = d * (-np.cosh((1.0 - si) * d) * x1h + np.cosh(si * d) * y) / sh
            ft = (
                (1.0 - si) * ddot * np.cosh((1.0 - si) * d) * x1h
                + si * ddot * np.cosh(si * d) * y
                + np.sinh(si * d) * ydot
            ) / sh - ddot * np.cosh(d) / sh * f
            total += wsi * wtj * pullback_h(f, fs, ft).imag
    return float(total)


# -- orientation of tangent frames ---------------------------------------------

def orientation_determinants(x, frame4) -> np.ndarray:
    """The real 6x6 determinants of (x, ix, f1, f2, f3, f4) over R^6 = C^3,
    for x scaled to <x,x> = -1 and a 4-frame, or for stacks of both.

    Each is |det_C(x, b1, b2)|^2 = 1 times the determinant of the frame's
    coordinates in the real basis (b1, ib1, b2, ib2), for any unitary basis
    (b1, b2) of x^perp: the reference for ``orientation_sign``.
    """
    x = np.asarray(x, dtype=complex)[..., None, :]
    rows = np.concatenate([x, 1j * x, np.asarray(frame4, dtype=complex)], axis=-2)
    return np.linalg.det(rows.view(float).reshape(*rows.shape[:-2], 6, 6))


def mesh_corners(tri: np.ndarray) -> np.ndarray:
    """Every corner (a, b, c) of an (F, 3) face array, in face-array order:
    row 3 f + j has a = tri[f, j], whose neighbours in face f are b and c."""
    return np.stack([tri, tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]], axis=1).reshape(-1, 3)


def first_corners_by_unique(tri: np.ndarray) -> np.ndarray:
    """The first corner of each vertex in ``mesh_corners``' order, from
    ``np.unique``: the reference for ``_first_corners`` on meshes whose
    every vertex lies in a face."""
    corners = mesh_corners(tri)
    _, first = np.unique(corners[:, 0], return_index=True)
    return corners[first]


def frame_field_by_eigen_fit(mesh) -> FrameField:
    """The frame field as a least-squares fit to every neighbour: the
    reference for ``build_frame_field``'s first corners.

    At each vertex the log-map directions to all its mesh neighbours (the
    directed edges of every corner, from ``np.unique``) are taken in the
    real coordinates of ``_tangent_basis_of_units``, and the 4x4 scatter
    sum r r^T (``np.add.at``) is diagonalised by ``np.linalg.eigh``: the
    top two eigenvectors span the dominant real 2-plane of the directions,
    the tangent plane of a totally geodesic section, and the bottom two its
    g-orthogonal complement.  u2 is flipped when the first corner's
    directions have a negative determinant against (u1, u2), and v2 when
    det q is negative, both from LAPACK.
    """
    xh, n = mesh.units, len(mesh.units)
    corners = mesh_corners(mesh.triangles)
    keys = np.unique(corners[:, [0, 0]] * n + corners[:, 1:])
    src, dst = np.divmod(keys, n)
    a, b, c = first_corners_by_unique(mesh.triangles).T
    corner = np.searchsorted(keys, np.stack([a * n + b, a * n + c], axis=1))
    basis = _tangent_basis_of_units(xh)
    # the log map d (y - cosh(d) x) / sinh d toward each phase-aligned neighbour
    y, ch, d = _aligned_units(xh[src], xh[dst])
    w = (d / np.sinh(d))[:, None] * (y - ch[:, None] * xh[src])
    z = herm_rows(w[:, None, :], basis[src])
    r = np.stack([z.real, z.imag], axis=-1).reshape(-1, 4)
    scatter = np.zeros((n, 4, 4))
    np.add.at(scatter, src, r[:, :, None] * r[:, None, :])
    q = np.linalg.eigh(scatter)[1].transpose(0, 2, 1)[:, ::-1]  # eigenvector rows, descending
    q[np.linalg.det(r[corner] @ q[:, :2].transpose(0, 2, 1)) < 0, 1] *= -1.0
    q[np.linalg.det(q) < 0, 3] *= -1.0
    frames = np.einsum("nfk,nkd->nfd", q[..., 0::2] + 1j * q[..., 1::2], basis)
    return FrameField(tangent=frames[:, :2], normal=frames[:, 2:])


# -- section meshes ----------------------------------------------------------------

def euclidean_point(rep) -> ProjectivePoint:
    """The point whose stored representative is rep scaled by
    ``np.linalg.norm(rep, axis=-1, keepdims=True)``, one row at a time: the
    reference for the rows ``_euclidean_units`` scales."""
    v = np.asarray(rep, dtype=complex).reshape(3)
    return _points_of_units([v / np.linalg.norm(v, axis=-1, keepdims=True)])[0]


def weighted_point(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """(1 - t) a + t b for two (3,) complex rows, part by part in Python
    floats: two rounded products and a sum each."""
    return np.array([complex((1.0 - t) * u.real + t * v.real, (1.0 - t) * u.imag + t * v.imag)
                     for u, v in zip(a.tolist(), b.tolist())])


def aligned_unit_pair(x: np.ndarray, y: np.ndarray):
    """Two negative (3,) rows scaled to <,> = -1, one pass each, y phase
    aligned so that <x, y> is real and negative, as a one-row stack."""
    xh, yh = _negative_units(x), _negative_units(y)
    return xh, _phase_align(xh[None], yh[None])[0]


def fan_spokes_two_passes(center: np.ndarray, corners: np.ndarray, n: int) -> np.ndarray:
    """The spokes of ``_fan_lattice`` (the points at weight i/n from the
    centre to each corner, Euclidean units) with the centre and the corners
    scaled to <,> = -1 in two passes: the reference for its one-pass
    scaling."""
    xh = _negative_units(center)
    yh = _phase_align(xh, _negative_units(corners))
    spokes = [[weighted_point(xh, y, i / n) for i in range(1, n + 1)] for y in yh]
    return _euclidean_units(np.array(spokes)).reshape(-1, 3)


def slerp_fan_vertices(center: np.ndarray, corners: np.ndarray, n: int, closed: bool) -> np.ndarray:
    """The vertices of ``_fan_lattice`` in its order with every lattice point
    at its arclength fraction (hyperbolic slerp, ``_geodesic_rows``): the
    point at i/n of the distance from the centre to each corner, then the
    point at j/i of the distance along row i between two spokes."""
    m = len(corners)
    sectors = m if closed else m - 1
    spokes = _euclidean_units(_geodesic_rows(center, corners[:, None], np.arange(1, n + 1) / n))
    i, j = (np.tile(a + 1, sectors) for a in np.tril_indices(n, -1))
    sec = np.repeat(np.arange(sectors), n * (n - 1) // 2)
    inner = _geodesic_rows(spokes[sec, i - 1], spokes[(sec + 1) % m, i - 1], j / i)
    return np.concatenate([center[None], spokes.reshape(-1, 3), _euclidean_units(inner)])


def octagon_corners_per_angle(kind: str):
    """The disc corners zs and the unscaled corner rows of ``octagon_mesh``,
    one corner angle at a time in libm scalars (``math``, ``cmath``)."""
    r1 = _octagon_circumradius()
    angles = [2.0 * math.pi * k / 8.0 + math.pi / 8.0 for k in range(8)]
    zs = np.array([math.tanh(r1 / 2.0) * cmath.exp(1j * a) for a in angles])
    corners = np.zeros((8, 3), dtype=complex)
    corners[:, 0] = 1.0
    if kind == "complex":
        corners[:, 1] = zs
    else:
        corners[:, 1:] = [(math.tanh(r1) * math.cos(a), math.tanh(r1) * math.sin(a)) for a in angles]
    return zs, corners


def so21_stack_by_arrays(alpha, beta) -> np.ndarray:
    """``_so21_stack`` with every entry formed from length-k arrays, as it
    was built before it took the pairs one at a time in Python floats, each
    matrix divided by its |alpha|^2 - |beta|^2."""
    ar, ai, br, bi = alpha.real, alpha.imag, beta.real, beta.imag
    a2, b2 = ar * ar - ai * ai, br * br - bi * bi
    rows = [
        [(ar * ar + ai * ai) + (br * br + bi * bi), 2.0 * (ar * br + ai * bi), 2.0 * (ar * bi - ai * br)],
        [2.0 * (ar * br - ai * bi), a2 + b2, 2.0 * (br * bi - ar * ai)],
        [2.0 * (ar * bi + ai * br), 2.0 * (ar * ai + br * bi), a2 - b2],
    ]
    m = np.moveaxis(np.array(rows), -1, 0)
    _check_isometries(m)
    return (m / ((ar * ar + ai * ai) - (br * br + bi * bi))[:, None, None]).astype(complex)


def mesh_json(mesh) -> dict:
    """A section mesh as chdisc/1 JSON numbers: every array it holds, the
    side pairings' runs and isometries included, for byte comparisons."""
    return {
        "cone_points": [[int(i), int(n)] for i, n in mesh.cone_points],
        "side_pairings": [
            {
                "isometry": _vector_json(p.isometry.matrix.reshape(9)),
                "run_a": [int(i) for i in p.run_a],
                "run_b": [int(i) for i in p.run_b],
            }
            for p in mesh.side_pairings
        ],
        "triangles": [[int(a), int(b), int(c)] for a, b, c in mesh.triangles],
        "vertices": [_vector_json(v) for v in mesh.vertices],
    }


def connection_totals_one_pass(tri: np.ndarray, frames: np.ndarray, taut: np.ndarray) -> list:
    """``_connection_totals`` with every face in one block: the reference for
    its face blocks."""
    fi = (frames * _SIGNS).view(float)[:, tri][..., None, :, :]
    fj = frames.view(float)[:, tri[:, [1, 2, 0]]][..., None, :]
    t = fi * fj
    t = t[..., 0::2] + t[..., 1::2]
    m = t[..., 0] + t[..., 1] + t[..., 2]
    holonomy = np.angle(np.exp(1j * _rotation_angle(m).sum(axis=-1)))
    return [float(row.sum() / (2.0 * np.pi)) for row in holonomy - taut]


def connection_total(tri: np.ndarray, frames: np.ndarray, taut: np.ndarray) -> float:
    """Total frame holonomy over the faces, minus the tautological phases, / 2 pi,
    for one (V, 2, 3) stack of frame pairs: the reference for each row of
    ``_connection_totals``.

    Along a directed face edge (i, j) the frames at i are transported by
    projection into x_j^perp (first-order Levi-Civita transport), which
    drops out of M[a, b] = Re <f_i[b], f_j[a]> since f_j is tangent at x_j.
    A face's holonomy is the wrapped sum of its three edge angles.
    """
    fi, fj = (frames[tri] * _SIGNS)[..., None, :, :], frames[tri[:, [1, 2, 0]]][..., None, :]
    # Re <f_i[b], f_j[a]> in real arithmetic, summed over d in einsum's order
    t = fi.real * fj.real + fi.imag * fj.imag
    m = t[..., 0] + t[..., 1] + t[..., 2]
    holonomy = np.angle(np.exp(1j * _rotation_angle(m).sum(axis=1)))
    return float((holonomy - taut).sum() / (2.0 * np.pi))


# -- bisectors one point at a time ----------------------------------------------

def bisector_frames(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The frames of ``_perpendicular_rows``' basis for the spines through the
    rows of x and y, one column at a time: s1 = x and s2 = y phase aligned
    to x, both scaled to <,> = -1, and the Euclidean-unit polar
    f = J conj(x cross s2) / |.| of the complex spine."""
    s2 = _phase_align(x, y)
    f = polar_rows(x, s2)
    f = f / np.linalg.norm(f, axis=-1, keepdims=True)
    return np.stack([_negative_units(x), _negative_units(s2), f], axis=-1)


def bisector_basis(b: Bisector) -> np.ndarray:
    """The 3x3 frame (s1, s2, f) of ``bisector_frames`` for one bisector."""
    return bisector_frames(b.spine.x.v, b.spine.y.v)


def spine_point(seg: BisectorSegment, t: float) -> ProjectivePoint:
    """Point at arclength fraction t in [0,1] along the spine, foot to foot."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("spine parameter must lie in [0, 1]")
    return geodesic_interp(seg.feet[0], seg.feet[1], t)


def slice_at(b: Bisector, x: ProjectivePoint) -> ComplexGeodesic:
    """The slice P(C x + C f) of the bisector through a spine point x, its
    polar J conj(x cross f) from numpy's cross product."""
    return ComplexGeodesic(ProjectivePoint(np.array([-1.0, 1.0, 1.0]) * np.conj(np.cross(x.v, b.polar_f.v))))


# -- the pairing kernels as reductions -------------------------------------------

def herm_rows_by_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise <x_i, y_i> as a length-3 ``sum`` of the signed products."""
    return (np.asarray(x, dtype=complex) * _SIGNS * np.conj(y)).sum(axis=-1)


def self_norms_by_blas(x: np.ndarray) -> np.ndarray:
    """<x_i, x_i> as the BLAS product |x|^2 @ (-1, 1, 1)."""
    x = np.asarray(x, dtype=complex)
    return (x.real ** 2 + x.imag ** 2) @ _SIGNS


# -- isometries one call at a time -----------------------------------------------

def checked_isometry(m) -> np.ndarray:
    """``Isometry.from_matrix`` for one matrix: the residual test on it alone
    (``check_residual``), then the det-1 lift from the scalar determinant."""
    return _unit_det(check_residual(m))


def check_residual(m) -> np.ndarray:
    """One matrix as a (3, 3) array, after ``_check_isometries``' residual
    test on it alone."""
    m = np.asarray(m).reshape(3, 3)
    r = float(np.abs(m.conj().T @ FORM_MATRIX @ m - FORM_MATRIX).max())
    if r > max(TOL.isometry, 1e-9 * float(np.abs(m).max()) ** 2):
        raise AssertionError(f"not an isometry (residual {r:g})")
    return m


def su11_det(alpha: complex, beta: complex) -> float:
    """|alpha|^2 - |beta|^2 in Python floats, (re re + im im) - (re re + im im)."""
    ar, ai, br, bi = (float(v) for v in (alpha.real, alpha.imag, beta.real, beta.imag))
    return (ar * ar + ai * ai) - (br * br + bi * bi)


def in_plane_frame(center: complex) -> OrthogonalFrame:
    """The frame (point, in-plane direction, polar) at a disc point that
    ``_in_plane_frames`` stacks, from ``ProjectivePoint`` objects."""
    b0 = ProjectivePoint([1.0, center, 0.0])
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    return OrthogonalFrame(b0, ProjectivePoint(e1 - (herm_form(e1, b0.v) / b0.self_form()) * b0.v), F0)


def disc_rotation_per_call(center: complex, angle: float):
    """The SU(1,1) coefficients (alpha, beta) of one rotation of
    ``_disc_rotations``, in complex scalars: alpha = (e - r conj(e)) / (1 - r)
    and beta = c (conj(e) - e) / (1 - r), with e = exp(i angle / 2) and
    r = |c|^2, e from ``cmath``."""
    c = complex(center)
    r = abs(c) ** 2
    e = cmath.exp(0.5j * float(angle))
    return (e - r * e.conjugate()) / (1.0 - r), c * (e.conjugate() - e) / (1.0 - r)


def su11_lift_per_call(alpha: complex, beta: complex) -> np.ndarray:
    """The C-Fuchsian matrix of one pair of SU(1,1) coefficients, as
    ``_su11_stack`` lifts it: checked, then scaled by the closed-form
    determinant's libm cube root."""
    m = check_residual(np.array([[np.conj(alpha), np.conj(beta), 0.0], [beta, alpha, 0.0], [0.0, 0.0, 1.0]],
                                dtype=complex))
    return m * su11_det(alpha, beta) ** (-1.0 / 3.0)


def disc_automorphism_per_call(z1: complex, z2: complex, w1: complex, w2: complex):
    """The SU(1,1) coefficients (alpha, beta) of one map of
    ``_disc_automorphisms`` in Python complex scalars and libm (``math``,
    ``cmath``), whatever scalar type the points come in."""
    z1, z2, w1, w2 = (complex(v) for v in (z1, z2, w1, w2))

    def scalar_mobius(a, z):
        return (z - a) / (1.0 - a.conjugate() * z)

    d1 = math.atanh(abs(scalar_mobius(z1, z2)))
    d2 = math.atanh(abs(scalar_mobius(w1, w2)))
    if abs(d1 - d2) > 1e-9 * max(1.0, d1):
        raise DegenerateError("point pairs are not equidistant")
    phi = cmath.phase(scalar_mobius(w1, w2)) - cmath.phase(scalar_mobius(z1, z2))

    # the product (nw, nw w1)(e, 0)(n1, -n1 z1) of SU(1,1) pairs, expanded
    n1 = 1.0 / math.sqrt(1.0 - abs(z1) ** 2)
    nw = 1.0 / math.sqrt(1.0 - abs(w1) ** 2)
    e = cmath.exp(1j * phi / 2.0)
    n = nw * n1
    return n * (e - w1 * z1.conjugate() * e.conjugate()), n * (w1 * e.conjugate() - e * z1)


def disc_isometry_per_call(z1: complex, z2: complex, w1: complex, w2: complex) -> np.ndarray:
    """The C-Fuchsian matrix of one map of ``_disc_automorphisms``, as
    ``_su11_stack`` lifts it."""
    return su11_lift_per_call(*disc_automorphism_per_call(z1, z2, w1, w2))


def real_plane_lift_per_call(alpha: complex, beta: complex) -> np.ndarray:
    """The R-Fuchsian matrix of one pair of SU(1,1) coefficients, as
    ``_so21_stack`` lifts it, in Python floats."""
    ar, ai, br, bi = (float(v) for v in (alpha.real, alpha.imag, beta.real, beta.imag))
    a2, b2 = ar * ar - ai * ai, br * br - bi * bi
    rows = [
        [(ar * ar + ai * ai) + (br * br + bi * bi), 2.0 * (ar * br + ai * bi), 2.0 * (ar * bi - ai * br)],
        [2.0 * (ar * br - ai * bi), a2 + b2, 2.0 * (br * bi - ar * ai)],
        [2.0 * (ar * bi + ai * br), 2.0 * (ar * ai + br * bi), a2 - b2],
    ]
    check_residual(np.array(rows))
    # its determinant is su11_det ** 3
    d = su11_det(alpha, beta)
    return np.array([[v / d for v in row] for row in rows], dtype=complex)


def real_frame(p: ProjectivePoint, q: ProjectivePoint) -> np.ndarray:
    """J-orthonormal real frame (point, tangent toward q, plane normal) of one pair."""
    ph = _negative_units(p.v)
    qh, c, d = _aligned_units(ph, _negative_units(q.v))
    ph, t = ph.real, (qh.real - c * ph.real) / np.sinh(d)
    nrm = polar_rows(ph, t).real
    return np.column_stack([ph, t, nrm / np.sqrt(self_norms_by_blas(nrm))])


def real_plane_isometry_per_pair(p0, p1, q0, q1) -> np.ndarray:
    """The O(2,1) isometry of the real plane with p0 -> q0 and p1 -> q1,
    for equidistant pairs, from two ``real_frame`` calls: the frame map,
    an independent reference for ``_so21_stack``."""
    return checked_isometry(real_frame(q0, q1) @ np.linalg.inv(real_frame(p0, p1)))


# -- certificate digests ---------------------------------------------------------

def polars_digest_per_component(polars) -> str:
    """``polars_digest`` as a loop over polars and their components."""
    rows = []
    for p in polars:
        v = p.v.copy()
        k = int(np.argmax(np.abs(v)))
        v = v * np.exp(-1j * np.angle(v[k]))
        rows.append(
            [[round(float(c.real), 12) + 0.0, round(float(c.imag), 12) + 0.0] for c in v]
        )
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- K3 stage by stage ------------------------------------------------------------
#
# ``adjacency_check`` and the kernels whose code its lean rewrite replaced, as
# they were before it: about ten stages of numpy calls, each check diagnosed
# on every call.  The reference for the certificate's bits and errors.

def _parallel_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``ProjectivePoint.is_parallel_to`` for Euclidean-unit rows."""
    return np.abs(np.abs((x * np.conj(y)).sum(axis=-1)) - 1.0) < 1e-9


def staged_perpendicular_rows(p: np.ndarray, q: np.ndarray, tol: Tolerances = TOL):
    """``_perpendicular_rows`` with every check formed for every pair."""
    pq = herm_rows(p, q)
    pp, qq = self_norms(p), self_norms(q)
    # a failing pair may divide by zero here; its check below raises
    with np.errstate(divide="ignore", invalid="ignore"):
        x = q - (np.conj(pq) / pp)[:, None] * p
        y = p - (pq / qq)[:, None] * q
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        y = y / np.linalg.norm(y, axis=1, keepdims=True)
        basis = bisector_frames(x, y)
    # one sign-class pass over p, q (the caller's null band) and x, y, the
    # spine polar (the default one)
    rows = np.concatenate([p, q, x, y, basis[..., 2]])
    band = np.repeat([tol.null_band, TOL.null_band], [2 * len(p), 3 * len(p)])
    cp, cq, cx, cy, cf = _sign_code(*_norms_and_squares(rows), band).reshape(5, -1)
    # per pair in this order: mutual position, feet, spine, spine polar
    checks = [
        (_parallel_rows(p, q), DegenerateError, "identical complex geodesics have no mutual position"),
        ((cp == 0) | (cq == 0), NullPointError, "tance is undefined for null points"),
        ((pq.real ** 2 + pq.imag ** 2) / (pp * qq) - 1.0 < tol.asymptotic,
         NotUltraparallelError, "common perpendicular needs ultraparallel geodesics"),
        ((cx != -1) | (cy != -1), ClassError, "feet of the common perpendicular are not negative points"),
        (_parallel_rows(x, y), DegenerateError, "a geodesic needs two distinct points"),
        (cf != 1, ClassError, "spine polar is not positive"),
    ]
    fails = np.array([c[0] for c in checks])
    if fails.any():
        _, error, message = checks[fails[:, fails.any(axis=0).argmax()].argmax()]
        raise error(message)
    return x, y, basis


#: The 8 equally spaced phases e^{i phi} of each ``staged_slice_samples`` ring.
_RING_PHASES = np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False))[:, None]


def staged_slice_samples(polars: np.ndarray, centers: np.ndarray, mid: np.ndarray, n: int, radius=1.0):
    """``_slice_samples`` with the rings' cosh r and sinh r e^{i phi} formed on
    every call from one radius or one radius per row."""
    f = polars / np.sqrt(self_norms(polars))[:, None]
    x = centers / np.sqrt(-self_norms(centers))[:, None]
    # the slice's tangent J conj(x cross f), phase fixed by mid aligned to x
    d = _phase_align(_phase_align(x, mid), polar_rows(x, f))
    d = d / np.sqrt(self_norms(d))[:, None]
    r = np.linspace(0.15, np.broadcast_to(radius, len(x)), max(max(n - 1, 1) // 8, 1), axis=1)
    r = r[:, :, None, None]
    rings = np.cosh(r) * x[:, None, None] + (np.sinh(r) * _RING_PHASES) * d[:, None, None]
    rings = rings.reshape(len(x), -1, 3)[:, : max(n - 1, 0)]
    pts = np.concatenate([x[:, None], rings], axis=1).reshape(-1, 3)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def staged_min_distances(x: np.ndarray, y: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """``min_distances`` with one masked minimum per k in a Python loop."""
    rows = np.concatenate([x, y], axis=-2)
    bad = (sign_classes(rows.reshape(-1, 3), tol) != -1).reshape(rows.shape[:-1]).any(axis=-1)
    # a failing k may divide by a zero norm here; its check below raises
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = tance_values(x, y)
        low = ta.min(axis=(-2, -1))
    out = []
    for k in range(len(ta)):
        if bad[k]:
            raise ClassError("distance requires two negative points")
        out.append(_distance_from_tance(ta[k][ta[k] <= low[k] * (1.0 + 1e-12)]).min())
    return np.array(out)


def staged_side_gradients(a: np.ndarray, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """``_side_gradients`` with one product per sample's directions (an
    (..., N, K, 3) by (..., 1, 3, 2) matmul) and each term formed as written."""
    at = np.swapaxes(a, -1, -2)
    c = (x @ at)[..., None, :]
    dc = dirs @ at[..., None, :, :]
    alpha, beta, da, db = c[..., 0], c[..., 1], dc[..., 0], dc[..., 1]
    n = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    p = (alpha * np.conj(beta)).imag
    dp = (da * np.conj(beta) + alpha * np.conj(db)).imag
    dn = 2.0 * (da * np.conj(alpha) + db * np.conj(beta)).real
    return (dp * n - p * dn) / n ** 2


#: Arclength fractions of the 8 spine points that sample each K3(c) segment.
_SPINE_T = np.linspace(0.0, 1.0, 8)

#: The ordered polar pairs (i, j), 0-based, of the K3 common perpendiculars.
_K3_PAIRS = np.array([(0, 1), (2, 1), (0, 3), (2, 3), (1, 3), (1, 2), (3, 2), (3, 0)])


def staged_k3_samples(q, tol: Tolerances = TOL):
    """The stages of ``staged_adjacency_check`` before its sub-checks:
    (basis, mid, samples), the 8 bisector frames of ``_K3_PAIRS``, (b)'s
    reference point and the 36 slice sample sets; None on coincident
    opposite vertices."""
    p1, p2, p3, p4 = q.polars
    if p1.is_parallel_to(p3) or p2.is_parallel_to(p4):
        return None
    polars = np.array([p.v for p in q.polars])
    x, y, basis = staged_perpendicular_rows(polars[_K3_PAIRS[:, 0]], polars[_K3_PAIRS[:, 1]], tol)
    seg = [0, 3, 5, 7]
    spine = _geodesic_rows(x[seg, None], y[seg, None], _SPINE_T)
    mid = _geodesic_rows(x[4], y[4], 0.5)  # (b)'s reference point, which fixes every ring direction
    # sets around the feet on C2, C4 (a) and C3 (b), then the segments' spine
    # points (c), whose slice polars J conj(x cross f) need no solve: the
    # points are slerps of the feet, on the spines by construction
    samples = staged_slice_samples(
        np.concatenate([polars[[1, 3, 2, 2]], polar_rows(spine, basis[seg][:, None, :, 2]).reshape(-1, 3)]),
        np.concatenate([y[[0, 2, 5, 6]], spine.reshape(-1, 3)]),
        mid,
        max(tol.k3_samples // 8, 4),
        np.repeat([1.0, 0.8, 1.5], [2, 2, 32]),
    ).reshape(36, -1, 3)
    return basis, mid, samples


def staged_side_rows(basis: np.ndarray) -> np.ndarray:
    """``_side_rows`` as the algebra reads: v = alpha s1 + beta s2 + gamma f
    with <s1,s1> = <s2,s2> = -1 and f orthogonal to both gives, times
    |r|^2 - 1 for r = <s2, s1>, alpha = <v, s1 + conj(r) s2> and
    beta = <v, r s1 + s2>, and <v, u> = v @ (J conj u)."""
    s1, s2 = basis[:, :, 0], basis[:, :, 1]
    r = herm_rows(s2, s1)[:, None]
    u = np.stack([s1 + np.conj(r) * s2, r * s1 + s2], axis=1)
    return np.conj(u) * _SIGNS


def side_rows_by_inverse(basis: np.ndarray) -> np.ndarray:
    """The first two rows of each frame's inverse, from LAPACK: the side
    coordinates (alpha, beta) that ``_side_rows`` gives up to a positive
    factor per frame."""
    return np.linalg.inv(basis)[:, :2]


def staged_shared_directions(polars: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """(w1, i w1, w2, i w2) at every sample s of K3(a)'s shared slices
    P(p^perp), p = C2, C4: w1 = J conj(s x p) and w2 = p, each scaled to
    <,> = 1, so the four are orthonormal for Re <,>."""
    p = polars[[1, 3], None]
    w1 = polar_rows(shared, p)
    w1 = w1 / np.sqrt(self_norms(w1))[..., None]
    w2 = np.broadcast_to(p / np.sqrt(self_norms(p))[..., None], w1.shape)
    return np.stack([w1, 1j * w1, w2, 1j * w2], axis=-2)


def _angles(norms_a, norms_b, cosines) -> np.ndarray:
    """The angle between two gradients from their norms and |cosine| numerator;
    0 where either norm is below 1e-12."""
    ok = (norms_a >= 1e-12) & (norms_b >= 1e-12)
    return np.where(ok, np.arccos(np.clip(cosines / np.where(ok, norms_a * norms_b, 1.0), 0.0, 1.0)), 0.0)


def staged_transversal_angles(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """The angle between two side gradients at each sample from their four
    coordinates in the orthonormal frame (w1, i w1, w2, i w2), each sum
    written out term by term."""
    na = np.sqrt(ga[..., 0] ** 2 + ga[..., 1] ** 2 + ga[..., 2] ** 2 + ga[..., 3] ** 2)
    nb = np.sqrt(gb[..., 0] ** 2 + gb[..., 1] ** 2 + gb[..., 2] ** 2 + gb[..., 3] ** 2)
    cos = ga[..., 0] * gb[..., 0] + ga[..., 1] * gb[..., 1] + ga[..., 2] * gb[..., 2] + ga[..., 3] * gb[..., 3]
    return _angles(na, nb, np.abs(cos))


def lifted_transversal_angles(ga: np.ndarray, gb: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """``staged_transversal_angles`` by the complex Gram: each gradient lifted
    into s^perp as sum_k g_k dirs_k, its norm sqrt <g, g> and the cosine
    Re <ga, gb>."""
    la, lb = (np.einsum("...nk,...nkc->...nc", g, dirs) for g in (ga, gb))
    return _angles(np.sqrt(self_norms(la)), np.sqrt(self_norms(lb)), np.abs(herm_rows(la, lb).real))


def staged_adjacency_check(q, tol: Tolerances = TOL) -> list:
    """``adjacency_check`` stage by stage, as it was before the lean kernels:
    the same sub-checks, margins and details, bit for bit."""
    staged = staged_k3_samples(q, tol)
    if staged is None:
        return [SubCheck("degenerate", False, -1.0, "coincident opposite vertices")]
    basis, mid, samples = staged
    coords = staged_side_rows(basis[:4])  # coords[k] @ v = (alpha, beta) of v, up to a positive factor

    # (a) tangent-hyperplane angles of B[C1,Ck] and B[C3,Ck] along the shared
    # slices P(p^perp), in the unit tangent basis (J conj(s x p), p) at each sample s
    dirs = staged_shared_directions(np.array([p.v for p in q.polars]), samples[:2])
    ga, gb = (staged_side_gradients(coords[rows], samples[:2], dirs) for rows in ([0, 2], [1, 3]))
    worst = staged_transversal_angles(ga, gb).min(axis=1).tolist()
    checks = [SubCheck(label, w >= tol.angle_floor, w - tol.angle_floor)
              for label, w in zip(("transversal_at_C2", "transversal_at_C4"), worst)]

    # (b) sector test: C3 on the inner side of both bisectors through C1, as
    # seen from an interior reference point of the quadrangle
    a = coords[[0, 2]]
    side_ref = _side_values(a @ mid)
    sides = np.sign(side_ref)[:, None] * _side_values(samples[2:4] @ np.swapaxes(a, -1, -2))
    labels = ("sector_B_C1C2", "sector_B_C1C4")
    for label, ref, w in zip(labels, side_ref.tolist(), sides.min(axis=1).tolist()):
        if abs(ref) <= tol.strict_margin:
            checks.append(SubCheck(label, False, abs(ref) - tol.strict_margin,
                                   f"degenerate reference: side {ref:+.3e} on the bisector"))
        else:
            checks.append(SubCheck(label, w > 0.0, w, f"reference side {ref:+.3e}"))

    # (c) non-adjacent segments stay separated
    segments = samples[4:].reshape(4, -1, 3)
    dmin = staged_min_distances(segments[[0, 2]], segments[[1, 3]], tol).tolist()
    for label, d in zip(("disjoint_B12_B34", "disjoint_B23_B41"), dmin):
        checks.append(SubCheck(label, d >= tol.sep_floor, d - tol.sep_floor))
    return checks


# -- the bend-0 turnover path one object at a time ---------------------------------

def tance_per_pair(x: ProjectivePoint, y: ProjectivePoint, tol: Tolerances = TOL) -> float:
    """ta(x, y) from ``classify`` and Python complex scalars: the one-pair
    reference for ``_tance_rows``."""
    if classify(x, tol) == NULL or classify(y, tol) == NULL:
        raise NullPointError("tance is undefined for null points")
    xy = herm_form(x.v, y.v)
    return float((xy * np.conj(xy)).real / (herm_form(x.v, x.v).real * herm_form(y.v, y.v).real))


def rotation_table_per_centre(center: complex, n: int, bend: float, tol: Tolerances = TOL):
    """The twisted rotations about one disc point and their inverses, from
    one frame: the reference for each centre of ``_rotation_table``."""
    g = _elliptic_rows(_in_plane_frames(center), _rotation_phases(n, np.arange(n), bend), tol)
    return g, _unit_det(_form_adjoint(g))


def word_product_chain(rep, word) -> Isometry:
    """A word's product as a chain of ``Isometry`` products from the identity:
    the reference for each row of ``Representation.word_products``."""
    m = Isometry.identity()
    for t in word.split():
        name = t[:-3] if t.endswith("^-1") else t
        g = rep.generators[name]
        m = m @ (g.inverse() if t != name else g)
    return m


def fixed_point_per_call(g: Isometry) -> ProjectivePoint:
    """The fixed point of one elliptic, its eigenvectors read one at a time:
    the reference for each row of ``_fixed_point_rows``."""
    _, vecs = np.linalg.eig(g.matrix)
    best, best_norm = None, 0.0
    for k in range(3):
        v = vecs[:, k]
        s = herm_form(v, v).real / float(np.linalg.norm(v)) ** 2
        if s < best_norm:
            best, best_norm = v, s
    if best is None or best_norm > -1e-10:
        raise ClassError("isometry has no negative eigenvector (not elliptic)")
    return ProjectivePoint(best)


def toledo_via_coning_per_generator(rep, fixed_points, tol: Tolerances = TOL) -> float:
    """``toledo_via_coning`` checking and mapping one fixed point at a time
    through ``Isometry.__call__`` and ``tance_per_pair``."""
    for name, g in rep.generators.items():
        x = fixed_points[name]
        if abs(tance_per_pair(g(x), x, tol) - 1.0) > tol.fixed_point:
            raise AssertionError(f"{name} does not fix its declared fixed point")
    x1, x2, x3 = (fixed_points[n] for n in ("g1", "g2", "g3"))
    x2m = rep.generators["g1"].inverse()(x2)
    return _toledo(_triple_products(np.array([x1.v, x2.v, x3.v, x2m.v]), [(0, 1, 2), (0, 2, 3)]))


def turnover_tail_per_object(sig, rep):
    """The tail of ``fuchsian_turnover`` from ``embed``, ``polar_span``,
    ``Isometry`` calls and ``tance_per_pair``: (fixed-point gap, C4 gap,
    the four polars)."""
    z1, z2, z3 = triangle_vertices(*sig.angles())
    c1, c2, c3 = embed(z1), embed(z2), embed(z3)
    g1, g2, g3 = (rep.generators[n] for n in ("g1", "g2", "g3"))
    fixed_gap = abs(tance_per_pair(g2(c2), c2) - 1.0)
    p1, p2, p3 = (polar_span(c, F0) for c in (c1, c2, c3))
    p4 = g1.inverse()(p2)
    return fixed_gap, abs(tance_per_pair(p4, g3(p2)) - 1.0), (p1, p2, p3, p4)


def stored_point(v: np.ndarray) -> ProjectivePoint:
    """The point of one stored representative, its bits kept when it is
    Euclidean-unit up to rounding: the reference for each polar that
    ``load_quadrangle`` reads."""
    p = ProjectivePoint(v)
    if abs(np.linalg.norm(v) - 1.0) <= 4 * np.finfo(float).eps:
        p.v = v
    return p
