"""One-point reference implementations that no package code calls.

Each function here is an independent, one-point-at-a-time path to a value
the package computes another way (closed forms, batched kernels), or a
plain reader of a coordinate the tests check.  None of them is reached by
the command line, the demos or the benchmark.
"""

from __future__ import annotations

import numpy as np

from chdisc.core import _CUBE_ROOTS, Isometry, ProjectivePoint, herm_rows, self_norms
from chdisc.disc import disc_distance, mobius
from chdisc.errors import DegenerateError
from chdisc.geometry import (
    Bisector,
    BisectorSegment,
    ComplexGeodesic,
    _bisector_basis,
    _slice_polars,
    geodesic_interp,
)
from chdisc.invariants import _gl_nodes
from chdisc.tolerances import TOL, Tolerances


# -- isometries ----------------------------------------------------------------

def projective_distance(g: Isometry, h: Isometry) -> float:
    """min over cube roots of unity w of max-norm of (g - w*h)."""
    return min(float(np.abs(g.matrix - w * h.matrix).max()) for w in _CUBE_ROOTS)


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


# -- bisectors one point at a time ----------------------------------------------

def bisector_basis(b: Bisector) -> np.ndarray:
    """The 3x3 frame (s1, s2, f) of ``_bisector_basis`` for one bisector."""
    return _bisector_basis(b.spine.x.v, b.spine.y.v)


def spine_point(seg: BisectorSegment, t: float) -> ProjectivePoint:
    """Point at arclength fraction t in [0,1] along the spine, foot to foot."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("spine parameter must lie in [0, 1]")
    return geodesic_interp(seg.feet[0], seg.feet[1], t)


def slice_at(b: Bisector, x: ProjectivePoint, tol: Tolerances = TOL) -> ComplexGeodesic:
    """The slice P(C x + C f) of the bisector through a spine point x."""
    return ComplexGeodesic(ProjectivePoint(_slice_polars(bisector_basis(b), x.v[None], tol)[0]))


# -- tangent bases ---------------------------------------------------------------

def masked_tangent_basis(x: np.ndarray) -> np.ndarray:
    """``_unitary_tangent_basis`` as a masked loop over the seeds e0, e1, e2:
    each pass runs only on the rows still short of a basis vector, and a
    seed is skipped where its remainder has form norm <= 1e-12."""
    signs = np.array([-1.0, 1.0, 1.0])
    xs = x / np.sqrt(-self_norms(x))[:, None]
    nx = self_norms(xs)
    out = np.zeros((len(xs), 2, 3), dtype=complex)
    found = np.zeros(len(xs), dtype=int)
    for k, s in enumerate(np.eye(3, dtype=complex)):
        i = np.flatnonzero(found < 2)
        if not i.size:
            break
        w = s - (signs[k] * xs[i, k].conj() / nx[i])[:, None] * xs[i]
        for j in range(min(k, 2)):  # slot j is empty until seed j
            prev = out[i, j]
            pp = np.where(found[i] > j, self_norms(prev), 1.0)
            w = w - (herm_rows(w, prev) / pp)[:, None] * prev
        n = self_norms(w)
        take = n > 1e-12
        t = i[take]
        out[t, found[t]] = w[take] / np.sqrt(n[take])[:, None]
        found[t] += 1
    return out
