"""Geodesics, complex geodesics, bisectors, segments, and slices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    POSITIVE,
    ProjectivePoint,
    _euclidean_units,
    classify,
    herm_rows,
    polar_rows,
    self_norms,
    tance,
)
from .errors import ClassError, DegenerateError, NotUltraparallelError
from .tolerances import TOL, Tolerances

ULTRAPARALLEL = "ultraparallel"
ASYMPTOTIC = "asymptotic"
CONCURRENT = "concurrent"


@dataclass(frozen=True)
class ComplexGeodesic:
    """A complex geodesic P(polar^perp), encoded by its positive polar."""

    polar: ProjectivePoint

    def __post_init__(self):
        if classify(self.polar) != POSITIVE:
            raise ClassError("the polar of a complex geodesic must be positive")


def position(c1: ComplexGeodesic, c2: ComplexGeodesic, tol: Tolerances = TOL) -> str:
    """Mutual position of two complex geodesics from the tance of their polars.

    ultraparallel / asymptotic / concurrent as the tance is > 1 / = 1 / < 1.
    """
    if c1.polar.is_parallel_to(c2.polar):
        raise DegenerateError("identical complex geodesics have no mutual position")
    ta = tance(c1.polar, c2.polar, tol)
    if abs(ta - 1.0) < tol.asymptotic:
        return ASYMPTOTIC
    return ULTRAPARALLEL if ta > 1.0 else CONCURRENT


def _phase_align(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rescale each row y_i by a unit scalar so that <x_i, y_i> is real and <= 0
    (unless |<x_i, y_i>| < 1e-15)."""
    p = herm_rows(x, y)
    a = np.abs(p)
    # 1e-15 and 1e-300 guard the division by |p|; they decide no verdict
    if np.count_nonzero(a < 1e-15):
        return y * np.where(a < 1e-15, 1.0, -p / np.maximum(a, 1e-300))[..., None]
    return y * (-p / a)[..., None]


def _negative_units(x: np.ndarray) -> np.ndarray:
    """The rows of a stack of negative points scaled to <,> = -1."""
    return x / np.sqrt(-self_norms(x))[..., None]


def _aligned_units(xh: np.ndarray, yh: np.ndarray):
    """(yh, c, d) for broadcasting stacks of negative points scaled to
    <,> = -1: yh phase aligned so that <xh, yh> = -c = -cosh d, and their
    distances d."""
    yh = _phase_align(xh, yh)
    c = -herm_rows(xh, yh).real
    return yh, c, np.arccosh(np.maximum(c, 1.0))


def _geodesic_rows(x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    """Points at arclength fractions t on the geodesics from x to y, over
    broadcasting (..., 3) stacks x, y and parameters t; x where d < 1e-15.

    Hyperbolic slerp: (x sinh((1-t)d) + y sinh(td)) / sinh d on the aligned pair.
    """
    return _slerp_units(x, _negative_units(x), _negative_units(y), t)


def _slerp_units(x: np.ndarray, xh: np.ndarray, yh: np.ndarray, t) -> np.ndarray:
    """``_geodesic_rows(x, y, t)`` from the rows xh, yh of x and y already
    scaled to <,> = -1 (``_negative_units``), so that a caller can scale a
    stack once and pair its rows in many ways."""
    yh, _, d = _aligned_units(xh, yh)
    d, t = d[..., None], np.asarray(t)[..., None]
    v = np.sinh((1.0 - t) * d) * xh + np.sinh(t * d) * yh
    same = d < 1e-15  # guards the division by sinh d; it decides no verdict
    if not np.count_nonzero(same):  # no coincident pair: nothing to divide around or replace
        return v / np.sinh(d)
    return np.where(same, x, v / np.where(same, 1.0, np.sinh(d)))


@dataclass(frozen=True)
class Geodesic:
    """A geodesic, stored as two spanning points with real pairing: the
    representative of ``y`` is phase-rotated so that <x, y> is real."""

    x: ProjectivePoint
    y: ProjectivePoint


def geodesic_interp(x: ProjectivePoint, y: ProjectivePoint, t: float) -> ProjectivePoint:
    """Point at arclength fraction t on the geodesic from x to y (see ``_geodesic_rows``).

    No library path calls it; bench/tracer.py wraps it by this name."""
    return ProjectivePoint(_geodesic_rows(x.v, y.v, t))


@dataclass(frozen=True)
class Bisector:
    """A bisector: real spine, unit polar f, complex spine P(f^perp)."""

    spine: Geodesic
    polar_f: ProjectivePoint
    complex_spine: ComplexGeodesic


@dataclass(frozen=True)
class BisectorSegment:
    """Segment of bisector B[C1, C2] between two ultraparallel complex geodesics."""

    bisector: Bisector
    feet: tuple[ProjectivePoint, ProjectivePoint]
    end_slices: tuple[ComplexGeodesic, ComplexGeodesic]


def _perpendicular_rows(p: np.ndarray, q: np.ndarray):
    """(feet, basis): common perpendiculars of P(p_i^perp) and P(q_i^perp) over
    (K,3) stacks of Euclidean-unit polars of ultraparallel pairs.

    feet is the (2, K, 3) stack of the feet x = q - (<q,p>/<p,p>) p on
    P(p^perp) and y = p - (<p,q>/<q,q>) q, Euclidean-unit, y not phase
    aligned with x.  basis is the (K, 3, 3) stack of the bisector frames
    with columns (s1, s2, f): s1 = x and s2 = y phase aligned to x, both
    scaled to <,> = -1 so that a point's side function (``quadrangle``)
    does not depend on the representatives of x and y, and the
    Euclidean-unit polar f = J conj(x cross s2) / |.| of the complex spine.

    Nothing is checked: the caller has found every pair ultraparallel
    (tance > 1, K1's test), and for such a pair the feet are distinct
    negative points and the spine polar is positive (Goldman, Complex
    Hyperbolic Geometry, 1999).
    """
    k = len(p)
    rows = np.empty((5, k, 3), dtype=complex)  # p, q, x, s2, y
    rows[0], rows[1] = p, q
    pq = herm_rows(p, q)
    coef = np.empty((2, k), dtype=complex)
    coef[0], coef[1] = np.conj(pq), pq
    coef /= self_norms(rows[:2])
    feet = rows[2:5:2]
    # x = q - (<q,p>/<p,p>) p and y = p - (<p,q>/<q,q>) q, both in one pass
    feet[...] = _euclidean_units(rows[1::-1] - coef[..., None] * rows[:2])
    rows[3] = _phase_align(rows[2], rows[4])
    basis = np.empty((k, 3, 3), dtype=complex)
    cols = basis.transpose(2, 0, 1)
    cols[2] = _euclidean_units(polar_rows(rows[2], rows[3]))
    np.divide(rows[2:4], np.sqrt(-self_norms(rows[2:4]))[..., None], out=cols[:2])
    return feet, basis


def common_perpendicular(
    c1: ComplexGeodesic, c2: ComplexGeodesic, tol: Tolerances = TOL
) -> BisectorSegment:
    """The segment B[C1,C2] along the unique common perpendicular geodesic.

    Raises the error of ``position`` (identical geodesics, null polars), or
    ``NotUltraparallelError`` unless it calls the pair ultraparallel; then
    one pair of ``_perpendicular_rows``: feet[0] lies on C1, feet[1] on C2,
    and the spine runs from feet[0] to feet[1] phase aligned.  No library
    path calls it (K3 uses the rows directly); bench/tracer.py wraps it by
    this name.
    """
    if position(c1, c2, tol) != ULTRAPARALLEL:
        raise NotUltraparallelError("common perpendicular needs ultraparallel geodesics")
    (x, y), basis = _perpendicular_rows(c1.polar.v[None], c2.polar.v[None])
    f1, f2, s2, fu = (ProjectivePoint(v) for v in (x[0], y[0], basis[0, :, 1], basis[0, :, 2]))
    bis = Bisector(spine=Geodesic(f1, s2), polar_f=fu, complex_spine=ComplexGeodesic(fu))
    return BisectorSegment(bisector=bis, feet=(f1, f2), end_slices=(c1, c2))

