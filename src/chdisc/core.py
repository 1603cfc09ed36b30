"""Hermitian form of signature (-,+,+), projective points, and isometries.

The whole library works in the projective model: a point of the complex
hyperbolic plane is a complex 3-vector of negative square norm up to scale,
where the square norm comes from the fixed Hermitian form

    <x, y> = -x0 conj(y0) + x1 conj(y1) + x2 conj(y2),

linear in the first slot and conjugate-linear in the second.  Holomorphic
isometries are 3x3 complex matrices preserving the form, stored as
determinant-1 lifts; projective equality of isometries is equality up to a
cube root of unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassError,
    DegenerateError,
    FrameError,
    NullPointError,
    ZeroVectorError,
)
from .tolerances import TOL, Tolerances

#: The form matrix J = diag(-1, +1, +1), fixed for the whole artifact.
FORM_MATRIX = np.diag([-1.0, 1.0, 1.0])

_SIGNS = np.array([-1.0, 1.0, 1.0])
_CUBE_ROOTS = np.exp(2j * np.pi * np.arange(3) / 3)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
_SEEDS = np.eye(3, dtype=complex)


def herm_form(x, y) -> complex:
    """Hermitian pairing <x, y> of two complex 3-vectors.

    Linear in ``x``, conjugate-linear in ``y``; ``herm_form(y, x)`` is the
    complex conjugate of ``herm_form(x, y)``.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return complex(np.dot(_SIGNS * x, np.conj(y)))


def _self_norm(x) -> float:
    # <x,x> is real for any x.
    return herm_form(x, x).real


NEGATIVE = "negative"
NULL = "null"
POSITIVE = "positive"


class ProjectivePoint:
    """A nonzero complex 3-vector up to scale.

    The stored representative is rescaled to Euclidean norm 1 on
    construction, so chained computations never drift toward overflow.
    Everything observable (sign class, tances, distances) is independent of
    the representative.
    """

    __slots__ = ("v",)

    def __init__(self, rep):
        v = np.asarray(rep, dtype=complex).reshape(3)
        n = float(np.linalg.norm(v))
        if n == 0.0 or not np.isfinite(n):
            raise ZeroVectorError("projective point needs a nonzero finite representative")
        self.v = v / n

    def herm_with(self, other: "ProjectivePoint") -> complex:
        return herm_form(self.v, other.v)

    def self_form(self) -> float:
        return _self_norm(self.v)

    def is_parallel_to(self, other: "ProjectivePoint", tol: float = 1e-9) -> bool:
        # |<v, w>_euclid| == |v||w| iff parallel; representatives are unit.
        return abs(abs(np.vdot(other.v, self.v)) - 1.0) < tol

    def __repr__(self):
        return f"ProjectivePoint({np.array2string(self.v, precision=6)})"


def classify(x: ProjectivePoint, tol: Tolerances = TOL) -> str:
    """Sign class of <x,x>: negative points are the points of H^2_C.

    The zero band is scale invariant: |<x,x>| < null_band * ||x||^2.
    """
    return _CLASS_NAMES[_sign_code(x.self_form(), float(np.linalg.norm(x.v)) ** 2, tol.null_band)]


def tance(x: ProjectivePoint, y: ProjectivePoint, tol: Tolerances = TOL) -> float:
    """ta(x,y) = <x,y><y,x> / (<x,x><y,y>), defined for non-null points.

    Scale invariant and isometry invariant; equals cosh^2 of the distance
    for a pair of negative points.
    """
    if classify(x, tol) == NULL or classify(y, tol) == NULL:
        raise NullPointError("tance is undefined for null points")
    xy = x.herm_with(y)
    return float((xy * np.conj(xy)).real / (x.self_form() * y.self_form()))


def distance(x: ProjectivePoint, y: ProjectivePoint, tol: Tolerances = TOL) -> float:
    """Hyperbolic distance arccosh(sqrt(ta(x,y))) between negative points."""
    for p in (x, y):
        if classify(p, tol) != NEGATIVE:
            raise ClassError("distance requires two negative points")
    return float(_distance_from_tance(tance(x, y, tol)))


class GeometryDomainError(ClassError):
    """tance fell below 1 for a pair of supposedly negative points."""


# --- array kernels on (N,3) complex stacks ----------------------------------
#
# The scalar functions above and the kernels below share their thresholds
# through ``_sign_code`` and ``_distance_from_tance``.

_CLASS_NAMES = {-1: NEGATIVE, 0: NULL, 1: POSITIVE}
#: tance may undershoot 1 by this much for a pair of negative points.
_TANCE_FLOOR_SLACK = 1e-9


def _sign_code(s, sq, null_band):
    """-1 / 0 / +1 for a negative / null / positive self form ``s`` of a
    vector with squared Euclidean norm ``sq``; elementwise on arrays, and
    ``null_band`` may be one value per element."""
    return (abs(s) >= null_band * sq) * ((s > 0) * 2 - 1)


def _distance_from_tance(ta):
    """arccosh(sqrt(ta)) for tances of negative pairs, elementwise."""
    if np.any(ta < 1.0 - _TANCE_FLOOR_SLACK):
        raise GeometryDomainError(
            f"tance {np.min(ta)} below 1 beyond numerical noise"
        )
    return np.arccosh(np.sqrt(np.maximum(ta, 1.0)))


def gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix G[..., i, j] = <x_i, y_j> = (X J Y^H)[i, j] of two
    stacks, or of matching stacks of stacks."""
    y = np.asarray(y, dtype=complex)
    return (np.asarray(x, dtype=complex) * _SIGNS) @ np.swapaxes(y.conj(), -1, -2)


def herm_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise pairings <x_i, y_i> of two stacks of equal shape."""
    return (np.asarray(x, dtype=complex) * _SIGNS * np.conj(y)).sum(axis=-1)


def dot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x_i . y_i (no conjugation) over matching ``(..., n)`` stacks.

    matmul's vector-vector path runs np.dot's BLAS kernel, so each row has
    the bits of the scalar ``np.dot``; ``einsum`` and ``sum`` do not.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def self_norms(x: np.ndarray) -> np.ndarray:
    """<x_i, x_i> for every row of an (N,3) stack; real."""
    x = np.asarray(x, dtype=complex)
    return (x.real ** 2 + x.imag ** 2) @ _SIGNS


def sign_classes(x: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Batch ``classify``: -1 / 0 / +1 per row for negative / null / positive."""
    x = np.asarray(x, dtype=complex)
    return _sign_code(self_norms(x), (x.real ** 2 + x.imag ** 2).sum(axis=1), tol.null_band)


def distance_matrix(x: np.ndarray, y: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """D[i, j] = distance(x_i, y_j) between two stacks of negative points.

    Raises ``ClassError`` unless every row is negative, and
    ``GeometryDomainError`` when a tance falls below 1 beyond noise.
    """
    if (sign_classes(x, tol) != -1).any() or (sign_classes(y, tol) != -1).any():
        raise ClassError("distance requires two negative points")
    return _distance_from_tance(_tance_values(x, y))


def min_distances(x: np.ndarray, y: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """``distance_matrix(x[k], y[k], tol).min()`` for every k of two (K, N, 3)
    stacks, bit for bit, and the error of the first failing k.

    arccosh(sqrt(.)) is taken only of the tances within a relative 1e-12 of
    each minimum tance: libm's few-ulp error cannot reorder entries further
    apart than that, so the minimum distance keeps its bits.
    """
    rows = np.concatenate([x, y], axis=-2)
    bad = (sign_classes(rows.reshape(-1, 3), tol) != -1).reshape(rows.shape[:-1]).any(axis=-1)
    # a failing k may divide by a zero norm here; its check below raises
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = _tance_values(x, y)
        low = ta.min(axis=(-2, -1))
    out = []
    for k in range(len(ta)):
        if bad[k]:
            raise ClassError("distance requires two negative points")
        out.append(_distance_from_tance(ta[k][ta[k] <= low[k] * (1.0 + 1e-12)]).min())
    return np.array(out)


def _tance_values(x, y):
    g = gram(x, y)
    return (g.real ** 2 + g.imag ** 2) / (self_norms(x)[..., :, None] * self_norms(y)[..., None, :])


def _unitary_tangent_basis(x: np.ndarray) -> np.ndarray:
    """A <,>-unitary basis (w1, w2) of x_i^perp for each negative row x_i.

    Gram-Schmidt over the coordinate vectors e0, e1, e2 in that order,
    skipping a seed whose remainder has form norm <= 1e-12: e0 at the
    origin, e1 on the complex line x2 = 0 (where e2 takes its slot).
    Returns an (N, 2, 3) stack; raises ``ClassError`` if a row is not
    negative.  Every step runs on whole columns and picks each row's seeds
    with ``np.where``.  A row gets the bits of a masked loop over the seeds
    that projects each remainder against both slots, filled or empty: a
    remainder s - c x has no negative zero (negating c x and adding 1 in
    column k alone would make some), so an empty slot changes nothing.
    """
    q = self_norms(x)
    bad = np.flatnonzero(q >= 0)
    if bad.size:
        raise ClassError(f"row {bad[0]} is not a negative point")
    xs = x / np.sqrt(-q)[:, None]
    nx = self_norms(xs)
    w0, w1 = _seed_remainder(xs, nx, 0), _seed_remainder(xs, nx, 1)
    # slot 0: e0, or e1 where e0 is skipped
    skip0 = self_norms(w0) <= 1e-12
    u = _unit_rows(np.where(skip0[:, None], w1, w0))
    nu = self_norms(u)
    # slot 1: the next seed with a remainder against slot 0
    v = w1 - (herm_rows(w1, u) / nu)[:, None] * u
    short = skip0 | (self_norms(v) <= 1e-12)
    if short.any():
        w2 = _seed_remainder(xs, nx, 2)
        v = np.where(short[:, None], w2 - (herm_rows(w2, u) / nu)[:, None] * u, v)
    return np.stack([u, _unit_rows(v)], axis=1)


def _seed_remainder(xs: np.ndarray, nx: np.ndarray, k: int) -> np.ndarray:
    # e_k - (<e_k, xs>/<xs, xs>) xs, with <e_k, xs> = sign_k conj(xs[:, k])
    return _SEEDS[k] - (_SIGNS[k] * xs[:, k].conj() / nx)[:, None] * xs


def _unit_rows(w: np.ndarray) -> np.ndarray:
    return w / np.sqrt(self_norms(w))[:, None]


def polar_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``polar_span``, unnormalized: J conj(x_i cross y_i) over (..., 3) stacks."""
    # np.cross's own formula, without its axis handling (it dominates a 3-vector call)
    c = np.take(x, _NEXT, -1) * np.take(y, _PREV, -1) - np.take(x, _PREV, -1) * np.take(y, _NEXT, -1)
    return _SIGNS * np.conj(c)


def polar_span(x: ProjectivePoint, y: ProjectivePoint) -> ProjectivePoint:
    """The point orthogonal to both x and y: z = J conj(x cross y).

    The complex projective line through x and y is P(z^perp).
    """
    z = polar_rows(x.v, y.v)
    if np.linalg.norm(z) < 1e-12:
        raise DegenerateError("polar_span needs projectively distinct points")
    return ProjectivePoint(z)


@dataclass(frozen=True)
class Isometry:
    """A determinant-1 lift of a holomorphic isometry of H^2_C."""

    matrix: np.ndarray

    @staticmethod
    def from_matrix(m, tol: Tolerances = TOL, check: bool = True) -> "Isometry":
        m = np.asarray(m, dtype=complex).reshape(3, 3)
        if check:
            r = isometry_residual(m)
            if r > max(tol.isometry, 1e-9 * float(np.abs(m).max()) ** 2):
                raise FrameError(f"matrix is not an isometry of the form (residual {r:g})")
        return Isometry(matrix=_unit_det(m))

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(matrix=np.eye(3, dtype=complex))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry.from_matrix(self.matrix @ other.matrix, check=False)

    def inverse(self) -> "Isometry":
        # form-preserving inverse: M^-1 = J M* J
        return Isometry.from_matrix(
            FORM_MATRIX @ self.matrix.conj().T @ FORM_MATRIX, check=False
        )

    def apply(self, x: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(self.matrix @ x.v)

    def __call__(self, x: ProjectivePoint) -> ProjectivePoint:
        return self.apply(x)


def _unit_det(m: np.ndarray) -> np.ndarray:
    # principal cube root keeps the normalization deterministic; m may be a
    # (..., 3, 3) stack
    return m * (np.linalg.det(m) ** (-1.0 / 3.0))[..., None, None]


def isometry_residual(m) -> float:
    """max-norm of M* J M - J; zero exactly on U(2,1)."""
    m = np.asarray(m, dtype=complex).reshape(3, 3)
    return float(np.abs(m.conj().T @ FORM_MATRIX @ m - FORM_MATRIX).max())


@dataclass(frozen=True)
class OrthogonalFrame:
    """A form-orthogonal frame (negative, positive, positive).

    Eigenbasis carrier for elliptic isometries; the vectors need not be
    unit, only pairwise orthogonal with the right sign classes.
    """

    b0: ProjectivePoint
    b1: ProjectivePoint
    b2: ProjectivePoint

    def validate(self, tol: Tolerances = TOL) -> None:
        pts = (self.b0, self.b1, self.b2)
        want = (NEGATIVE, POSITIVE, POSITIVE)
        for p, w in zip(pts, want):
            if classify(p, tol) != w:
                raise FrameError(f"frame vector has class {classify(p, tol)}, wanted {w}")
        for i in range(3):
            for j in range(i + 1, 3):
                r = abs(pts[i].herm_with(pts[j]))
                if r > tol.orthogonality:
                    raise FrameError(f"frame vectors {i},{j} not orthogonal (|<,>|={r:g})")

    def vectors(self):
        return self.b0.v, self.b1.v, self.b2.v


def _projector(b: np.ndarray) -> np.ndarray:
    # form-orthogonal projection onto C b:  P(x) = (<x,b>/<b,b>) b
    return np.outer(b, _SIGNS * np.conj(b)) / _self_norm(b)


def _elliptic_stack(frame: OrthogonalFrame, phases, tol: Tolerances = TOL) -> np.ndarray:
    """Det-1 matrices of the elliptics with eigenvectors ``frame``, one per row
    of a ``(k, 3)`` stack of unit eigenvalues ``phases``.

    Row i is ``phases[i, 0] P_0 + phases[i, 1] P_1 + phases[i, 2] P_2``,
    summed from 0 as ``sum`` does, with ``P_j`` the form-orthogonal
    projection onto the j-th frame vector.  The frame is validated once;
    raises ``FrameError`` on a non-unit phase or for the first row that is
    not an isometry of the form.
    """
    frame.validate(tol)
    phases = np.asarray(phases, dtype=complex).reshape(-1, 3)
    if np.abs(np.abs(phases) - 1.0).max() > 1e-12:
        raise FrameError("eigenphases must have unit modulus")
    m = 0
    for mu, b in zip(phases.T, frame.vectors()):
        m = m + mu[:, None, None] * _projector(b)
    r = np.abs(m.conj().swapaxes(-1, -2) @ FORM_MATRIX @ m - FORM_MATRIX).max(axis=(-2, -1))
    bad = np.flatnonzero(r > np.maximum(tol.isometry, 1e-9 * np.abs(m).max(axis=(-2, -1)) ** 2))
    if bad.size:
        raise FrameError(f"matrix is not an isometry of the form (residual {r[bad[0]]:g})")
    return _unit_det(m)


def elliptic_from_frame(frame: OrthogonalFrame, phases, tol: Tolerances = TOL) -> Isometry:
    """Elliptic isometry with eigenvectors ``frame`` and unit eigenvalues ``phases``.

    ``M = sum_k phases[k] * P_k`` with ``P_k`` the form-orthogonal projection
    onto the k-th frame vector; the result is determinant-normalized.  The
    one-row case of ``_elliptic_stack``.
    """
    phases = np.asarray(phases, dtype=complex).reshape(1, 3)
    return Isometry(matrix=_elliptic_stack(frame, phases, tol)[0])


def reflection_about(p: ProjectivePoint, tol: Tolerances = TOL) -> Isometry:
    """The involution x -> -x + 2 <x,p>/<p,p> p.

    A reflection at the point p when p is negative; a reflection in the
    complex geodesic P(p^perp) when p is positive.
    """
    if classify(p, tol) == NULL:
        raise NullPointError("reflection needs a non-null point")
    m = -np.eye(3, dtype=complex) + 2.0 * _projector(p.v)
    return Isometry.from_matrix(m, tol)
