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
_FORM_SIGNS = np.outer(_SIGNS, _SIGNS)
_CUBE_ROOTS = np.exp(2j * np.pi * np.arange(3) / 3)
_NEXT_PREV, _PREV_NEXT = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])
_SEEDS = np.eye(3, dtype=complex)
#: Two Euclidean-unit representatives span one point (one complex geodesic,
#: for polars) when | |x . conj(y)| - 1 | falls below this
#: (``ProjectivePoint.is_parallel_to``).  It decides the DegenerateError
#: verdicts on identical geodesics.
_PARALLEL = 1e-9


def herm_form(x, y) -> complex:
    """Hermitian pairing <x, y> of two complex 3-vectors.

    Linear in ``x``, conjugate-linear in ``y``; ``herm_form(y, x)`` is the
    complex conjugate of ``herm_form(x, y)``.  The one-row case of
    ``_form_pairs``.
    """
    return complex(_form_pairs(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)))


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

    def self_form(self) -> float:
        return herm_form(self.v, self.v).real  # <x,x> is real for any x

    def is_parallel_to(self, other: "ProjectivePoint", tol: float = _PARALLEL) -> bool:
        """Whether both span one point: | |x . conj(y)| - 1 | < tol for the
        Euclidean-unit representatives x and y."""
        return bool(abs(abs(np.multiply(self.v, np.conj(other.v)).sum()) - 1.0) < tol)


def classify(x: ProjectivePoint, tol: Tolerances = TOL) -> str:
    """Sign class of <x,x>: negative points are the points of H^2_C.

    The zero band is scale invariant: |<x,x>| < null_band * ||x||^2.  The
    one-row case of ``sign_classes``.
    """
    return _CLASS_NAMES[int(sign_classes(x.v[None], tol)[0])]


def tance(x: ProjectivePoint, y: ProjectivePoint, tol: Tolerances = TOL) -> float:
    """ta(x,y) = <x,y><y,x> / (<x,x><y,y>), defined for non-null points.

    Scale invariant and isometry invariant; equals cosh^2 of the distance
    for a pair of negative points.  The one-pair case of ``_tance_rows``.
    """
    return float(_tance_rows(x.v[None], y.v[None], tol)[0])


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
# The scalar functions above are one-row cases of the kernels below, so each
# verdict has one formula: every sign class is ``_sign_code`` on
# ``_norms_and_squares``, and every parallel test ``is_parallel_to``.

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
    return (np.asarray(x, dtype=complex) * _SIGNS) @ y.conj().swapaxes(-1, -2)


def _signed(q: np.ndarray) -> np.ndarray:
    """-q0 + q1 + q2 over the last axis, as ``(q1 - q0) + q2``.

    The form's signed sum in one fixed order, with no BLAS call and no
    reduction: a (3,) vector and every row of a stack get the same bits on
    any machine.  It is the order numpy's ``sum`` over a length-3 axis
    takes, and OpenBLAS's SkylakeX kernels for ``@ _SIGNS``.
    """
    return (q[..., 1] - q[..., 0]) + q[..., 2]


def herm_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise pairings <x_i, y_i> of two stacks of broadcasting shapes.

    ``np.multiply`` keeps x on the left: the ``*`` operator may reuse a
    large temporary on the right and swap the factors, and a complex
    product's last bits depend on their order.
    """
    return _signed(np.multiply(np.asarray(x, dtype=complex), np.conj(y)))


def dot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x_i . y_i (no conjugation) over matching ``(..., n)`` stacks.

    matmul's vector-vector path runs np.dot's BLAS kernel, so each row has
    the bits of the scalar ``np.dot``; ``einsum`` and ``sum`` do not.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _form_pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise pairings <x_i, y_i> over (..., 3) stacks through np.dot's
    BLAS kernel (``dot_rows``); ``herm_form`` is its one-row case."""
    return dot_rows(_SIGNS * x, np.conj(y))


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a (..., 3) complex stack, bit for bit:
    the np.dot of its real parts plus that of its imaginary parts."""
    return np.sqrt(dot_rows(v.real, v.real) + dot_rows(v.imag, v.imag))


def _unit_reps(v: np.ndarray) -> np.ndarray:
    """The rows of a (..., 3) stack scaled to Euclidean norm 1 as
    ``ProjectivePoint`` scales its representative."""
    return v / _norms(v)[..., None]


def _points_of_units(rows) -> tuple:
    """The ``ProjectivePoint`` of each row of a (k, 3) stack of representatives
    already scaled as ``ProjectivePoint`` scales them (``_unit_reps``), kept
    as they are: scaling a unit row again can move its last bit."""
    points = []
    for row in rows:
        p = ProjectivePoint.__new__(ProjectivePoint)
        p.v = row
        points.append(p)
    return tuple(points)


def _tance_rows(x: np.ndarray, y: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Row-wise ``tance`` of the points with representatives x_i and y_i, two
    (k, 3) stacks; raises ``NullPointError`` if a row of either is null
    (``sign_classes``), else returns their ``_pair_tances``."""
    if (sign_classes(np.concatenate([x, y]), tol) == 0).any():
        raise NullPointError("tance is undefined for null points")
    return _pair_tances(x, y)


def _pair_tances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_tance_rows`` unchecked, with the bits of K1's table: ``_form_pairs``'
    pairings, and |<x,y>|^2 as re*re + im*im, as the complex scalar
    <x,y> conj(<x,y>) rounds it (no FMA).  Swapping x and y keeps every bit:
    ``_form_pairs(y, x)`` is ``_form_pairs(x, y)``'s conjugate."""
    nx, ny, xy = _form_pairs(np.array([x, y, x]), np.array([x, y, y]))
    return (xy.real * xy.real + xy.imag * xy.imag) / (nx.real * ny.real)


def _euclidean_units(x: np.ndarray) -> np.ndarray:
    """x / np.linalg.norm(x, axis=-1, keepdims=True) over a (..., 3) stack:
    that function's own formula, bit for bit, without its argument handling
    or its reduction (numpy sums a length-3 axis left to right)."""
    q = (x.conj() * x).real
    return x / np.sqrt((q[..., 0:1] + q[..., 1:2]) + q[..., 2:3])


def _py_quotients(a, b):
    """Elementwise a / b as CPython divides complex numbers (Smith's method).

    numpy's complex division multiplies by a reciprocal, so its last bits
    differ from the Python ``complex`` quotient of the scalar path.  Where
    |b.imag| > |b.real| (or b has a NaN part) CPython takes its other
    branch; that branch is this one applied to a * -i and b * -i, whose
    parts are those of a and b swapped and negated, so both give the same
    bits.  A real ``b`` divides as CPython divides a complex by a float.
    """
    if not np.iscomplexobj(b):
        # CPython divides by complex(b, 0.0): the branch below with bi = 0
        r = 0.0 / b
        d = b + 0.0 * r
        out = np.empty(np.broadcast(a, b).shape, dtype=complex)
        out.real = (a.real + a.imag * r) / d
        out.imag = (a.imag - a.real * r) / d
        return out
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    if not by_real.all():
        ar, ai = np.where(by_real, ar, ai), np.where(by_real, ai, -ar)
        br, bi = np.where(by_real, br, bi), np.where(by_real, bi, -br)
    r = bi / br
    d = br + bi * r
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = (ar + ai * r) / d
    out.imag = (ai - ar * r) / d
    return out


def _py_products(a, b):
    """Elementwise a * b as Python and numpy complex scalars multiply: each
    part from two rounded products.  numpy's array loop fuses them (FMA),
    so its last bits differ."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def self_norms(x: np.ndarray) -> np.ndarray:
    """<x_i, x_i> for every row of a (..., 3) stack; real."""
    x = np.asarray(x, dtype=complex)
    return _signed(np.square(x.real) + np.square(x.imag))


def _norms_and_squares(x: np.ndarray):
    """(<x_i, x_i>, |x_i|^2) for every row of a (..., 3) stack, from one |x|^2
    pass; the Euclidean sum adds left to right, as ``sum(axis=-1)`` does."""
    x = np.asarray(x, dtype=complex)
    q = np.square(x.real) + np.square(x.imag)
    return _signed(q), (q[..., 0] + q[..., 1]) + q[..., 2]


def sign_classes(x: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Batch ``classify``: -1 / 0 / +1 per row for negative / null / positive."""
    return _sign_code(*_norms_and_squares(x), tol.null_band)


def min_distances(x: np.ndarray, y: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """The minimum distance between the rows of x[k] and those of y[k] for
    every k of two (K, N, 3) stacks, and the error of the first failing k:
    ``ClassError`` unless every row is negative, ``GeometryDomainError`` when
    a minimum tance falls below 1 beyond noise.

    arccosh(sqrt(.)) is taken only of the tances within a relative 1e-12 of
    each minimum tance: libm's few-ulp error cannot reorder entries further
    apart than that, so the minimum distance keeps its bits.  A stack whose
    rows are all strictly negative and whose minimum tances all clear the
    floor takes every masked minimum in one pass; any other stack is
    diagnosed k by k, so that the first failing k raises.
    """
    n = x.shape[-2]
    s, sq = _norms_and_squares(np.concatenate([x, y], axis=-2))
    # a norm strictly beyond the band is negative in any band: no zero to divide by
    if np.count_nonzero(s < -abs(tol.null_band) * sq) == s.size:
        ta = _gram_tances(gram(x, y), s[..., :n], s[..., n:])
        low = ta.min(axis=(-2, -1))
        if low.min() >= 1.0 - _TANCE_FLOOR_SLACK:
            near = ta <= low[..., None, None] * (1.0 + 1e-12)
            d = np.arccosh(np.sqrt(np.maximum(ta[near], 1.0)))  # k by k, in order
            if len(d) == len(low):  # each minimum stands alone
                return d
            counts = near.sum(axis=(-2, -1))
            return np.minimum.reduceat(d, counts.cumsum() - counts)
    bad = (_sign_code(s, sq, tol.null_band) != -1).any(axis=-1)
    # a failing k may divide by a zero norm here; its check below raises
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = _gram_tances(gram(x, y), s[..., :n], s[..., n:])
        low = ta.min(axis=(-2, -1))
    out = []
    for k in range(len(ta)):
        if bad[k]:
            raise ClassError("distance requires two negative points")
        out.append(_distance_from_tance(ta[k][ta[k] <= low[k] * (1.0 + 1e-12)]).min())
    return np.array(out)


def _gram_tances(g, nx, ny):
    """Tances ta(x_i, y_j) from ``gram(x, y)`` and the self norms of x and y."""
    ta = np.square(g.real)
    ta += np.square(g.imag)
    ta /= nx[..., :, None] * ny[..., None, :]
    return ta


def _tangent_basis_of_units(xs: np.ndarray) -> np.ndarray:
    """A <,>-unitary basis (w1, w2) of x_i^perp for each row x_i of a stack
    of negative points scaled to <,> = -1 (``SectionMesh.units``), an
    (N, 2, 3) stack.

    w1 = e1 + conj(x1) x is the projection of e1 into x^perp and
    w2 = J conj(x cross w1) (``polar_rows``) is orthogonal to both; each
    has form norm 1 + |x1|^2 >= 1 and is divided by its square root.  Read
    off x1, that norm has no cancellation near the boundary, and w1 does
    not change when x is multiplied by a unit scalar.  Every step is
    elementwise, so a row's bits do not depend on the other rows.
    """
    w1 = xs[:, 1:2].conj() * xs + _SEEDS[1]
    w = np.stack([w1, polar_rows(xs, w1)], axis=1)
    return w / np.sqrt(1.0 + abs(xs[:, 1]) ** 2)[:, None, None]


def polar_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``polar_span``, unnormalized: J conj(x_i cross y_i) over (..., 3) stacks."""
    # np.cross's own formula, without its axis handling (it dominates a
    # 3-vector call): both products x[next] y[prev] and x[prev] y[next] in one
    c = x.take(_NEXT_PREV, -1) * y.take(_PREV_NEXT, -1)
    return _SIGNS * np.conj(c[..., :3] - c[..., 3:])


def polar_span(x: ProjectivePoint, y: ProjectivePoint) -> ProjectivePoint:
    """The point orthogonal to both x and y: z = J conj(x cross y).

    The complex projective line through x and y is P(z^perp); raises
    ``DegenerateError`` when ``is_parallel_to`` calls x and y one point.
    """
    if x.is_parallel_to(y):
        raise DegenerateError("polar_span needs projectively distinct points")
    return ProjectivePoint(polar_rows(x.v, y.v))


@dataclass(frozen=True)
class Isometry:
    """A determinant-1 lift of a holomorphic isometry of H^2_C."""

    matrix: np.ndarray

    @staticmethod
    def from_matrix(m, tol: Tolerances = TOL) -> "Isometry":
        """The det-1 lift of ``m``; raises ``FrameError`` unless ``m`` is an
        isometry of the form (see ``_isometry_stack``)."""
        m = np.asarray(m, dtype=complex).reshape(3, 3)
        return Isometry(matrix=_isometry_stack(m[None], tol)[0])

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(matrix=np.eye(3, dtype=complex))

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(_unit_det(self.matrix @ other.matrix))

    def inverse(self) -> "Isometry":
        # form-preserving inverse: M^-1 = J M* J
        return Isometry(_unit_det(_form_adjoint(self.matrix)))

    def apply(self, x: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(self.matrix @ x.v)

    def __call__(self, x: ProjectivePoint) -> ProjectivePoint:
        return self.apply(x)


def _form_adjoint(u):
    """J u* J over a ``(..., 3, 3)`` stack, with the bits of the matmuls
    ``FORM_MATRIX @ u* @ FORM_MATRIX``: each entry is one entry of u* times
    +-1 plus products with zero, so flipping signs gives the same bits where
    every part is finite and nonzero; other stacks take the matmuls, whose
    sign of zero may differ."""
    parts = u.view(float)
    if not np.isfinite(parts).all() or (parts == 0).any():
        return FORM_MATRIX @ u.conj().swapaxes(-1, -2) @ FORM_MATRIX
    return u.conj().swapaxes(-1, -2) * _FORM_SIGNS


def _unit_det(m: np.ndarray) -> np.ndarray:
    # principal cube root keeps the normalization deterministic; m may be a
    # (..., 3, 3) stack
    return m * (np.linalg.det(m) ** (-1.0 / 3.0))[..., None, None]


def _isometry_stack(m: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """Det-1 lifts of a (k, 3, 3) complex stack; raises ``FrameError`` for the
    first matrix whose residual, the max-norm of M* J M - J (zero exactly on
    U(2,1)), exceeds max(tol.isometry, 1e-9 * max|m|^2).  The relative
    1e-9 lets a lift with large entries, whose residual grows with |m|^2,
    pass at the precision its entries carry; it decides the verdict.

    M* J is M* with its columns signed, so the residual takes one product.
    Each bound is at least tol.isometry, so the per-matrix bounds are
    formed only when some residual exceeds it.
    """
    r = np.abs((m.conj().swapaxes(-1, -2) * _SIGNS) @ m - FORM_MATRIX)
    if not r.max(initial=0.0) <= tol.isometry:
        r = r.max(axis=(-2, -1))
        bad = np.flatnonzero(r > np.maximum(tol.isometry, 1e-9 * np.abs(m).max(axis=(-2, -1)) ** 2))
        if bad.size:
            raise FrameError(f"matrix is not an isometry of the form (residual {r[bad[0]]:g})")
    return _unit_det(m)


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
        _check_frames(np.array(self.vectors())[None], tol)

    def vectors(self):
        return self.b0.v, self.b1.v, self.b2.v


_FRAME_CLASSES = np.array([-1, 1, 1])
#: the pairings <b_i, b_j> a frame check reads: the three self pairings,
#: then the three pairs that must be orthogonal
_FRAME_I, _FRAME_J = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]).T


def _check_frames(frames: np.ndarray, tol: Tolerances = TOL) -> np.ndarray:
    """``OrthogonalFrame.validate`` for a (k, 3, 3) stack whose rows are the
    frame vectors; returns the self pairings <b_j, b_j>, (k, 3).

    Raises ``FrameError`` for the first frame with a vector of the wrong
    sign class (wanted negative, positive, positive) or, failing that, a
    pair with |<b_i, b_j>| > tol.orthogonality.  The classes are those of
    ``sign_classes`` and the pairings have ``herm_form``'s bits, so a frame
    passes or fails as its vectors would one at a time.
    """
    h = _form_pairs(frames[:, _FRAME_I], frames[:, _FRAME_J])
    norms, r = h[:, :3].real, np.abs(h[:, 3:])
    s, sq = _norms_and_squares(frames)
    # a signed norm strictly beyond its band has the wanted class: the stack
    # passes at once, and only a stack that may fail is classified
    if (s * _FRAME_CLASSES > abs(tol.null_band) * sq).all() and (r <= tol.orthogonality).all():
        return norms
    cls = _sign_code(s, sq, tol.null_band)
    wrong, skew = cls != _FRAME_CLASSES, r > tol.orthogonality
    bad = np.flatnonzero(wrong.any(axis=1) | skew.any(axis=1))
    if not bad.size:
        return norms
    k = bad[0]
    if wrong[k].any():
        a = wrong[k].argmax()
        raise FrameError(f"frame vector has class {_CLASS_NAMES[cls[k, a]]}, "
                         f"wanted {_CLASS_NAMES[_FRAME_CLASSES[a]]}")
    a = skew[k].argmax()
    raise FrameError(f"frame vectors {_FRAME_I[3 + a]},{_FRAME_J[3 + a]} not orthogonal "
                     f"(|<,>|={r[k, a]:g})")


def _elliptic_rows(frames: np.ndarray, phases, tol: Tolerances = TOL) -> np.ndarray:
    """Det-1 matrices of elliptics from a (k, 3, 3) stack of frames (rows b0,
    b1, b2), or one (1, 3, 3) frame for every row, and a ``(k, 3)`` stack of
    unit eigenvalues ``phases``.

    Row i is ``phases[i, 0] P_0 + phases[i, 1] P_1 + phases[i, 2] P_2``,
    summed from 0 as ``sum`` does, with ``P_j`` the form-orthogonal
    projection (<x,b_j>/<b_j,b_j>) b_j, its pairings with ``herm_form``'s
    bits.  The frames are checked in one pass; raises ``FrameError`` on a
    non-unit phase or for the first row that is not an isometry of the
    form.
    """
    norms = _check_frames(frames, tol)
    phases = np.asarray(phases, dtype=complex).reshape(-1, 3)
    # 1e-12 decides the verdict on a phase
    if np.abs(np.abs(phases) - 1.0).max() > 1e-12:
        raise FrameError("eigenphases must have unit modulus")
    proj = frames[..., :, None] * (_SIGNS * np.conj(frames))[..., None, :] / norms[..., None, None]
    terms = phases[..., None, None] * proj
    return _isometry_stack(((0 + terms[:, 0]) + terms[:, 1]) + terms[:, 2], tol)


def elliptic_from_frame(frame: OrthogonalFrame, phases, tol: Tolerances = TOL) -> Isometry:
    """Elliptic isometry with eigenvectors ``frame`` and unit eigenvalues ``phases``.

    ``M = sum_k phases[k] * P_k`` with ``P_k`` the form-orthogonal projection
    onto the k-th frame vector; the result is determinant-normalized.  The
    one-row case of ``_elliptic_rows``.
    """
    phases = np.asarray(phases, dtype=complex).reshape(1, 3)
    return Isometry(matrix=_elliptic_rows(np.array(frame.vectors())[None], phases, tol)[0])


def reflection_about(p: ProjectivePoint, tol: Tolerances = TOL) -> Isometry:
    """The involution x -> -x + 2 <x,p>/<p,p> p.

    A reflection at the point p when p is negative; a reflection in the
    complex geodesic P(p^perp) when p is positive.
    """
    if classify(p, tol) == NULL:
        raise NullPointError("reflection needs a non-null point")
    # 2 P - I with P the form-orthogonal projection (<x,p>/<p,p>) p
    m = -np.eye(3, dtype=complex) + 2.0 * (np.outer(p.v, _SIGNS * np.conj(p.v)) / p.self_form())
    return Isometry.from_matrix(m, tol)
