"""Triangles and quadrangles of bisectors: the eps-invariant and K1/K2/K3.

A quadrangle of four pairwise ultraparallel complex geodesics bounds a
4-ball exactly when three conditions hold: K1 (ultraparallelism), K2 (both
diagonal triangles transversal and counterclockwise-oriented), and K3
(transversal adjacency of the two triangles along the shared diagonal).
K1 and K2 are closed-form inequalities; K3 is certified by sampled
numerical sub-checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .core import (
    POSITIVE,
    ProjectivePoint,
    classify,
    distance,  # noqa: F401  (bench/tracer.py wraps chdisc.quadrangle.distance)
    distance_matrix,
    herm_form,
    herm_rows,
    polar_span,
    self_norms,
    tance,
    _unitary_tangent_basis,
)
from .errors import ClassError, DegenerateError, NotTransversalError
from .geometry import (
    ComplexGeodesic,
    _geodesic_rows,
    _perpendicular_rows,
    _slice_polars,
    common_perpendicular,  # noqa: F401  (bench/tracer.py wraps chdisc.quadrangle.common_perpendicular)
)
from .io import _f
from .tolerances import TOL, Tolerances


def epsilon(p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint) -> complex:
    """The unit complex invariant of an ordered triple of polars.

    eps0 + i eps1 = <p1,p2><p2,p3><p3,p1> / |same|.  Invariant under
    positive rescaling of each argument; reversing the cyclic order
    conjugates the value.
    """
    prod = (
        herm_form(p1.v, p2.v) * herm_form(p2.v, p3.v) * herm_form(p3.v, p1.v)
    )
    if abs(prod) < 1e-14:
        raise DegenerateError("triple product vanishes (some pair of polars orthogonal)")
    return prod / abs(prod)


@dataclass(frozen=True)
class TriangleInvariant:
    """t_ij = sqrt(ta(p_i, p_j)) side data plus the eps-invariant."""

    t12: float
    t23: float
    t31: float
    eps: complex

    @staticmethod
    def from_polars(
        p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint
    ) -> "TriangleInvariant":
        return TriangleInvariant(
            t12=float(np.sqrt(tance(p1, p2))),
            t23=float(np.sqrt(tance(p2, p3))),
            t31=float(np.sqrt(tance(p3, p1))),
            eps=epsilon(p1, p2, p3),
        )


def transversality_margins(tri: TriangleInvariant) -> tuple[float, float, float]:
    """Signed slack of the three transversality inequalities.

    Each line reads  eps0^2 t_a^2 + t_b^2 + t_c^2 < 1 + 2 t12 t23 t31 eps0,
    with the squared-eps0 factor cycling over t12, t31, t23 in the printed
    order; a margin is positive when its inequality holds strictly.
    """
    e0 = tri.eps.real
    t12, t23, t31 = tri.t12, tri.t23, tri.t31
    rhs = 1.0 + 2.0 * t12 * t23 * t31 * e0
    return (
        rhs - (e0 ** 2 * t12 ** 2 + t23 ** 2 + t31 ** 2),
        rhs - (e0 ** 2 * t31 ** 2 + t12 ** 2 + t23 ** 2),
        rhs - (e0 ** 2 * t23 ** 2 + t31 ** 2 + t12 ** 2),
    )


def is_transversal(tri: TriangleInvariant, tol: Tolerances = TOL) -> tuple[bool, tuple[float, float, float]]:
    """Whether the triangle of bisectors is transversal, with margins."""
    margins = transversality_margins(tri)
    return all(m > tol.strict_margin for m in margins), margins


def is_counterclockwise(tri: TriangleInvariant, tol: Tolerances = TOL) -> bool:
    """eps1 < 0 for a transversal triangle."""
    ok, margins = is_transversal(tri, tol)
    if not ok:
        raise NotTransversalError(f"triangle is not transversal (margins {margins})")
    return tri.eps.imag < 0.0


def triangle_over_complex_geodesic(
    f: ProjectivePoint,
    c1: ProjectivePoint,
    c2: ProjectivePoint,
    c3: ProjectivePoint,
    tol: Tolerances = TOL,
) -> tuple[tuple[ComplexGeodesic, ComplexGeodesic, ComplexGeodesic], TriangleInvariant]:
    """Triangle of bisectors over the complex geodesic P(f^perp).

    The vertices are the slices through c_i with polar direction f; for a
    counterclockwise triple the invariant satisfies
    eps = exp(-2 * area * i), area taken in the curvature -4 disc.
    """
    if classify(f, tol) != POSITIVE:
        raise ClassError("f must be a positive point")
    for c in (c1, c2, c3):
        if abs(herm_form(c.v, f.v)) > tol.orthogonality:
            raise ClassError("vertices must lie in the complex geodesic f^perp")
    geos = tuple(ComplexGeodesic(polar_span(c, f)) for c in (c1, c2, c3))
    tri = TriangleInvariant.from_polars(geos[0].polar, geos[1].polar, geos[2].polar)
    return geos, tri


@dataclass(frozen=True)
class QuadrangleConfig:
    """Four polars C1..C4 in cyclic order, plus the two diagonal triangles."""

    polars: tuple[ProjectivePoint, ProjectivePoint, ProjectivePoint, ProjectivePoint]

    def __post_init__(self):
        for p in self.polars:
            if classify(p) != POSITIVE:
                raise ClassError("quadrangle polars must be positive points")

    def triangle_124(self) -> TriangleInvariant:
        p1, p2, _, p4 = self.polars
        return TriangleInvariant.from_polars(p1, p2, p4)

    def triangle_342(self) -> TriangleInvariant:
        _, p2, p3, p4 = self.polars
        return TriangleInvariant.from_polars(p3, p4, p2)


# --- bisector side functions and the K3 sub-checks --------------------------


def _side_values(coords: np.ndarray) -> np.ndarray:
    """Im(alpha conj(beta)) / (|alpha|^2 + |beta|^2) over the last axis of
    (alpha, beta, gamma) coordinates; 0 where alpha = beta = 0.

    This is the scale-invariant signed defining function of the (extended)
    bisector: it vanishes on the bisector and its sign tells the two sides apart.
    """
    alpha, beta = coords[..., 0], coords[..., 1]
    n = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    num = (alpha * np.conj(beta)).imag
    return np.divide(num, n, out=np.zeros_like(num), where=n > 0)


def _side_gradients(a: np.ndarray, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Real directional derivatives of the side function, analytically.

    ``a`` is a (..., 3, 3) stack of side coordinate matrices (the inverse of
    ``_bisector_basis``), ``x`` a (..., N, 3) stack of points off the
    bisector polars and ``dirs`` a (..., N, K, 3) stack of directions;
    entry [..., i, k] is the derivative at x_i along dirs[..., i, k] of
    P / n with P = Im(alpha conj(beta)) and n = |alpha|^2 + |beta|^2.
    """
    at = np.swapaxes(a, -1, -2)
    c = (x @ at)[..., None, :]
    dc = dirs @ at[..., None, :, :]
    alpha, beta, da, db = c[..., 0], c[..., 1], dc[..., 0], dc[..., 1]
    n = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    p = (alpha * np.conj(beta)).imag
    dp = (da * np.conj(beta) + alpha * np.conj(db)).imag
    dn = 2.0 * (da * np.conj(alpha) + db * np.conj(beta)).real
    return (dp * n - p * dn) / n ** 2


def _slice_samples(polars: np.ndarray, centers: np.ndarray, n: int, radius: float | np.ndarray = 1.0):
    """Sample points of the complex geodesics P(polar_i^perp) around points on them.

    For each (polar, centre) row pair: the centre, then the first n - 1
    points of rings at distances linspace(0.15, radius, max((n-1)//8, 1))
    with 8 equally spaced phases each (fewer when the rings hold fewer
    points); ``radius`` is one value or one per row.  Returns the unit-norm
    rows stacked centre by centre.
    """
    f = polars / np.sqrt(self_norms(polars))[:, None]
    x = centers / np.sqrt(-self_norms(centers))[:, None]
    # direction inside the slice plane: the first of w1, w2, w1 + w2 lying
    # in polar^perp, else w1 projected into polar^perp
    w = _unitary_tangent_basis(x)
    cands = np.stack([w[:, 0], w[:, 1], w[:, 0] + w[:, 1]], axis=1)
    inside = np.abs(herm_rows(cands, f[:, None])) < 1e-8
    d = np.where(
        inside.any(axis=1)[:, None],
        cands[np.arange(len(x)), inside.argmax(axis=1)],
        w[:, 0] - herm_rows(w[:, 0], f)[:, None] * f,
    )
    d = d / np.sqrt(self_norms(d))[:, None]
    r = np.linspace(0.15, np.broadcast_to(radius, len(x)), max(max(n - 1, 1) // 8, 1), axis=1)
    r = r[:, :, None, None]
    phase = np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False))[:, None]
    rings = np.cosh(r) * x[:, None, None] + (np.sinh(r) * phase) * d[:, None, None]
    rings = rings.reshape(len(x), -1, 3)[:, : max(n - 1, 0)]
    pts = np.concatenate([x[:, None], rings], axis=1).reshape(-1, 3)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@dataclass
class SubCheck:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class Certificate:
    """Pass/fail certificate for K1, K2, K3 with per-inequality margins."""

    k1: bool
    k2: bool
    k3: bool
    k1_margins: list
    k2_margins: dict
    k3_checks: list
    tolerances: dict
    input_digest: str

    @property
    def passed(self) -> bool:
        return self.k1 and self.k2 and self.k3

    def to_json_dict(self) -> dict:
        return {
            "format": "chdisc/1",
            "kind": "certificate",
            "input_digest": self.input_digest,
            "k1": {"pass": self.k1, "margins": [_f(m) for m in self.k1_margins]},
            "k2": {
                "pass": self.k2,
                "margins": {k: [_f(x) for x in v] for k, v in sorted(self.k2_margins.items())},
            },
            "k3": {
                "pass": self.k3,
                "checks": [
                    {"name": c.name, "pass": c.passed, "margin": _f(c.margin), "detail": c.detail}
                    for c in self.k3_checks
                ],
            },
            "pass": self.passed,
            "tolerances": {k: _f(v) for k, v in sorted(self.tolerances.items())},
        }


def polars_digest(polars) -> str:
    """Hex digest of canonicalized polar representatives."""
    rows = []
    for p in polars:
        v = p.v.copy()
        # canonical phase: first component of largest modulus made real positive
        k = int(np.argmax(np.abs(v)))
        v = v * np.exp(-1j * np.angle(v[k]))
        # adding 0.0 folds IEEE negative zeros into +0.0 so the JSON blob
        # is stable for values rounding to zero from either side
        rows.append(
            [[round(float(c.real), 12) + 0.0, round(float(c.imag), 12) + 0.0] for c in v]
        )
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


#: The ordered polar pairs (i, j), 0-based, of the K3 common perpendiculars;
#: x_k lies on C_i, y_k on C_j.  Rows 0, 3, 5, 7 are the segments B12, B34,
#: B23, B41.
_K3_PAIRS = np.array([(0, 1), (2, 1), (0, 3), (2, 3), (1, 3), (1, 2), (3, 2), (3, 0)])


def adjacency_check(q: QuadrangleConfig, tol: Tolerances = TOL) -> list[SubCheck]:
    """Numerical certificate of K3 (transversal adjacency) for a quadrangle.

    Three sampled sub-checks: (a) transversal intersection of the adjacent
    extended bisectors along the shared slices C2 and C4, (b) the sector
    condition on C3 relative to the bisectors through C1, and (c)
    disjointness of the two pairs of non-adjacent segments.

    A slice sample set has n = max(k3_samples // 8, 4) points (8 at the
    default k3_samples = 64; ``_slice_samples`` gives the caveats for
    larger n).  (a) takes the smallest tangent-hyperplane angle over one
    set around the foot on the shared slice; (b) takes the smallest signed
    side value over one set of C3, and fails when its reference point lies
    on the bisector within ``tol.strict_margin``; (c) samples each segment
    at 8 spine points x n slice points (64 by default) and takes the exact
    minimum distance over all sampled pairs (4096 by default).

    The (a) and (b) sets are centred on the second feet of ``_K3_PAIRS``
    exactly as ``_perpendicular_rows`` returns them: Euclidean-unit and not
    phase aligned.  The rings cosh(r) x + sinh(r) e^{i phi} d move with the
    phase of the centre representative x, and so do the margins.
    """
    p1, p2, p3, p4 = q.polars
    if p1.is_parallel_to(p3) or p2.is_parallel_to(p4):
        return [SubCheck("degenerate", False, -1.0, "coincident opposite vertices")]
    polars = np.array([p.v for p in q.polars])
    x, y, basis = _perpendicular_rows(polars[_K3_PAIRS[:, 0]], polars[_K3_PAIRS[:, 1]], tol)
    coords = np.linalg.inv(basis[:4])  # coords[k] @ v = (alpha, beta, gamma) of v
    seg = [0, 3, 5, 7]
    spine = _geodesic_rows(x[seg, None], y[seg, None], np.linspace(0.0, 1.0, 8))
    # sets around the feet on C2, C4 (a) and C3 (b), then the segments' spine points (c)
    samples = _slice_samples(
        np.concatenate([polars[[1, 3, 2, 2]], _slice_polars(basis[seg], spine, tol).reshape(-1, 3)]),
        np.concatenate([y[[0, 2, 5, 6]], spine.reshape(-1, 3)]),
        max(tol.k3_samples // 8, 4),
        np.repeat([1.0, 0.8, 1.5], [2, 2, 32]),
    ).reshape(36, -1, 3)

    # (a) tangent-hyperplane angles of B[C1,Ck] and B[C3,Ck] along the shared slices
    w = _unitary_tangent_basis(samples[:2].reshape(-1, 3)).reshape(2, -1, 2, 3)
    dirs = np.stack([w[..., 0, :], 1j * w[..., 0, :], w[..., 1, :], 1j * w[..., 1, :]], axis=-2)
    # g-gradients of both side functions, lifted into x^perp
    ga, gb = (
        np.einsum("snk,snkc->snc", _side_gradients(coords[rows], samples[:2], dirs), dirs)
        for rows in ([0, 2], [1, 3])
    )
    na, nb = np.sqrt(self_norms(ga)), np.sqrt(self_norms(gb))
    ok = (na >= 1e-12) & (nb >= 1e-12)
    cosang = np.abs(herm_rows(ga, gb).real) / np.where(ok, na * nb, 1.0)
    worst = np.where(ok, np.arccos(np.clip(cosang, 0.0, 1.0)), 0.0).min(axis=1).tolist()
    checks = [SubCheck(label, w >= tol.angle_floor, w - tol.angle_floor)
              for label, w in zip(("transversal_at_C2", "transversal_at_C4"), worst)]

    # (b) sector test: C3 on the inner side of both bisectors through C1, as
    # seen from an interior reference point of the quadrangle
    a = coords[[0, 2]]
    side_ref = _side_values(a @ _geodesic_rows(x[4], y[4], 0.5))
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
    for k, l, label in ((0, 1, "disjoint_B12_B34"), (2, 3, "disjoint_B23_B41")):
        dmin = float(distance_matrix(segments[k], segments[l], tol).min())
        checks.append(SubCheck(label, dmin >= tol.sep_floor, dmin - tol.sep_floor))
    return checks


def validate_quadrangle(q: QuadrangleConfig, tol: Tolerances = TOL) -> Certificate:
    """Full K1/K2/K3 certification of a quadrangle of bisectors."""
    # K1: all six pairwise tances strictly above 1
    k1_margins = []
    for i in range(4):
        for j in range(i + 1, 4):
            k1_margins.append(tance(q.polars[i], q.polars[j]) - 1.0)
    k1 = all(m > tol.asymptotic for m in k1_margins)

    # K2: both diagonal triangles transversal and counterclockwise
    k2_margins = {}
    k2 = k1
    if k1:
        for name, tri in (
            ("triangle_124", q.triangle_124()),
            ("triangle_342", q.triangle_342()),
        ):
            ok, margins = is_transversal(tri, tol)
            ccw = tri.eps.imag < 0.0
            k2_margins[name] = list(margins) + [-tri.eps.imag]
            k2 = k2 and ok and ccw
    k3_checks = []
    k3 = False
    if k1 and k2:
        k3_checks = adjacency_check(q, tol)
        k3 = all(c.passed for c in k3_checks)

    return Certificate(
        k1=k1,
        k2=k2,
        k3=k3,
        k1_margins=k1_margins,
        k2_margins=k2_margins,
        k3_checks=k3_checks,
        tolerances={
            "asymptotic": tol.asymptotic,
            "strict_margin": tol.strict_margin,
            "angle_floor": tol.angle_floor,
            "sep_floor": tol.sep_floor,
            "k3_samples": tol.k3_samples,
        },
        input_digest=polars_digest(q.polars),
    )
