"""Triangles and quadrangles of bisectors: the eps-invariant and K1/K2/K3.

A quadrangle of four pairwise ultraparallel complex geodesics bounds a
4-ball exactly when three conditions hold: K1 (ultraparallelism), K2 (both
diagonal triangles transversal and counterclockwise-oriented), and K3
(transversal adjacency of the two triangles along the shared diagonal).
K1 and K2 are closed-form inequalities; K3 is certified by sampled
numerical sub-checks.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    POSITIVE,
    ProjectivePoint,
    _euclidean_units,
    _gram_tances,
    classify,
    distance,  # noqa: F401  (bench/tracer.py wraps chdisc.quadrangle.distance)
    herm_form,
    herm_rows,
    min_distances,
    polar_rows,
    polar_span,
    self_norms,
    sign_classes,
    tance,
)
from .errors import ClassError, DegenerateError, NullPointError
from .geometry import (
    ComplexGeodesic,
    _negative_units,
    _phase_align,
    _perpendicular_rows,
    _slerp_units,
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
    prod = herm_form(p1.v, p2.v) * herm_form(p2.v, p3.v) * herm_form(p3.v, p1.v)
    return _unit_triple(prod, p1.self_form() * p2.self_form() * p3.self_form())


def _unit_triple(prod: complex, norms: float) -> complex:
    """prod / |prod| for a triple product of pairings, else ``DegenerateError``;
    ``norms`` is the product of the three self norms <p_i, p_i>."""
    # the floor guards the division: the product vanishes when some pair of
    # polars is orthogonal, and then eps has no direction.  Relative to the
    # self norms it reads t12 t23 t31 < 1e-14, which no isometry and no
    # rescaling moves, and which no K1-passing triple (each t > 1) meets
    if abs(prod) < 1e-14 * abs(norms):
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
    return _transversality_margins(tri.t12, tri.t23, tri.t31, tri.eps.real)


def _transversality_margins(t12: float, t23: float, t31: float, e0: float) -> tuple[float, float, float]:
    """``transversality_margins`` of the side data and eps0 as Python floats."""
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
    """Four positive polars C1..C4 in cyclic order; K2 reads the diagonal
    triangles (C1, C2, C4) and (C3, C4, C2).  ``rows`` is the read-only
    (4, 3) stack of their representatives, which the certificate reads."""

    polars: tuple[ProjectivePoint, ProjectivePoint, ProjectivePoint, ProjectivePoint]
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.array([p.v for p in self.polars])
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        if (sign_classes(rows) != 1).any():
            raise ClassError("quadrangle polars must be positive points")

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(h, ta): every ordered pairing h[i, j] = <p_i, p_j> with the bits
        of ``herm_form``, and the tances with the bits of ``tance``; formed
        once for K1, K2 and K3's ultraparallel test."""
        h = herm_rows(self.rows[:, None], self.rows[None])
        n = h.real.diagonal()
        return h, _gram_tances(h, n, n)


# --- bisector side functions and the K3 sub-checks --------------------------


def _side_values(coords: np.ndarray) -> np.ndarray:
    """Im(alpha conj(beta)) / (|alpha|^2 + |beta|^2) over the last axis of
    (alpha, beta, gamma) coordinates; 0 where alpha = beta = 0.

    This is the scale-invariant signed defining function of the (extended)
    bisector: it vanishes on the bisector and its sign tells the two sides apart.
    """
    alpha, beta = coords[..., 0], coords[..., 1]
    n = np.square(np.abs(alpha)) + np.square(np.abs(beta))
    num = (alpha * np.conj(beta)).imag
    if np.count_nonzero(n > 0) == n.size:  # no zero to divide around
        return num / n
    return np.divide(num, n, out=np.zeros_like(num), where=n > 0)


def _side_gradients(a: np.ndarray, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Real directional derivatives of the side function, analytically.

    ``a`` is a (..., 2, 3) stack of side-coordinate rows (``_side_rows``),
    ``x`` a (..., N, 3) stack of points off the bisector polars and ``dirs``
    a (..., N, K, 3) stack of directions;
    entry [..., i, k] is the derivative at x_i along dirs[..., i, k] of
    P / n with P = Im(alpha conj(beta)) and n = |alpha|^2 + |beta|^2.
    """
    c = herm_rows(np.concatenate([x[..., None, :], dirs], axis=-2)[..., None, :], a[..., None, None, :, :])
    alpha, beta, da, db = c[..., :1, 0], c[..., :1, 1], c[..., 1:, 0], c[..., 1:, 1]
    cb = np.conj(beta)
    n = np.square(np.abs(alpha)) + np.square(np.abs(beta))
    p = (alpha * cb).imag
    dp = (da * cb + alpha * np.conj(db)).imag
    dn = 2.0 * (da * np.conj(alpha) + db * cb).real
    return (dp * n - p * dn) / np.square(n)


def _side_rows(basis: np.ndarray) -> np.ndarray:
    """The (alpha, beta) rows of the side coordinates of a (K, 3, 3) stack of
    bisector frames (s1, s2, f) (``_perpendicular_rows``), as a (K, 2, 3)
    stack of rows u: <v, u> gives alpha and beta of v = alpha s1 + beta s2 +
    gamma f up to one positive factor per frame.

    s1 and s2 have <,> = -1 and are orthogonal to f, so only their 2 x 2
    Gram block [[-1, conj(r)], [r, -1]], r = <s2, s1>, needs inverting: times
    |r|^2 - 1 > 0 (the feet are distinct), alpha = <v, s1 + conj(r) s2> and
    beta = <v, r s1 + s2>.  The side function is scale invariant, so the
    factor is dropped, and with it any division.
    """
    s1, s2 = basis[:, :, 0], basis[:, :, 1]
    r = herm_rows(s2, s1)[:, None]
    rows = np.empty((len(basis), 2, 3), dtype=complex)
    rows[:, 0] = s1 + np.conj(r) * s2
    rows[:, 1] = r * s1 + s2
    return rows


#: The signs of <f, f> and <x, x> for a (polar, centre) pair of ``_slice_samples``.
_POLAR_CENTRE = np.array([1.0, -1.0])[:, None]

#: The 8 equally spaced phases e^{i phi} of each ``_slice_samples`` ring.
_RING_PHASES = np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False))[:, None]


@functools.lru_cache(maxsize=8)
def _ring_table(n: int, radii: tuple):
    """(cosh r, sinh r e^{i phi}) of the n - 1 ring points that
    ``_slice_samples`` places around each centre, for one radius per row.

    The rings lie at distances linspace(0.15, radius, max((n-1)//8, 1)) with
    8 equally spaced phases each; a set takes their first n - 1 points, or
    all of them when they hold fewer (n = 10 and n = 20 take 8 and 16).
    Both arrays are complex, (len(radii), points, 1) and read-only, so that
    they multiply complex points without a cast; they depend on n and the
    radii alone, so a K3 check reads them from this cache instead of
    forming them.
    """
    r = np.linspace(0.15, np.array(radii), max(max(n - 1, 1) // 8, 1), axis=1)[:, :, None, None]
    shape = (len(radii), -1, 1)
    ch = np.broadcast_to(np.cosh(r), r.shape[:2] + _RING_PHASES.shape).reshape(shape)
    sh = (np.sinh(r) * _RING_PHASES).reshape(shape)
    table = tuple(np.ascontiguousarray(c[:, : max(n - 1, 0)], dtype=complex) for c in (ch, sh))
    for c in table:
        c.flags.writeable = False
    return table


def _slice_samples(sets: np.ndarray, rings, mid: np.ndarray) -> np.ndarray:
    """Sample points of the complex geodesics P(polar_i^perp) around points on them.

    ``sets`` is a (2, K, 3) stack of K positive polars f and K negative
    centres x, one on each polar's complex geodesic.  For each set: the
    centre, then its ring points cosh(r) x + sinh(r) e^{i phi} d, from the
    ``_ring_table`` ``rings`` of matching rows, with x scaled to <,> = -1
    and d = J conj(x cross f), the slice's one unit tangent at x, phased so
    that <m, d> <= 0 for the negative point ``mid`` phase aligned to x as m
    (unless <m, d> = 0).  d scales with x, so every sample is a function of
    the points alone.  Returns the Euclidean-unit rows stacked centre by
    centre.
    """
    ch, sh = rings
    # polars scaled to <,> = 1 and centres to <,> = -1, in one pass
    f, x = sets / np.sqrt(self_norms(sets) * _POLAR_CENTRE)[..., None]
    d = _phase_align(_phase_align(x, mid), polar_rows(x, f))
    d /= np.sqrt(self_norms(d))[:, None]
    pts = np.empty((len(x), 1 + ch.shape[1], 3), dtype=complex)
    pts[:, 0] = x
    np.add(ch * x[:, None], sh * d[:, None], out=pts[:, 1:])
    pts = pts.reshape(-1, 3)
    return _euclidean_units(pts)


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


#: The digest's JSON encoder, built once: ``json.dumps`` with non-default
#: arguments builds a new encoder on every call.
_DIGEST_JSON = json.JSONEncoder(separators=(",", ":"))


def polars_digest(polars) -> str:
    """Hex digest of canonicalized polar representatives."""
    v = np.array([p.v for p in polars])
    # canonical phase: first component of largest modulus made real positive
    lead = v.take(np.abs(v).argmax(axis=1) + np.arange(0, v.size, 3))
    v = v * np.exp(-1j * np.arctan2(lead.imag, lead.real))[:, None]  # np.angle's formula
    # Python's round, not np.round (whose last digits differ); adding 0.0
    # folds IEEE negative zeros into +0.0 so the JSON blob is stable for
    # values rounding to zero from either side
    rows = [[[round(a, 12) + 0.0, round(b, 12) + 0.0] for a, b in zip(re, im)]
            for re, im in zip(v.real.tolist(), v.imag.tolist())]
    return hashlib.sha256(_DIGEST_JSON.encode(rows).encode()).hexdigest()


#: The ordered polar pairs (i, j), 0-based, of the K3 common perpendiculars;
#: x_k lies on C_i, y_k on C_j.  Rows 0, 3, 5, 7 are the segments B12, B34,
#: B23, B41.
_K3_PAIRS = np.array([(0, 1), (2, 1), (0, 3), (2, 3), (1, 3), (1, 2), (3, 2), (3, 0)])

#: The geodesics of one slerp pass: the spines of the segments B12, B34, B23
#: and B41 at 8 arclength fractions each, which K3(c) samples, and the spine
#: of B[C2,C4] at its midpoint, K3(b)'s reference point.
_SLERP_PAIRS = np.array([0, 3, 5, 7, 4])
_SLERP_T = np.array([np.linspace(0.0, 1.0, 8)] * 4 + [[0.5] * 8])

#: The ring radii of the 36 K3 slice sample sets: (a) around the feet on C2
#: and C4, (b) two sets on C3, (c) the 32 spine points.
_K3_RADII = (1.0, 1.0, 0.8, 0.8) + (1.5,) * 32

#: The polars C2, C4, C3, C3 of the (a) and (b) sample sets, and the rows of
#: ``_K3_PAIRS`` whose second feet centre them: (C1,C2), (C1,C4), (C2,C3), (C4,C3).
_AB_POLARS = np.array([1, 3, 2, 2])
_AB_CENTRES = np.array([0, 2, 5, 6])

#: The side-coordinate rows of K3(a), one per side function: B[C1,Ck] and
#: B[C3,Ck] for the shared slices k = 2, 4.
_K3_A_SIDES = np.array([[0, 2], [1, 3]])


#: The six polar pairs (i, j), i < j, in K1's order, as two index rows.
_K1_ROWS = np.triu_indices(4, 1)


def adjacency_check(q: QuadrangleConfig, tol: Tolerances = TOL) -> list[SubCheck]:
    """Numerical certificate of K3 (transversal adjacency) for a quadrangle.

    Three sampled sub-checks: (a) transversal intersection of the adjacent
    extended bisectors along the shared slices C2 and C4, (b) the sector
    condition on C3 relative to the bisectors through C1, and (c)
    disjointness of the two pairs of non-adjacent segments.

    K3 runs only on a quadrangle that passes K1's test on K1's tances
    (``QuadrangleConfig._tables``, and every tance above 1 whatever
    ``tol.asymptotic`` is); any other gets the one failing sub-check
    ``degenerate``.  The stages then run in this order, each on one stack
    taken from the quadrangle's polar stack ``q.rows``:
      1. the 8 common perpendiculars of ``_K3_PAIRS`` and their bisector
         frames (``_perpendicular_rows``, unchecked: ultraparallel pairs
         have them), then the side-coordinate rows of (a) and (b) from the
         first four frames, in closed form (``_side_rows``);
      2. one slerp pass over the four segment spines at 8 points each and
         the spine of B[C2,C4] at its midpoint (``_slerp_units``);
      3. the polars J conj(x cross f) of the slices through the 32 spine
         points x, f the spine polar of the segment's frame (``polar_rows``):
         the points are slerps of the feet, so they lie on the spines by
         construction, and nothing is solved against the frames.  They
         centre the (c) sample sets, whose class test in ``min_distances``
         checks that they are negative;
      4. the 36 slice sample sets (``_slice_samples``), their rings read
         from ``_ring_table``;
      5. (a), (b) and (c) on those sets, in that order: (a) forms both side
         gradients at every sample from ``herm_rows`` pairings and reads
         their angles in the samples' orthonormal direction frames, (b)
         pairs its reference point and samples in one pass, and (c) takes
         both segment pairs in one ``min_distances`` call (``gram``'s zgemm).
    A kernel that checks its input tests the whole stack once and returns
    at once when no check can fail; only a stack that fails that test is
    diagnosed row by row, which raises the error the row-by-row checks
    raise, in the same order.  Most of a check's time is the fixed cost of
    these few dozen numpy calls on small stacks, not arithmetic, so it
    grows slowly with k3_samples.

    A slice sample set has n = max(k3_samples // 8, 4) points (8 at the
    default k3_samples = 64; ``_ring_table`` gives the caveats for larger
    n).  (a) takes the smallest tangent-hyperplane angle over one set
    around the foot on the shared slice; (b) takes the smallest signed side
    value over one set of C3, and fails when its reference point lies on
    the bisector within ``tol.strict_margin``; (c) samples each segment at
    8 spine points x n slice points (64 by default) and takes the exact
    minimum distance over all sampled pairs (4096 by default): one stacked
    Gram of both segment pairs gives every tance, and ``min_distances``
    takes arccosh(sqrt(.)) only of those within a relative 1e-12 of each
    pair's minimum, which keeps the bits of the minimum over all the pair's
    distances.

    The (a) and (b) sets are centred on the second feet of ``_K3_PAIRS``.
    Every ring direction is fixed by the midpoint of B[C2,C4], (b)'s
    reference point (``_slice_samples``), and (a) takes the tangent basis
    (J conj(s x p), p) at each sample s of the shared slice P(p^perp), so
    no sample and no margin depends on the representatives or coordinates.
    The directions (w1, i w1, w2, i w2) of that basis are orthonormal for
    Re <,>, so the four derivatives of a side function along them are its
    gradient's coordinates: (a) takes norms and cosines as sums of four
    real products, in a fixed order.
    """
    polars = q.rows
    # K1's test on K1's tance bits, and tance > 1 whatever tol.asymptotic is:
    # the common perpendiculars of ultraparallel pairs need no check
    if not (q._tables[1][_K1_ROWS] - 1.0).min() > max(tol.asymptotic, 0.0):
        return [SubCheck("degenerate", False, -1.0, "complex geodesics not pairwise ultraparallel")]
    feet, basis = _perpendicular_rows(*polars.take(_K3_PAIRS.T, 0))
    coords = _side_rows(basis[:4])  # <v, coords[k]> = (alpha, beta) of v, up to a positive factor
    ends = feet.take(_SLERP_PAIRS, 1)[:, :, None]
    spine = _slerp_units(ends[0], *_negative_units(ends), _SLERP_T)
    mid, spine = spine[4, 0], spine[:4]
    # polars and centres of the sets around the feet on C2, C4 (a) and on
    # C3 (b), then of the sets around the segments' spine points (c)
    sets = np.empty((2, 36, 3), dtype=complex)
    sets[0, :4], sets[1, :4] = polars.take(_AB_POLARS, 0), feet[1].take(_AB_CENTRES, 0)
    sets[0, 4:] = polar_rows(spine, basis.take(_SLERP_PAIRS[:4], 0)[:, None, :, 2]).reshape(-1, 3)
    sets[1, 4:] = spine.reshape(-1, 3)
    samples = _slice_samples(sets, _ring_table(max(tol.k3_samples // 8, 4), _K3_RADII), mid).reshape(36, -1, 3)

    # (a) tangent-hyperplane angles of B[C1,Ck] and B[C3,Ck] along the shared
    # slices P(p^perp): at a sample s, J conj(s x p) and p span s^perp
    shared = samples[:2]
    dirs = np.empty(shared.shape[:2] + (4, 3), dtype=complex)  # w1, i w1, w2, i w2
    w = dirs[:, :, 0::2]
    w[:, :, 0] = polar_rows(shared, polars[1::2, None])
    w[:, :, 1] = polars[1::2, None]
    w /= np.sqrt(self_norms(w))[..., None]
    np.multiply(1j, w, out=dirs[:, :, 1::2])
    # both side gradients' coordinates in the orthonormal frame dirs, in one pass
    g = _side_gradients(coords.take(_K3_A_SIDES, 0), shared, dirs)
    t = g.take([0, 1, 0], 0) * g.take([0, 1, 1], 0)  # g0 g0, g1 g1, g0 g1
    t = ((t[..., 0] + t[..., 1]) + t[..., 2]) + t[..., 3]
    norms = np.sqrt(t[:2])
    cosang = np.abs(t[2])
    # a gradient with norm below 1e-12 has no direction: its angle counts as
    # 0 and fails the check.  The floor decides that verdict.  The cosines
    # are >= 0, so only 1 can clip them.
    if norms.min() >= 1e-12:
        angles = np.arccos(np.minimum(cosang / (norms[0] * norms[1]), 1.0))
    else:
        ok = (norms[0] >= 1e-12) & (norms[1] >= 1e-12)
        cosang = cosang / np.where(ok, norms[0] * norms[1], 1.0)
        angles = np.where(ok, np.arccos(np.minimum(cosang, 1.0)), 0.0)
    checks = [SubCheck(label, w >= tol.angle_floor, w - tol.angle_floor)
              for label, w in zip(("transversal_at_C2", "transversal_at_C4"), angles.min(axis=1).tolist())]

    # (b) sector test: C3 on the inner side of both bisectors through C1, as
    # seen from an interior reference point of the quadrangle
    pts = np.empty((2, 1 + samples.shape[1], 3), dtype=complex)
    pts[:, 0], pts[:, 1:] = mid, samples[2:4]
    sides = _side_values(herm_rows(pts[:, :, None], coords[0::2, None]))
    side_ref = sides[:, 0]
    sides = np.sign(side_ref)[:, None] * sides[:, 1:]
    labels = ("sector_B_C1C2", "sector_B_C1C4")
    for label, ref, w in zip(labels, side_ref.tolist(), sides.min(axis=1).tolist()):
        if abs(ref) <= tol.strict_margin:
            checks.append(SubCheck(label, False, abs(ref) - tol.strict_margin,
                                   f"degenerate reference: side {ref:+.3e} on the bisector"))
        else:
            checks.append(SubCheck(label, w > 0.0, w, f"reference side {ref:+.3e}"))

    # (c) non-adjacent segments stay separated
    segments = samples[4:].reshape(4, -1, 3)
    dmin = min_distances(segments[0::2], segments[1::2], tol).tolist()
    for label, d in zip(("disjoint_B12_B34", "disjoint_B23_B41"), dmin):
        checks.append(SubCheck(label, d >= tol.sep_floor, d - tol.sep_floor))
    return checks


def validate_quadrangle(q: QuadrangleConfig, tol: Tolerances = TOL) -> Certificate:
    """Full K1/K2/K3 certification of a quadrangle of bisectors."""
    # tance's check, for all pairs at once
    if (sign_classes(q.rows, tol) == 0).any():
        raise NullPointError("tance is undefined for null points")
    # the quadrangle's pairing and tance tables; eps below has the bits of epsilon
    h, ta = q._tables
    n = h.real.diagonal()

    # K1: all six pairwise tances strictly above 1
    k1_margins = (ta[_K1_ROWS] - 1.0).tolist()
    k1 = all(m > tol.asymptotic for m in k1_margins)

    # K2: both diagonal triangles transversal and counterclockwise
    k2_margins = {}
    k2 = k1
    if k1:
        # Python floats and complexes, so that eps multiplies as epsilon does
        # (TriangleInvariant.from_polars and is_transversal, on these floats)
        t, pair, norms = np.sqrt(ta).tolist(), h.tolist(), n.tolist()
        for name, (a, b, c) in (("triangle_124", (0, 1, 3)), ("triangle_342", (2, 3, 1))):
            eps = _unit_triple(pair[a][b] * pair[b][c] * pair[c][a], norms[a] * norms[b] * norms[c])
            margins = _transversality_margins(t[a][b], t[b][c], t[c][a], eps.real)
            k2_margins[name] = [*margins, -eps.imag]
            k2 = k2 and all(m > tol.strict_margin for m in margins) and eps.imag < 0.0
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
