"""Representation candidates: turnover baselines, bent solutions, and H5.

A turnover group G(n1,n2,n3) = <g1,g2,g3 | g_i^{n_i} = g3 g2 g1 = 1> acts on
the hyperbolic plane with quotient the sphere with three cone points.  This
module builds matrix representatives of such groups acting on H^2_C:

* ``fuchsian_turnover`` extends the planar rotation construction into the
  standard complex geodesic, choosing the free polar eigenphases of g1, g3
  to make as many relations exact as the obstruction below allows;
* ``turnover_solve`` searches a four-parameter family of genuinely
  two-dimensional-complex configurations for representations in which
  g2 := g3^-1 g1^-1 has exact projective order n2, with a bending phase on
  the polar eigenvalues of g1 and g3;
* ``h5_builder`` assembles five point reflections for the hyperelliptic
  group and reports the residual of their product relation.

Obstruction note.  An isometry stabilizing a complex geodesic is, up to a
scalar, a block pair (A, u) with A in U(1,1) and u in U(1); scaling the pair
identifies the stabilizer subgroup with U(1,1) via A/u.  A rotation by
-2pi/n about a point of the complex geodesic with polar eigenphase u has
block eigenvalues (1, e^{-2pi i/n}) up to scale, and its n-th power is
central exactly when u^n = 1.  Writing the planar triangle-rotation
relation in these terms shows that g2 = g3^-1 g1^-1 has projective order n2
for some choice of polar phases iff

    (1 + 2 k1)/n1 + (1 + 2 k2)/n2 + (1 + 2 k3)/n3  is an integer

for some integers k_i: a lifting condition on the Fuchsian representation.
It is solvable for (3,3,5) but provably unsolvable for (3,3,4), (2,3,7) and
(2,4,5) (the left side has odd numerator over an even common denominator).
For those signatures every relation except g2^{n2} still holds exactly, and
``turnover_solve`` finds honest order-n2 configurations away from the
complex-geodesic locus.

Stack kernels.  ``_rotation_table`` builds the twisted rotations of every
centre it is given in one pass; ``Representation.word_products`` multiplies
a list of words one token position at a time (``relation_residuals`` is
its case over every relation, ``word_product`` and ``relation_residual``
its one-word cases); ``_fixed_point_rows`` reads the fixed points of a
stack of elliptics from one eig call (``Representation.fixed_points`` and
the one-matrix ``elliptic_fixed_point`` are its cases).  Each row keeps
the bits of the one-object computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .core import (
    _SEEDS,
    _SIGNS,
    NEGATIVE,
    POSITIVE,
    Isometry,
    OrthogonalFrame,
    ProjectivePoint,
    classify,
    dot_rows,
    elliptic_from_frame,  # noqa: F401  (bench/tracer.py wraps chdisc.representations.elliptic_from_frame)
    polar_rows,
    reflection_about,
    _CUBE_ROOTS,
    _elliptic_rows,
    _form_adjoint,
    _form_pairs,
    _norms,
    _norms_and_squares,
    _points_of_units,
    _py_quotients,
    _sign_code,
    _tance_rows,
    _unit_det,
    _unit_reps,
)
from .disc import F0, _in_plane_frames, triangle_vertices
from .errors import (
    ClassError,
    ConvergenceError,
    GeometryError,
    HyperbolicityError,
    InvalidSolutionError,
)
from .lsq import least_squares
from .quadrangle import Certificate, QuadrangleConfig, validate_quadrangle
from .tolerances import TOL, Tolerances

_CUBE_ROOT_IDENTITIES = _CUBE_ROOTS[:, None, None] * np.eye(3)  # w I
_CUBE_ROOT_SCALARS = _CUBE_ROOT_IDENTITIES.reshape(3, 9)
_SIGNED_E = _SIGNS * _SEEDS[1:]  # _form_pairs(e_i, x) is dot_rows(_SIGNED_E[i], conj(x))


@dataclass(frozen=True)
class TurnoverSignature:
    """Cone orders (n1, n2, n3) of a hyperbolic turnover."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for n in self.orders():
            if not isinstance(n, (int, np.integer)) or n < 2:
                raise HyperbolicityError("cone orders must be integers >= 2")
        n1, n2, n3 = map(int, self.orders())
        # 1/n1 + 1/n2 + 1/n3 >= 1, times n1 n2 n3
        if n2 * n3 + n1 * n3 + n1 * n2 >= n1 * n2 * n3:
            raise HyperbolicityError(
                f"signature {self.orders()} is not hyperbolic: 1/n1+1/n2+1/n3 >= 1"
            )

    def orders(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    def angles(self) -> tuple[float, float, float]:
        return tuple(np.pi / n for n in self.orders())


def orbifold_euler(data) -> Fraction:
    """Orbifold Euler characteristic as an exact rational.

    Accepts a :class:`TurnoverSignature` (sphere with three cone points), an
    integer genus (closed surface), or a pair ``(genus, cone_orders)``.
    """
    if isinstance(data, TurnoverSignature):
        # -1 + 1/n1 + 1/n2 + 1/n3 over the common denominator n1 n2 n3
        n1, n2, n3 = map(int, data.orders())
        return Fraction(n2 * n3 + n1 * n3 + n1 * n2 - n1 * n2 * n3, n1 * n2 * n3)
    if isinstance(data, (int, np.integer)):
        return Fraction(2 - 2 * int(data))
    genus, cone_orders = data
    chi = Fraction(2 - 2 * int(genus))
    for n in cone_orders:
        chi -= 1 - Fraction(1, int(n))
    return chi


@dataclass
class Representation:
    """Named generator matrices plus the relation words they should satisfy.

    Words are space-separated generator names, optionally suffixed ``^-1``,
    composed left to right as matrix products (so the word "g3 g2 g1" is
    the isometry applying g1 first).
    """

    kind: str
    generators: dict
    relations: list
    metadata: dict = field(default_factory=dict)

    def word_products(self, words) -> np.ndarray:
        """The det-1 products of ``words`` as a (k, 3, 3) stack, in one pass
        per token position over every word that long.

        Each step is ``_unit_det(m @ g)`` from the identity, as a chain of
        ``Isometry`` products forms it, and a ``^-1`` token multiplies by
        ``Isometry.inverse``'s matrix, so each row has that chain's bits.
        Raises ``KeyError`` for the first unknown generator.
        """
        words = [w.split() if isinstance(w, str) else list(w) for w in words]
        factors = {}  # token -> its matrix
        for t in (t for w in words for t in w):
            if t in factors:
                continue
            name = t[:-3] if t.endswith("^-1") else t
            if name not in self.generators:
                raise KeyError(f"unknown generator {name!r}")
            g = self.generators[name]
            factors[t] = (g if t == name else g.inverse()).matrix
        m = np.repeat(Isometry.identity().matrix[None], len(words), axis=0)
        for step in range(max(map(len, words), default=0)):
            live = [i for i, w in enumerate(words) if len(w) > step]
            m[live] = _unit_det(m[live] @ np.array([factors[words[i][step]] for i in live]))
        return m

    def word_product(self, word) -> Isometry:
        """The one-word case of ``word_products``."""
        return Isometry(self.word_products([word])[0])

    def relation_residuals(self) -> dict:
        """``relation_residual`` of every relation, from one ``word_products`` pass."""
        return dict(zip(self.relations, _identity_distance(self.word_products(self.relations)).tolist()))

    def fixed_points(self) -> dict:
        """The fixed point of every generator, from one ``_fixed_point_rows``
        pass, as ``elliptic_fixed_point`` gives it; the ``ClassError`` of a
        generator that is not elliptic names it."""
        names = list(self.generators)
        rows = _fixed_point_rows(np.array([g.matrix for g in self.generators.values()]), names)
        return dict(zip(names, _points_of_units(rows)))


def relation_residual(rep: Representation, word) -> float:
    """min over cube roots of unity w of ||product - w I||_max, det-1 lift;
    the one-word case of ``Representation.relation_residuals``."""
    return float(_identity_distance(rep.word_product(word).matrix))


def _identity_distance(m):
    """Projective distance to the identity over a ``(..., 3, 3)`` stack:
    min over cube roots of unity w of max |m - w I|."""
    return np.abs(m[..., None, :, :] - _CUBE_ROOT_IDENTITIES).max(axis=(-2, -1)).min(axis=-1)


@dataclass
class QuadrangleFromRep:
    """The quadrangle C1..C4 of stable complex geodesics of a representation,
    as the polar configuration the certificate was computed on; the
    constructors return it beside the representation."""

    config: QuadrangleConfig
    certificate: Certificate


def _fixed_point_rows(m: np.ndarray, names) -> np.ndarray:
    """The fixed points in H^2_C of a (k, 3, 3) stack of elliptic isometries
    from one ``np.linalg.eig`` call, as a (k, 3) stack.

    Each is the first eigenvector of most negative square norm over its
    squared Euclidean norm, scaled as ``ProjectivePoint`` scales it.  Raises
    ``ClassError`` for the first matrix whose most negative eigenvector
    ``classify`` does not call negative (not elliptic), naming it by
    ``names`` and giving that eigenvector's normalised square norm.
    """
    vecs = np.ascontiguousarray(np.linalg.eig(m)[1].swapaxes(-1, -2))  # eigenvector rows
    s, sq = _norms_and_squares(vecs)
    rows = np.arange(len(m))
    best = (s / sq).argmin(axis=-1)
    s, sq = s[rows, best], sq[rows, best]
    bad = np.flatnonzero(_sign_code(s, sq, TOL.null_band) != -1)
    if bad.size:
        k = bad[0]
        raise ClassError(f"{names[k]} has no negative eigenvector (not elliptic): its most "
                         f"negative normalised square norm is {s[k] / sq[k]:.3g}, "
                         f"not below -{TOL.null_band:g}")
    return vecs[rows, best] / _norms(vecs)[rows, best, None]


def elliptic_fixed_point(g: Isometry) -> ProjectivePoint:
    """The fixed point in H^2_C of an elliptic isometry: the eigenvector of
    most negative square norm; raises ``ClassError`` when no eigenvector is
    negative (the element is not elliptic).  The one-matrix case of
    ``_fixed_point_rows``."""
    return _points_of_units(_fixed_point_rows(g.matrix[None], ["isometry"]))[0]


def _word_power(name: str, n: int) -> str:
    return " ".join([name] * n)


def _turnover_relations(sig: TurnoverSignature) -> list:
    return [
        _word_power("g1", sig.n1),
        _word_power("g2", sig.n2),
        _word_power("g3", sig.n3),
        "g3 g2 g1",
    ]


def _rotation_phases(n: int, k, bend: float) -> np.ndarray:
    """Eigenphases (1, e^{-2pi i/n}, e^{2pi i k/n + i bend}) of a twisted
    rotation; a ``(..., 3)`` stack when k is an array of twists."""
    k = np.asarray(k)
    phases = np.empty(k.shape + (3,), dtype=complex)
    phases[..., 0] = 1.0
    phases[..., 1] = np.exp(-2j * np.pi / n)
    phases[..., 2] = np.exp(1j * (2 * np.pi * k / n + bend))
    return phases


def _rotation_table(centers, orders, bend: float, tol: Tolerances):
    """The rotations by -2pi/n about disc points with polar eigenphase
    e^{2pi i k/n + i bend} for every twist k < n, for each centre and its
    order n: g and its inverse J g* J, stacked over the centres in turn and
    over k, with the bits of the ``Isometry`` operations.  A centre and an
    order may be given alone.  Every centre shares one frame build, one
    projector sum and one adjoint pass.
    """
    # Python ints: _rotation_phases divides a Python complex by n, which a
    # numpy integer would turn into a numpy quotient with other bits
    orders = [int(n) for n in np.atleast_1d(orders)]
    phases = np.concatenate([_rotation_phases(n, np.arange(n), bend) for n in orders])
    g = _elliptic_rows(np.repeat(_in_plane_frames(centers), orders, axis=0), phases, tol)
    return g, _unit_det(_form_adjoint(g))


def fuchsian_turnover(sig: TurnoverSignature, tol: Tolerances = TOL):
    """The rotation construction inside the standard complex geodesic.

    g1, g3 rotate by -2pi/n1, -2pi/n3 about the triangle vertices c1, c3 and
    g2 := g3^-1 g1^-1 fixes c2 and restricts to a rotation of order n2 on
    the complex geodesic.  The free polar eigenphases of g1, g3 are chosen
    (by exhaustive search over n-th roots of unity, preferring trivial
    phases on ties) to minimize the worst relation residual; see the module
    docstring for the signatures where the residual of g2^{n2} cannot
    vanish.  The n1 * n3 candidates are built as one table.  Returns
    ``(Representation, QuadrangleFromRep)``.
    """
    z1, z2, z3 = triangle_vertices(*sig.angles())
    gs, g_invs = _rotation_table([z1, z3], [sig.n1, sig.n3], 0.0, tol)
    g1s, g3s, g1_invs, g3_invs = gs[:sig.n1], gs[sig.n1:], g_invs[:sig.n1], g_invs[sig.n1:]
    r1 = _identity_distance(_unit_det(np.linalg.matrix_power(g1s, sig.n1)))
    r3 = _identity_distance(_unit_det(np.linalg.matrix_power(g3s, sig.n3)))
    # entry [k1, k3] is the candidate with polar twists k1, k3
    g2s = _unit_det(g3_invs[None] @ g1_invs[:, None])
    r2 = _identity_distance(_unit_det(np.linalg.matrix_power(g2s, sig.n2)))
    r4 = _identity_distance(_unit_det(_unit_det(g3s[None] @ g2s) @ g1s[:, None]))
    worst = np.maximum(np.maximum(r1[:, None], r2), np.maximum(r3[None], r4)).tolist()
    # Python's round on Python floats, not np.round: ties prefer small twists
    _, k1, k3 = min((round(r, 12), k1, k3)
                    for k1, row in enumerate(worst) for k3, r in enumerate(row))
    g1, g2, g3 = Isometry(g1s[k1]), Isometry(g2s[k1, k3]), Isometry(g3s[k3])

    # c1, c2, c3 as embed gives them and their polars with F0 as polar_span
    # gives them (c is never parallel to F0), then g2 c2, p4 = g1^-1 p2 and
    # g3 p2 as Isometry.__call__ maps them, and the two gaps as tance
    c = np.zeros((3, 3), dtype=complex)
    c[:, 0], c[:, 1] = 1.0, (z1, z2, z3)
    c = _unit_reps(c)
    p = _unit_reps(polar_rows(c, F0.v))
    maps = np.array([g2.matrix, g1_invs[k1], g3.matrix])
    image = _unit_reps((maps @ np.array([c[1], p[1], p[1]])[..., None])[..., 0])
    fixed_gap, c4_gap = np.abs(_tance_rows(image[:2], np.array([c[1], image[2]]), tol) - 1.0).tolist()
    if fixed_gap > tol.fixed_point:
        raise ConvergenceError(f"g2 does not fix c2 (tance gap {fixed_gap:g})")
    config = QuadrangleConfig(_points_of_units(np.concatenate([p, image[1:2]])))
    cert = validate_quadrangle(config, tol)

    rep = Representation(
        kind="turnover",
        generators={"g1": g1, "g2": g2, "g3": g3},
        relations=_turnover_relations(sig),
        metadata={
            "signature": sig.orders(),
            "polar_twists": (k1, k3),
            "worst_relation_residual": worst[k1][k3],
            "fixed_point_gap": fixed_gap,
            "c4_consistency_gap": c4_gap,
            "certificate_passed": cert.passed,
        },
    )
    return rep, QuadrangleFromRep(config, cert)


# -- bent representations ----------------------------------------------------

@dataclass(frozen=True)
class SolverSeed:
    """Reproducibility and search-budget knobs for turnover_solve: the seed
    of the start draws, the number of starts per polar twist, and the
    largest |bend| searched.  The residual a start must reach is
    ``Tolerances.solver_residual``."""

    seed: int = 0
    starts: int = 30
    window: float = 0.2


# the stopping options of every least-squares batch of turnover_solve
SOLVER_STOPPING = {"xtol": 1e-15, "ftol": 1e-15, "gtol": 1e-15, "max_nfev": 250}

# the box the starts are drawn from: a, b, psi, phi
_START_LOW = np.array([0.1, 0.0, -1.5, -np.pi])
_START_SPAN = np.array([0.9, 0.7, 1.5, np.pi]) - _START_LOW


def _outside_ball(params) -> bool:
    # the solver's window, 0.98, decides its answer: a start that leaves it
    # gets the 1e3 residual, so it cannot converge there, and
    # _bent_generators refuses it.
    return params[0] * params[0] + params[1] * params[1] >= 0.98


def _bent_inside(params, g1_inv: np.ndarray, phases: np.ndarray, n2: int):
    """g3 and g2 = g3^-1 g1^-1 of ``_bent_generators`` for a ``(k, 4)`` stack
    of rows that all lie inside the ball.

    Returns per row the frame vectors (x3, w1, w2) as built, g3 before its
    det normalization (m3), the det-1 g2, and the real residual vector
    ``(k, 18)`` of g2^{n2} - w I for the cube root w nearest to it.  Each
    row has the bits of the one-row scalar computation (np.dot pairings and
    Python complex quotients), sign of zero included:
    pairings and norms go through ``dot_rows``, the quotients through
    ``_py_quotients``.
    """
    a, b, psi, phi = params.T
    frame = np.empty((len(a), 3, 3), dtype=complex)  # rows x3, w1, w2
    x3 = frame[:, 0]
    x3[:, 0], x3[:, 1], x3[:, 2] = 1.0, a, b
    # e1 and e2 less their x3 components, with both quotients in one call
    q = _py_quotients(dot_rows(_SIGNED_E[:, None, :], np.conj(x3)), _form_pairs(x3, x3))
    u = _SEEDS[1] - q[0, :, None] * x3
    u = u / np.sqrt(_form_pairs(u, u).real)[:, None]
    v = _SEEDS[2] - q[1, :, None] * x3
    v = v - _py_quotients(_form_pairs(v, u), _form_pairs(u, u))[:, None] * u
    v = v / np.sqrt(_form_pairs(v, v).real)[:, None]
    cos, sin = np.cos(psi)[:, None], np.sin(psi)[:, None]
    frame[:, 1] = cos * u + (sin * np.exp(1j * phi)[:, None]) * v
    frame[:, 2] = (-sin * np.exp(-1j * phi)[:, None]) * u + cos * v
    unit = _unit_reps(frame)
    proj = unit[..., :, None] * (_SIGNS * np.conj(unit))[..., None, :]
    proj = proj / _form_pairs(unit, unit).real[..., None, None]
    # 0 + ... as the scalar path's sum() does, keeping the sign of zero
    m = 0 + phases[0] * proj[:, 0]
    m = m + phases[1] * proj[:, 1]
    m = m + phases[2] * proj[:, 2]
    g3_inv = _form_adjoint(_unit_det(m))
    g = _unit_det(_unit_det(g3_inv) @ g1_inv)
    power = np.linalg.matrix_power(g, n2)
    diffs = power.reshape(-1, 1, 9) - _CUBE_ROOT_SCALARS
    cands = np.concatenate([diffs.real, diffs.imag], axis=-1)
    best = np.argmin(np.sqrt(dot_rows(cands, cands)), axis=1)  # first of equal norms
    return frame, m, g, cands[np.arange(len(best)), best]


def _order_residuals(params, g1_inv, phases, n2):
    """The solver objective: the residual rows of ``_bent_inside``, and the
    residual 1e3 for rows with a^2 + b^2 >= 0.98 (outside the ball)."""
    inside = ~_outside_ball(params.T)
    if inside.all():
        return _bent_inside(params, g1_inv, phases, n2)[3]
    res = np.full((len(params), 18), 1e3)
    res[inside] = _bent_inside(params[inside], g1_inv, phases, n2)[3]
    return res


def _bent_generators(g1_inv, params, phases, n2, tol: Tolerances):
    """g2, g3 and g3's rotation-plane frame (w1, w2) of a bent candidate.

    ``g1_inv`` is the matrix of g1^-1, where g1 keeps the baseline fixed
    point and eigenframe; g3 is an order-n3-type elliptic with eigenphases
    ``phases`` whose fixed point (1, a, b) may leave the standard complex
    geodesic and whose rotation plane is mixed by the angle psi and phase
    phi; both carry the bending phase on their last eigenvalue.
    """
    if _outside_ball(params):
        raise ClassError("candidate fixed point left the ball model")
    frames, m3, g2, _ = _bent_inside(np.asarray(params, dtype=float)[None], g1_inv, phases, n2)
    x3, w1, w2 = (ProjectivePoint(f) for f in frames[0])
    OrthogonalFrame(x3, w1, w2).validate(tol)
    return Isometry(g2[0]), Isometry.from_matrix(m3[0], tol), w1, w2


def _quadrangle_candidates(sig, g1, g2, w1p, w2p, tol):
    """All stable-complex-geodesic choices for (C1, C2, C3) with C4 = g1^-1 C2.

    Each generator stabilizes two complex geodesics through its fixed
    point; candidates are enumerated in a deterministic order and paired
    with their certificates.
    """
    ev, vecs = np.linalg.eig(g2.matrix)
    neg = np.flatnonzero(_form_pairs(vecs.T, vecs.T).real < 0)
    if len(neg) != 1:
        return
    pos = [i for i in range(3) if i != neg[0]]
    # prefer the eigenvector pairing with the -2pi/n2 rotation of the fixed point
    tgt = np.exp(-2j * np.pi / sig.n2)
    pos.sort(key=lambda i: abs(ev[i] / ev[neg[0]] - tgt))
    g1_inv = g1.inverse()
    for p1 in (ProjectivePoint(_SEEDS[1]), ProjectivePoint(_SEEDS[2])):
        for i2 in pos:
            p2 = ProjectivePoint(vecs[:, i2])
            p4 = g1_inv(p2)
            for p3 in (w1p, w2p):
                try:
                    q = QuadrangleConfig((p1, p2, p3, p4))
                    yield q, validate_quadrangle(q, tol)
                except (GeometryError, np.linalg.LinAlgError):
                    continue


def turnover_solve(
    sig: TurnoverSignature,
    bend: float,
    seed_params: SolverSeed = SolverSeed(),
    tol: Tolerances = TOL,
):
    """Find a bent representation whose g2 has exact projective order n2.

    For ``bend == 0`` returns the ``fuchsian_turnover`` construction (the
    continuation origin).  Otherwise, for each choice of polar twists in
    order, it draws ``seed_params.starts`` starting points over the fixed
    point of g3 (two coordinates) and its rotation-plane mixing (angle and
    phase), and runs them in lockstep through ``least_squares``, minimizing
    ||g2^{n2} - w I|| over cube roots w.  Finished starts are taken in
    start order, and the first whose residual is within
    ``tol.solver_residual`` and whose quadrangle passes K1 and K2 is
    returned (K3 is reported in the certificate); later starts are never
    run to the end.  Each start follows, bit for bit, the trajectory of
    scipy's ``least_squares`` from the same point, so the answer is that of
    a one-start-at-a-time search.  Raises ``ConvergenceError`` if nothing
    converges and ``InvalidSolutionError`` if solutions converge but none
    certifies.  A quadrangle candidate that fails with a ``GeometryError``
    or ``LinAlgError`` is skipped; any other exception propagates.
    """
    if abs(bend) > seed_params.window:
        raise ConvergenceError(
            f"bend {bend} outside the solver window {seed_params.window}"
        )
    if bend == 0.0:
        rep, quad = fuchsian_turnover(sig, tol)
        rep.metadata["solver_log"] = {"bend": 0.0, "branch": "fuchsian baseline"}
        return rep, quad

    rng = np.random.default_rng(seed_params.seed)
    log = []
    first_invalid = None  # (twists, residual) of the first converged start that fails
    best_residual = np.inf
    g1s, g1_invs = _rotation_table(0j, sig.n1, bend, tol)
    for k1 in range(sig.n1):
        g1, g1_inv = Isometry(g1s[k1]), g1_invs[k1]
        for k3 in range(sig.n3):
            phases = _rotation_phases(sig.n3, k3, bend)
            # rng.uniform(low, high) for a, b, psi, phi, start by start: each is
            # low + (high - low) * rng.random()
            x0 = _START_LOW + _START_SPAN * rng.random((seed_params.starts, 4))
            solutions = least_squares(
                partial(_order_residuals, g1_inv=g1_inv, phases=phases, n2=sig.n2),
                x0, **SOLVER_STOPPING,
            )
            for start, sol in enumerate(solutions):
                residual = float(np.linalg.norm(sol.fun))
                best_residual = min(best_residual, residual)
                # unconverged, or g3 collapsed onto the fixed point of g1: the
                # collapse radius 0.05 decides which converged starts may give
                # the answer (not a Tolerances field, as for _outside_ball)
                if residual > tol.solver_residual or np.hypot(sol.x[0], sol.x[1]) < 0.05:
                    continue
                g2, g3, w1p, w2p = _bent_generators(g1_inv, sol.x, phases, sig.n2, tol)
                params = [float(v) for v in sol.x]
                log.append({"twists": (k1, k3), "start": start, "params": params,
                            "order_residual": residual})
                for q, cert in _quadrangle_candidates(sig, g1, g2, w1p, w2p, tol):
                    if cert.k1 and cert.k2:
                        rep = Representation(
                            kind="turnover",
                            generators={"g1": g1, "g2": g2, "g3": g3},
                            relations=_turnover_relations(sig),
                            metadata={
                                "signature": sig.orders(),
                                "bend": bend,
                                "polar_twists": (k1, k3),
                                "params": params,
                                "g2_order_residual": residual,
                                "certificate_passed": cert.passed,
                                "solver_log": log,
                            },
                        )
                        return rep, QuadrangleFromRep(q, cert)
                    if first_invalid is None:
                        first_invalid = ((k1, k3), residual)
    if first_invalid is not None:
        twists, residual = first_invalid
        raise InvalidSolutionError(
            f"solver converged (g2-order residual within {tol.solver_residual:g}, twists "
            f"{twists}) but no stable-geodesic choice passes K1 and K2", residual=residual
        )
    raise ConvergenceError(
        f"no order-{sig.n2} solution found at bend {bend}; "
        f"best residual {best_residual:.2e}"
    )


def h5_builder(p1: ProjectivePoint, others, tol: Tolerances = TOL) -> Representation:
    """Five point reflections generating a hyperelliptic-group candidate.

    ``p1`` must be positive (a reflection in a complex geodesic), the four
    ``others`` negative (point reflections).  The product relation residual
    of r5 r4 r3 r2 r1 is reported in the metadata, not required to vanish:
    finding vanishing configurations is the caller's search problem.
    """
    if classify(p1, tol) != POSITIVE:
        raise ClassError("p1 must be a positive point")
    others = list(others)
    if len(others) != 4:
        raise ClassError("h5_builder needs exactly four negative points")
    for p in others:
        if classify(p, tol) != NEGATIVE:
            raise ClassError("p2..p5 must be negative points")
    points = [p1, *others]
    gens = {f"r{i+1}": reflection_about(p, tol) for i, p in enumerate(points)}
    rep = Representation(
        kind="hyperelliptic",
        generators=gens,
        relations=[_word_power(f"r{i+1}", 2) for i in range(5)] + ["r5 r4 r3 r2 r1"],
        metadata={},
    )
    prod = rep.word_product("r5 r4 r3 r2 r1").matrix
    rep.metadata["product_residual"] = float(_identity_distance(prod))
    # record the sorted arguments of the product's eigenvalues, to compare
    # with those of a single reflection (eigenvalues 1, -1, -1)
    eigs = np.linalg.eigvals(prod)
    rep.metadata["product_eigenvalue_args"] = sorted(float(a) for a in np.angle(eigs))
    return rep
