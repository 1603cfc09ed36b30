"""Form, projective points, and isometries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdisc import (
    ClassError,
    FrameError,
    Isometry,
    NullPointError,
    OrthogonalFrame,
    ProjectivePoint,
    ZeroVectorError,
    classify,
    distance,
    elliptic_from_frame,
    herm_form,
    polar_span,
    reflection_about,
    tance,
)
from chdisc.core import (
    NEGATIVE,
    NULL,
    POSITIVE,
    GeometryDomainError,
    _tance_values,
    _unitary_tangent_basis,
    distance_matrix,
    gram,
    herm_rows,
    isometry_residual,
    self_norms,
    sign_classes,
)
from chdisc.disc import F0, embed

from conftest import random_isometry, random_negative_point, random_positive_point
from oracles import projective_distance

finite = st.floats(-3.0, 3.0, allow_nan=False)
vec = st.tuples(*[finite] * 6).map(
    lambda t: np.array([t[0] + 1j * t[1], t[2] + 1j * t[3], t[4] + 1j * t[5]])
)


@settings(max_examples=50, deadline=None)
@given(vec, vec, finite, finite)
def test_herm_form_sesquilinear(x, y, a, b):
    s = complex(a, b)
    assert herm_form(s * x, y) == pytest.approx(s * herm_form(x, y), abs=1e-9)
    assert herm_form(x, s * y) == pytest.approx(
        np.conj(s) * herm_form(x, y), abs=1e-9
    )
    assert herm_form(y, x) == pytest.approx(np.conj(herm_form(x, y)), abs=1e-12)


def test_herm_form_signature():
    e = np.eye(3)
    assert herm_form(e[0], e[0]) == -1.0
    assert herm_form(e[1], e[1]) == 1.0
    assert herm_form(e[2], e[2]) == 1.0


def test_projective_point_classes():
    assert classify(ProjectivePoint([1, 0.2, 0.1])) == NEGATIVE
    assert classify(ProjectivePoint([0, 1, 1j])) == POSITIVE
    assert classify(ProjectivePoint([1, 1, 0])) == NULL
    with pytest.raises(ZeroVectorError):
        ProjectivePoint([0, 0, 0])
    with pytest.raises(ZeroVectorError):
        ProjectivePoint([np.inf, 0, 0])


def test_projective_point_scale_invariance(rng):
    x = random_negative_point(rng)
    y = ProjectivePoint(x.v * (2.5 - 1.7j))
    assert x.is_parallel_to(y)
    assert tance(x, y) == pytest.approx(1.0, abs=1e-12)


def test_tance_distance_oracle():
    # distance from the origin to a disc point at euclidean radius r is
    # arctanh(r) at curvature -4, so tance = cosh(arctanh r)^2 = 1/(1-r^2)
    r = 0.6
    x, y = embed(0.0), embed(r)
    assert tance(x, y) == pytest.approx(1.0 / (1.0 - r * r), rel=1e-12)
    assert distance(x, y) == pytest.approx(np.arctanh(r), rel=1e-12)


def test_tance_rejects_null():
    null = ProjectivePoint([1, 1, 0])
    with pytest.raises(NullPointError):
        tance(null, embed(0.0))


def test_distance_requires_negative():
    with pytest.raises(ClassError):
        distance(embed(0.0), F0)


def test_polar_span_orthogonality(rng):
    x, y = random_negative_point(rng), random_negative_point(rng)
    p = polar_span(x, y)
    assert abs(herm_form(p.v, x.v)) < 1e-12
    assert abs(herm_form(p.v, y.v)) < 1e-12
    assert classify(p) == POSITIVE


def test_isometry_rejects_non_form_preserving():
    with pytest.raises(FrameError):
        Isometry.from_matrix(np.diag([2.0, 1.0, 1.0]))


def test_isometry_group_laws(rng):
    g, h = random_isometry(rng), random_isometry(rng)
    ident = Isometry.identity()
    assert projective_distance(g @ g.inverse(), ident) < 1e-12
    assert projective_distance((g @ h).inverse(), h.inverse() @ g.inverse()) < 1e-12
    assert isometry_residual(g.matrix) < 1e-12
    assert abs(np.linalg.det(g.matrix) - 1.0) < 1e-12


def test_projective_distance_cube_roots(rng):
    g = random_isometry(rng)
    w = np.exp(2j * np.pi / 3)
    h = Isometry(matrix=g.matrix * w)
    assert projective_distance(g, h) < 1e-12


def test_isometry_residual_detects_drift():
    m = np.eye(3, dtype=complex)
    m[1, 2] = 1e-3
    assert isometry_residual(m) > 1e-4


def test_elliptic_from_frame_eigenstructure():
    frame = OrthogonalFrame(
        ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 1, 0]), ProjectivePoint([0, 0, 1])
    )
    phases = [1.0, np.exp(1j * 0.7), np.exp(-1j * 0.3)]
    g = elliptic_from_frame(frame, phases)
    # fixes the frame point and realizes the requested eigenphases
    assert tance(g(ProjectivePoint([1, 0, 0])), ProjectivePoint([1, 0, 0])) == pytest.approx(1.0)
    ev = np.sort(np.angle(np.linalg.eigvals(g.matrix) / np.linalg.det(g.matrix) ** (1 / 3)))
    rel = np.sort([np.angle(p / phases[0]) for p in phases])
    # eigenvalue ratios are scale-free
    assert np.allclose(np.sort(ev - ev[0]), np.sort(rel - rel[0]), atol=1e-10)


def test_elliptic_from_frame_rejects_non_unit_phases():
    frame = OrthogonalFrame(
        ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 1, 0]), ProjectivePoint([0, 0, 1])
    )
    with pytest.raises(FrameError):
        elliptic_from_frame(frame, [1.0, 1.1, 1.0])


def test_frame_validation_rejects_wrong_classes():
    bad = OrthogonalFrame(
        ProjectivePoint([0, 1, 0]), ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 0, 1])
    )
    with pytest.raises(FrameError):
        bad.validate()


def test_reflection_fixes_and_inverts(rng):
    for p in (random_negative_point(rng), random_positive_point(rng)):
        r = reflection_about(p)
        assert projective_distance(r @ r, Isometry.identity()) < 1e-12
        assert tance(r(p), p) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NullPointError):
        reflection_about(ProjectivePoint([1, 1, 0]))


# --- array kernels -------------------------------------------------------------

disc_coord = st.floats(0.0, 0.95, allow_nan=False)
angle = st.floats(0.0, 2 * np.pi, allow_nan=False)
scale = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False)
negative_vec = st.tuples(disc_coord, st.floats(0.0, 1.0), angle, angle, scale).map(
    lambda t: t[4] * np.array([
        1.0,
        t[0] * np.sqrt(t[1]) * np.exp(1j * t[2]),
        t[0] * np.sqrt(1.0 - t[1]) * np.exp(1j * t[3]),
    ])
)


@settings(max_examples=50, deadline=None)
@given(st.lists(negative_vec, min_size=1, max_size=5), st.lists(negative_vec, min_size=1, max_size=5))
def test_batch_kernels_match_scalar(xs, ys):
    """The batch kernels equal the scalar functions elementwise to 1e-14
    relative.  Distances are compared where tance > 1.1: arccosh(sqrt(t))
    amplifies rounding without bound as t -> 1, for both kernels alike."""
    x, y = np.array(xs), np.array(ys)
    px, py = [ProjectivePoint(v) for v in xs], [ProjectivePoint(v) for v in ys]
    assert (sign_classes(x) == -1).all() and (sign_classes(y) == -1).all()
    np.testing.assert_allclose(self_norms(x), [herm_form(v, v).real for v in xs], rtol=1e-14)
    np.testing.assert_allclose(
        gram(x, y), [[herm_form(a, b) for b in ys] for a in xs], rtol=1e-14, atol=1e-14
    )
    ta = np.array([[tance(a, b) for b in py] for a in px])
    np.testing.assert_allclose(_tance_values(x, y), ta, rtol=1e-14)
    far = ta > 1.1
    d = np.array([[distance(a, b) if far[i, j] else 0.0 for j, b in enumerate(py)]
                  for i, a in enumerate(px)])
    np.testing.assert_allclose(distance_matrix(x, y)[far], d[far], rtol=1e-14)


def test_batch_sign_classes_match_classify():
    rows = np.array([[1, 0.2, 0.1j], [1, 1, 0], [0, 1, 1j], [1, 1 + 1e-11, 0]])
    codes = {NEGATIVE: -1, NULL: 0, POSITIVE: 1}
    assert sign_classes(rows).tolist() == [codes[classify(ProjectivePoint(v))] for v in rows]
    assert sign_classes(rows).tolist() == [-1, 0, 1, 0]


def test_distance_matrix_rejects_non_negative_rows():
    good = np.array([embed(0.0).v, embed(0.3).v])
    for bad in ([1, 1, 0], F0.v):  # a null row, a positive row
        with pytest.raises(ClassError):
            distance_matrix(good, np.array([embed(0.1).v, bad]))
        with pytest.raises(ClassError):
            distance_matrix(np.array([bad]), good)


def test_tance_floor_raises_geometry_domain_error():
    # negative points 1e-9 inside the boundary: rounding moves the tance of
    # a point and a rescaled copy of it off 1 by ~1e-7, so some phase
    # pushes it below 1 - 1e-9 for the batch and for the scalar kernel
    x = ProjectivePoint([1.0, np.sqrt(1.0 - 1e-9), 0.0])
    ys = [ProjectivePoint(np.exp(1j * psi) * x.v) for psi in np.linspace(0.1, 3.0, 30)]
    assert classify(x) == NEGATIVE and all(classify(y) == NEGATIVE for y in ys)
    stack = np.array([y.v for y in ys])
    assert _tance_values(x.v[None], stack).min() < 1.0 - 1e-9
    with pytest.raises(GeometryDomainError):
        distance_matrix(x.v[None], stack)
    low = [y for y in ys if tance(x, y) < 1.0 - 1e-9]
    assert low
    with pytest.raises(GeometryDomainError):
        distance(x, low[0])


def _every_seed_tangent_basis(x):
    """Gram-Schmidt over e0, e1, e2 on every row, projecting each seed against
    both basis slots, filled or not: the reference for ``_unitary_tangent_basis``."""
    xs = x / np.sqrt(-self_norms(x))[:, None]
    out = np.zeros((len(x), 2, 3), dtype=complex)
    found = np.zeros(len(x), dtype=int)
    for s in np.eye(3, dtype=complex):
        w = s - (gram(s[None], xs)[0] / self_norms(xs))[:, None] * xs
        for j in range(2):
            prev = out[:, j]
            pp = np.where(found > j, self_norms(prev), 1.0)
            w = w - (herm_rows(w, prev) / pp)[:, None] * prev
        n = self_norms(w)
        take = (n > 1e-12) & (found < 2)
        out[take, found[take]] = w[take] / np.sqrt(n[take])[:, None]
        found += take
    return out


def test_unitary_tangent_basis_matches_every_seed_loop(rng):
    # generic points take e0 and e1; points of the complex geodesic f0^perp
    # skip e1, and the origin skips e0
    points = [random_negative_point(rng) for _ in range(40)]
    points += [embed(z) for z in (0.0, 0.3, -0.2 + 0.5j)] + [ProjectivePoint([2.0, 0.0, 1e-3j])]
    x = np.array([p.v for p in points])
    basis = _unitary_tangent_basis(x)
    assert basis.tobytes() == _every_seed_tangent_basis(x).tobytes()
    g = np.einsum("nad,nbd->nab", basis * np.array([-1.0, 1.0, 1.0]), basis.conj())
    np.testing.assert_allclose(g, np.broadcast_to(np.eye(2), g.shape), atol=1e-13)
    np.testing.assert_allclose(herm_rows(basis, x[:, None]), 0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [[0.1, 1.0, 0.0], [1.0, 1.0, 0.0]])
def test_unitary_tangent_basis_rejects_a_non_negative_row(bad):
    """A positive or null row has no tangent basis: ClassError naming the
    row, raised before any square root of a non-negative norm is taken."""
    x = np.array([[1.0, 0.2, 0.1], bad, [1.0, 0.0, 0.3]], dtype=complex)
    with pytest.raises(ClassError, match="row 1 is not a negative point"):
        _unitary_tangent_basis(x)
