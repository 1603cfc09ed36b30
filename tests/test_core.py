"""Form, projective points, and isometries."""

from dataclasses import replace

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
    _check_frames,
    _euclidean_units,
    _points_of_units,
    _tance_rows,
    _tangent_basis_of_units,
    gram,
    herm_rows,
    min_distances,
    self_norms,
    sign_classes,
)
from chdisc.disc import F0, embed
from chdisc.geometry import _negative_units
from chdisc.tolerances import TOL

from conftest import random_isometry, random_negative_point, random_positive_point
from oracles import (
    distance_matrix,
    herm_rows_by_sum,
    isometry_residual,
    projective_distance,
    self_norms_by_blas,
    tance_per_pair,
    tance_values,
)

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


def test_tance_rows_have_the_bits_of_the_complex_scalar_formula(rng):
    """``tance`` is the one-pair case of ``_tance_rows``; both have the bits
    of the Python complex-scalar formula, on negative, positive and mixed
    pairs."""
    points = [random_negative_point(rng) for _ in range(20)] + [random_positive_point(rng) for _ in range(20)]
    rng.shuffle(points)
    x, y = points[:20], points[20:]
    rows = _tance_rows(np.array([p.v for p in x]), np.array([q.v for q in y]))
    for k, (p, q) in enumerate(zip(x, y)):
        assert rows[k].hex() == tance(p, q).hex() == tance_per_pair(p, q).hex()
    null = ProjectivePoint([1, 1, 0])
    with pytest.raises(NullPointError):
        _tance_rows(np.array([x[0].v, y[0].v]), np.array([y[1].v, null.v]))


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


@pytest.mark.parametrize("band", [TOL.null_band, -2.0])
def test_frame_check_rejects_wrong_classes_in_any_null_band(band):
    """A frame of the wrong classes fails in any null band: a negative band,
    like a positive one, only moves the null class, so the accept test reads
    its size, as ``min_distances`` and ``_slice_polars`` do."""
    frame = np.array([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]], dtype=complex)
    tol = replace(TOL, null_band=band)
    with pytest.raises(FrameError, match="has class positive, wanted negative"):
        _check_frames(frame, tol)
    good = frame[:, [1, 0, 2]]
    assert _check_frames(good, tol).tolist() == [[-1.0, 1.0, 1.0]]


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
    np.testing.assert_allclose(tance_values(x, y), ta, rtol=1e-14)
    far = ta > 1.1
    d = np.array([[distance(a, b) if far[i, j] else 0.0 for j, b in enumerate(py)]
                  for i, a in enumerate(px)])
    np.testing.assert_allclose(distance_matrix(x, y)[far], d[far], rtol=1e-14)


def _near_band_units(rng, n, rel):
    """n Euclidean-unit rows whose <x,x> / |x|^2 lies within ``rel``
    (relative) of -null_band or +null_band, scaled as ``ProjectivePoint``
    scales them: there the last bits of <x,x> and |x|^2 decide the class."""
    r = TOL.null_band * rng.choice([-1.0, 1.0], n) * (1.0 + rel * rng.uniform(-1.0, 1.0, n))
    # |x0| = 1 and |(x1, x2)|^2 = (1 + r) / (1 - r) give <x,x> / |x|^2 = r
    u = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    u *= (np.sqrt((1.0 + r) / (1.0 - r)) / np.linalg.norm(u, axis=1))[:, None]
    x = np.concatenate([np.exp(2j * np.pi * rng.uniform(size=(n, 1))), u], axis=1)
    return np.array([ProjectivePoint(v).v for v in x])


def test_batch_sign_classes_match_classify():
    rows = np.array([[1, 0.2, 0.1j], [1, 1, 0], [0, 1, 1j], [1, 1 + 1e-11, 0]])
    codes = {NEGATIVE: -1, NULL: 0, POSITIVE: 1}
    assert sign_classes(rows).tolist() == [codes[classify(ProjectivePoint(v))] for v in rows]
    assert sign_classes(rows).tolist() == [-1, 0, 1, 0]
    # at the band's edges classify is the one-row case of sign_classes
    near = _near_band_units(np.random.default_rng(7), 2000, 3e-6)
    got = sign_classes(near)
    assert set(got.tolist()) == {-1, 0, 1}
    assert got.tolist() == [codes[classify(p)] for p in _points_of_units(near)]


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
    assert tance_values(x.v[None], stack).min() < 1.0 - 1e-9
    with pytest.raises(GeometryDomainError):
        distance_matrix(x.v[None], stack)
    low = [y for y in ys if tance(x, y) < 1.0 - 1e-9]
    assert low
    with pytest.raises(GeometryDomainError):
        distance(x, low[0])


def _tangent_basis_rows(rng):
    """Negative points where a Gram-Schmidt over the seeds e0, e1, e2 would
    skip one, random ones, and ones at disc radius 0.99, each at a random phase."""
    skips = [[1.0, 0.0, 0.0], [-2.5j, 0.0, 0.0], [2.0, 0.0, 1e-3j]]  # the origin, x1 = 0
    skips += [embed(z).v for z in (0.0, 0.3, -0.2 + 0.5j, 0.7j, 1e-7)]  # x2 = 0
    skips += [[1.0, 0.0, z] for z in (0.4, -0.3 - 0.6j)]
    generic = [random_negative_point(rng).v for _ in range(40)]
    direction = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    edge = np.concatenate([np.ones((20, 1)), 0.99 * direction / np.linalg.norm(direction, axis=1)[:, None]], axis=1)
    x = np.concatenate([np.array(skips, dtype=complex), generic, edge])
    return x * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (len(x), 1)))


def test_tangent_basis_of_units_is_a_unitary_basis_of_the_tangent_space(rng):
    """The closed-form basis is <,>-unitary and tangent at every point, the
    former seed-skip rows and points near the boundary included, and w1 does
    not move under a unit rephasing of x."""
    xs = _negative_units(_tangent_basis_rows(rng))
    basis = _tangent_basis_of_units(xs)
    g = herm_rows(basis[:, :, None], basis[:, None])
    assert np.abs(g - np.eye(2)).max() < 1e-13
    scale = np.linalg.norm(basis, axis=-1) * np.linalg.norm(xs, axis=-1)[:, None]
    assert (np.abs(herm_rows(basis, xs[:, None])) <= 1e-12 * scale).all()
    w1 = _tangent_basis_of_units(xs * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (len(xs), 1))))[:, 0]
    assert (np.linalg.norm(w1 - basis[:, 0], axis=-1) <= 1e-15 * np.linalg.norm(basis[:, 0], axis=-1)).all()


def test_tangent_basis_of_units_w1_is_the_projection_of_e1(rng):
    """w1 is e1 - <e1, x>/<x, x> x, the <,>-projection of e1 into x^perp, at
    unit form norm; computed here on the unscaled representatives, whose
    <x, x> cancels near the boundary (the bound is the oracle's rounding)."""
    x = _tangent_basis_rows(rng)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    p = e1 - (herm_rows(e1, x) / self_norms(x))[:, None] * x
    np.testing.assert_allclose(_tangent_basis_of_units(_negative_units(x))[:, 0],
                               p / np.sqrt(self_norms(p))[:, None], rtol=0.0, atol=1e-12)


def test_tangent_basis_of_units_rows_do_not_depend_on_their_neighbours(rng):
    """A row's bits are the same alone, in the whole stack and in a shuffled
    stack."""
    xs = _negative_units(_tangent_basis_rows(rng))
    basis = _tangent_basis_of_units(xs)
    order = rng.permutation(len(xs))
    assert _tangent_basis_of_units(xs[order]).tobytes() == basis[order].tobytes()
    for k in range(len(xs)):
        assert basis[k].tobytes() == _tangent_basis_of_units(xs[k:k + 1])[0].tobytes()


def _per_pair_min_distance(x, y, tol):
    """distance_matrix(...).min() for each k in turn: the reference for min_distances."""
    out = []
    for k in range(len(x)):
        out.append(distance_matrix(x[k], y[k], tol).min())
    return out


def test_min_distances_equal_distance_matrix_minima(rng):
    # clouds of points around two centres, and near-ties: copies of one point
    # moved by isometries, so many tances agree to the last few bits
    for _ in range(20):
        x = np.array([[random_negative_point(rng).v for _ in range(40)] for _ in range(3)])
        g = random_isometry(rng)
        y = np.array([[g(random_negative_point(rng, 0.3)).v for _ in range(40)] for _ in range(3)])
        y[1] = x[1] @ g.matrix.T
        # one point against one other, each under 40 phases: 1600 equal tances
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 40, 1)))
        x[2], y[2] = phases[0] * x[2, 0], phases[1] * y[2, 0]
        got = min_distances(x, y)
        assert got.tolist() == _per_pair_min_distance(x, y, TOL)


def _raised(f, *args):
    try:
        f(*args)
    except Exception as e:  # noqa: BLE001  the type and message are the result
        return type(e), str(e)
    return None


def test_min_distances_raise_what_distance_matrix_raises():
    # a tance below the floor (see test_tance_floor_raises_geometry_domain_error),
    # a null row and a positive row, in every order over two pairs
    x = ProjectivePoint([1.0, np.sqrt(1.0 - 1e-9), 0.0])
    low = np.array([np.exp(1j * psi) * x.v for psi in np.linspace(0.1, 3.0, 30)])
    near = np.repeat(x.v[None], 30, axis=0)
    good = np.array([embed(z).v for z in np.linspace(-0.5, 0.5, 30)])
    null, pos = good.copy(), good.copy()
    null[3], pos[7] = [1, 1, 0], F0.v
    pairs = {"ok": (good, good[::-1]), "low": (near, low), "null": (good, null), "pos": (pos, good)}
    for a in pairs:
        for b in pairs:
            x2 = np.array([pairs[a][0], pairs[b][0]])
            y2 = np.array([pairs[a][1], pairs[b][1]])
            want = _raised(_per_pair_min_distance, x2, y2, TOL)
            assert _raised(min_distances, x2, y2) == want, (a, b)
            assert (want is None) == (a == b == "ok")


# -- the signed sums against the reductions they replace ---------------------------

def _blas_sums_in_order() -> bool:
    """Whether BLAS computes |x|^2 @ (-1, 1, 1) as (q1 - q0) + q2, the order
    of ``self_norms``, for a vector and for stacks.

    The probe's squares are exact, and every other association of its sum
    rounds differently.  OpenBLAS's SkylakeX kernels sum in this order;
    others (``OPENBLAS_CORETYPE=Prescott``) need not.
    """
    x = np.array([1.0, 1.0 + 2.0 ** -26, 2.0 ** -30])
    want = (2.0 ** -25 + 2.0 ** -52) + 2.0 ** -60
    return all((self_norms_by_blas(np.tile(x, (k, 1))) == want).all() for k in (1, 2, 8, 1000)) \
        and self_norms_by_blas(x) == want


def _rows_with_zero_parts(rng, shape):
    """Complex rows spanning many magnitudes, with +-0 real and imaginary parts."""
    x = rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape)) + 1j * rng.normal(size=shape)
    for part, zero in ((x.real, 0.0), (x.imag, -0.0), (x.real, -0.0), (x.imag, 0.0)):
        part[rng.random(shape) < 0.15] = zero
    return x


KERNEL_SHAPES = [(3,), (1, 3), (2, 8, 3), (1000, 3)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_herm_rows_has_the_bits_of_the_length_3_sum(rng, shape):
    """(p1 - p0) + p2 is the order numpy's sum over a length-3 axis takes.
    ``==`` equal (equal doubles have equal bits, but for the sign of a zero
    part, which the sum sets by its own order of signed zeros)."""
    for _ in range(5):
        x, y = _rows_with_zero_parts(rng, shape), _rows_with_zero_parts(rng, shape)
        assert np.array_equal(herm_rows(x, y), herm_rows_by_sum(x, y))
        assert np.array_equal(herm_rows(x, y.real), herm_rows_by_sum(x, y.real))


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_self_norms_has_the_bits_of_the_blas_product(rng, shape):
    """Bit for bit where BLAS sums in ``self_norms``'s order; elsewhere the
    two differ by the rounding of one other association."""
    for _ in range(5):
        x = _rows_with_zero_parts(rng, shape)
        ours, blas = self_norms(x), self_norms_by_blas(x)
        if _blas_sums_in_order():
            assert np.array_equal(ours, blas)
        else:
            scale = np.abs(x) ** 2
            np.testing.assert_allclose(ours, blas, rtol=0, atol=4e-16 * scale.max())


def test_signed_sums_do_not_depend_on_the_stack_shape(rng):
    """A (3,) vector and every row of a stack get the same bits, which BLAS
    dot and gemv do not promise."""
    x, y = _rows_with_zero_parts(rng, (64, 3)), _rows_with_zero_parts(rng, (64, 3))
    stacked_h, stacked_n = herm_rows(x, y), self_norms(x)
    assert np.array([herm_rows(a, b) for a, b in zip(x, y)]).tobytes() == stacked_h.tobytes()
    assert np.array([self_norms(a) for a in x]).tobytes() == stacked_n.tobytes()
    assert herm_rows(x.reshape(8, 8, 3), y.reshape(8, 8, 3)).tobytes() == stacked_h.tobytes()


@pytest.mark.parametrize("shape", KERNEL_SHAPES + [(36, 8, 3)])
def test_euclidean_units_have_the_bits_of_linalg_norm(rng, shape):
    """Rows scaled by ``np.linalg.norm(x, axis=-1, keepdims=True)``, byte for
    byte: the explicit left-to-right sum of the three |x_k|^2 is numpy's
    order for a length-3 axis."""
    for _ in range(5):
        x = _rows_with_zero_parts(rng, shape)
        assert _euclidean_units(x).tobytes() == (x / np.linalg.norm(x, axis=-1, keepdims=True)).tobytes()
