"""The eps invariant, transversality inequalities, and quadrangle certificates."""

import numpy as np
import pytest

from chdisc import (
    NotTransversalError,
    QuadrangleConfig,
    TriangleInvariant,
    epsilon,
    is_counterclockwise,
    is_transversal,
    polars_digest,
    transversality_margins,
    triangle_over_complex_geodesic,
    validate_quadrangle,
)
from chdisc.core import (
    ProjectivePoint,
    _unitary_tangent_basis,
    distance,
    herm_form,
    herm_rows,
    polar_span,
    self_norms,
)
from chdisc.disc import F0, embed, triangle_area_gauss_bonnet, triangle_vertices
from chdisc.errors import ClassError, DegenerateError
from chdisc.geometry import ComplexGeodesic, common_perpendicular
from chdisc.quadrangle import (
    _bisector_coordinates,
    _segment_samples,
    _side_gradients,
    _side_values,
    _slice_samples,
    adjacency_check,
)
from chdisc.tolerances import TOL

from conftest import random_disc_coordinate, random_isometry, scalar_geodesic_interp


def _fiber_polars(*zs):
    return tuple(polar_span(embed(z), F0) for z in zs)


def test_epsilon_unit_and_cyclic(rng):
    p1, p2, p3 = _fiber_polars(0.0, 0.4, 0.3j)
    e = epsilon(p1, p2, p3)
    assert abs(abs(e) - 1.0) < 1e-12
    assert epsilon(p2, p3, p1) == pytest.approx(e, abs=1e-12)
    # reversing the cyclic order conjugates
    assert epsilon(p3, p2, p1) == pytest.approx(np.conj(e), abs=1e-12)
    # invariant under complex rescaling of representatives: each polar
    # enters once linearly and once conjugate-linearly
    p1s = ProjectivePoint(p1.v * (0.3 - 2.2j))
    assert epsilon(p1s, p2, p3) == pytest.approx(e, abs=1e-12)


def test_epsilon_degenerate():
    p1, p2, _ = _fiber_polars(0.0, 0.4, 0.3j)
    # F0 is orthogonal to every fiber polar
    with pytest.raises(DegenerateError):
        epsilon(p1, F0, p2)


def test_eps_area_law_fiber_triangle():
    z1, z2, z3 = triangle_vertices(np.pi / 3, np.pi / 4, np.pi / 5)
    _, tri = triangle_over_complex_geodesic(F0, embed(z1), embed(z2), embed(z3))
    area = triangle_area_gauss_bonnet(z1, z2, z3)
    assert np.angle(tri.eps) == pytest.approx(-2.0 * area, abs=1e-10)
    ok, _ = is_transversal(tri)
    assert ok
    assert is_counterclockwise(tri)


def test_triangle_over_complex_geodesic_rejects_bad_input():
    with pytest.raises(ClassError):
        triangle_over_complex_geodesic(embed(0.0), embed(0.1), embed(0.2), embed(0.3j))
    with pytest.raises(ClassError):
        # vertex outside the standard complex geodesic
        triangle_over_complex_geodesic(
            F0, embed(0.1), embed(0.2), ProjectivePoint([1.0, 0.1, 0.3])
        )


def test_transversality_margins_signs():
    p1, p2, p3 = _fiber_polars(0.0, 0.4, 0.3j)
    tri = TriangleInvariant.from_polars(p1, p2, p3)
    margins = transversality_margins(tri)
    assert all(m > 0 for m in margins)
    # an almost-degenerate thin triangle loses transversality
    thin = TriangleInvariant(t12=5.0, t23=5.0, t31=1.0, eps=complex(-1.0, 0.0))
    assert not is_transversal(thin)[0]
    with pytest.raises(NotTransversalError):
        is_counterclockwise(thin)


def _baseline_quadrangle():
    z1, z2, z3 = triangle_vertices(np.pi / 3, np.pi / 3, np.pi / 4)
    z4 = z2 * np.exp(2j * np.pi / 3)  # g1^-1 C2 for the (3,3,4) turnover
    return QuadrangleConfig(_fiber_polars(z1, z2, z3, z4))


def test_validate_quadrangle_baseline_passes():
    cert = validate_quadrangle(_baseline_quadrangle())
    assert cert.k1 and cert.k2 and cert.k3 and cert.passed
    assert all(m > 0 for m in cert.k1_margins)
    for margins in cert.k2_margins.values():
        assert all(m > 0 for m in margins)
    assert all(c.passed for c in cert.k3_checks)
    doc = cert.to_json_dict()
    assert doc["kind"] == "certificate"
    assert doc["pass"] is True
    assert doc["input_digest"] == polars_digest(_baseline_quadrangle().polars)


def test_quadrangle_rejects_negative_polars():
    with pytest.raises(ClassError):
        QuadrangleConfig((embed(0.0),) + _fiber_polars(0.4, 0.3j, -0.2))


def test_polars_digest_stability(rng):
    q = _baseline_quadrangle()
    d1 = polars_digest(q.polars)
    # digest is invariant under phase changes of representatives
    twisted = [ProjectivePoint(p.v * np.exp(1j * rng.uniform())) for p in q.polars]
    assert polars_digest(twisted) == d1
    other = _fiber_polars(0.0, 0.4, 0.3j, -0.2)
    assert polars_digest(other) != d1


def test_validate_quadrangle_k1_failure():
    q = _baseline_quadrangle()
    # F0 is orthogonal to every fiber polar: tance 0 <= 1 against all others
    bad = QuadrangleConfig((F0,) + q.polars[1:])
    cert = validate_quadrangle(bad)
    assert not cert.k1
    assert min(cert.k1_margins) < 0
    assert not cert.passed
    # downstream checks are gated off
    assert cert.k2_margins == {} and cert.k3_checks == []


def test_validate_quadrangle_k2_failure_clockwise():
    q = _baseline_quadrangle()
    # conjugating all polars is an anti-holomorphic isometry: tances (K1)
    # survive but both eps invariants flip to clockwise
    conj = QuadrangleConfig(tuple(ProjectivePoint(np.conj(p.v)) for p in q.polars))
    cert = validate_quadrangle(conj)
    assert cert.k1
    assert not cert.k2
    for margins in cert.k2_margins.values():
        assert margins[-1] < 0  # the ccw margin -eps1
    assert not cert.passed


# --- K3 kernels against loop/finite-difference references ------------------------


def _reference_slice_samples(polar, center, n, radius=1.0):
    """One sample at a time: the reference for ``_slice_samples``."""
    f = polar.v / np.sqrt(polar.self_form())
    x = center.v / np.sqrt(-center.self_form())
    xs = x / np.sqrt(-herm_form(x, x).real)
    basis = []
    for s in np.eye(3, dtype=complex):
        w = s - (herm_form(s, xs) / herm_form(xs, xs).real) * xs
        for prev in basis:
            w = w - (herm_form(w, prev) / herm_form(prev, prev).real) * prev
        if herm_form(w, w).real > 1e-12:
            basis.append(w / np.sqrt(herm_form(w, w).real))
        if len(basis) == 2:
            break
    w1, w2 = basis
    for w in (w1, w2, w1 + w2):
        if abs(herm_form(w, f)) < 1e-8:
            d = w / np.sqrt(herm_form(w, w).real)
            break
    else:
        d = w1 - herm_form(w1, f) * f
        d = d / np.sqrt(herm_form(d, d).real)
    pts = [ProjectivePoint(x)]
    for r in np.linspace(0.15, radius, max(max(n - 1, 1) // 8, 1)):
        for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            if len(pts) < n:
                pts.append(ProjectivePoint(np.cosh(r) * x + np.sinh(r) * np.exp(1j * phi) * d))
    return np.array([p.v for p in pts])


def _moved_segments(rng):
    q = _baseline_quadrangle()
    g = random_isometry(rng)
    c = [ComplexGeodesic(g(p)) for p in q.polars]
    # an untouched fiber configuration (coordinate-aligned directions) and
    # a moved one (the generic fallback direction)
    return [common_perpendicular(ComplexGeodesic(q.polars[0]), ComplexGeodesic(q.polars[1])),
            common_perpendicular(c[0], c[1]), common_perpendicular(c[2], c[1])]


@pytest.mark.parametrize("n", [4, 8, 9, 20])
def test_slice_samples_match_reference(rng, n):
    for seg in _moved_segments(rng):
        polar, center = seg.end_slices[1].polar, seg.feet[1]
        got = _slice_samples(polar.v[None], center.v[None], n, radius=0.8)
        np.testing.assert_allclose(got, _reference_slice_samples(polar, center, n, 0.8), atol=1e-14)
        # the last spine point and its slice polar J conj(x cross f), one at a time
        end = scalar_geodesic_interp(seg.feet[0], seg.feet[1], 1.0)
        polar = ProjectivePoint(np.array([-1.0, 1.0, 1.0]) * np.conj(np.cross(end.v, seg.bisector.polar_f.v)))
        ref = _reference_slice_samples(polar, end, n, 1.5)
        stacked = _segment_samples(seg, 3, n)
        assert stacked.shape == (3 * len(ref), 3)
        np.testing.assert_allclose(stacked[-len(ref):], ref, atol=1e-14)


def test_side_gradient_matches_central_differences(rng):
    h = 1e-6
    for seg in _moved_segments(rng):
        a = _bisector_coordinates(seg.bisector)
        x = _slice_samples(seg.end_slices[1].polar.v[None], seg.feet[1].v[None], 8)
        w = _unitary_tangent_basis(x)
        dirs = np.stack([w[:, 0], 1j * w[:, 0], w[:, 1], 1j * w[:, 1]], axis=1)
        fd = (_side_values((x[:, None] + h * dirs) @ a.T)
              - _side_values((x[:, None] - h * dirs) @ a.T)) / (2.0 * h)
        np.testing.assert_allclose(_side_gradients(a, x, dirs), fd, rtol=0, atol=1e-8)
        # the tangent basis is <,>-unitary and orthogonal to each sample
        np.testing.assert_allclose(self_norms(w[:, 0]), 1.0, atol=1e-12)
        np.testing.assert_allclose(herm_rows(w[:, 0], w[:, 1]), 0.0, atol=1e-12)
        np.testing.assert_allclose(herm_rows(w[:, 0], x), 0.0, atol=1e-12)


def test_k3_separation_is_min_over_sampled_pairs():
    q = _baseline_quadrangle()
    c = [ComplexGeodesic(p) for p in q.polars]
    sa = _segment_samples(common_perpendicular(c[0], c[1]), 8, 8)
    sb = _segment_samples(common_perpendicular(c[2], c[3]), 8, 8)
    dmin = min(distance(ProjectivePoint(a), ProjectivePoint(b)) for a in sa for b in sb)
    check = next(k for k in adjacency_check(q) if k.name == "disjoint_B12_B34")
    assert check.margin + TOL.sep_floor == pytest.approx(dmin, abs=1e-12)
