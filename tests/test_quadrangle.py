"""The eps invariant, transversality inequalities, and quadrangle certificates."""

import json

import numpy as np
import pytest

from chdisc import (
    QuadrangleConfig,
    TriangleInvariant,
    epsilon,
    is_transversal,
    polars_digest,
    transversality_margins,
    triangle_over_complex_geodesic,
    validate_quadrangle,
)
from chdisc.core import (
    ProjectivePoint,
    _points_of_units,
    distance,
    herm_form,
    herm_rows,
    min_distances,
    polar_rows,
    polar_span,
    self_norms,
    tance,
)
from chdisc.disc import F0, embed, triangle_vertices
from chdisc.errors import ClassError, DegenerateError, GeometryError, NullPointError
from chdisc.geometry import (
    ComplexGeodesic,
    _geodesic_rows,
    common_perpendicular,
)
from chdisc.io import canonical_dumps, quadrangle_to_json_dict, write_json
from chdisc import quadrangle as quadrangle_module
from chdisc.representations import TurnoverSignature, turnover_solve
from chdisc.quadrangle import (
    _side_gradients,
    _ring_table,
    _side_values,
    _slice_samples,
    adjacency_check,
)
from chdisc.tolerances import TOL, Tolerances

from chdisc.cli import EXIT_FAIL, main
from conftest import boost, random_disc_coordinate, random_isometry
from oracles import (
    bisector_basis,
    distance_matrix,
    staged_adjacency_check,
    polars_digest_per_component,
    slice_at,
    spine_point,
    triangle_area_gauss_bonnet,
)


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
    assert tri.eps.imag < 0.0  # counterclockwise


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


def _baseline_quadrangle(sig=(3, 3, 4)):
    n1, n2, n3 = sig
    z1, z2, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
    z4 = z2 * np.exp(2j * np.pi / n1)  # g1^-1 C2 of the turnover
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


def test_polars_digest_matches_the_per_component_loop():
    """The stacked phase normalisation keeps the digest of the loop over
    polars and components, on each base moved by 120 seeded isometries."""
    rng = np.random.default_rng(7)
    for q in _certify_bases():
        assert polars_digest(q.polars) == polars_digest_per_component(q.polars)
        for _ in range(120):
            g = random_isometry(rng)
            moved = tuple(g(p) for p in q.polars)
            assert polars_digest(moved) == polars_digest_per_component(moved)


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


def _reference_slice_samples(polar, center, mid, n, radius=1.0):
    """One sample at a time: the reference for ``_slice_samples``."""
    f = polar.v / np.sqrt(polar.self_form())
    x = center.v / np.sqrt(-center.self_form())
    # mid phase aligned to x, then the slice tangent J conj(x cross f) to mid
    m = mid.v * (-herm_form(x, mid.v) / abs(herm_form(x, mid.v)))
    d = np.array([-1.0, 1.0, 1.0]) * np.conj(np.cross(x, f))
    if abs(herm_form(m, d)) >= 1e-15:
        d = d * (-herm_form(m, d) / abs(herm_form(m, d)))
    d = d / np.sqrt(herm_form(d, d).real)
    pts = [ProjectivePoint(x)]
    for r in np.linspace(0.15, radius, max(max(n - 1, 1) // 8, 1)):
        for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            if len(pts) < n:
                pts.append(ProjectivePoint(np.cosh(r) * x + np.sinh(r) * np.exp(1j * phi) * d))
    return np.array([p.v for p in pts])


def _segment_reference(seg, mid, n_spine, n, radius=1.5):
    """Slice samples around n_spine spine points of a segment, one sample at a time."""
    xs = _geodesic_rows(seg.feet[0].v, seg.feet[1].v, np.linspace(0.0, 1.0, n_spine))
    polars = polar_rows(xs, bisector_basis(seg.bisector)[:, 2])
    return np.concatenate([_reference_slice_samples(ProjectivePoint(f), ProjectivePoint(x), mid, n, radius)
                           for f, x in zip(polars, xs)])


def _side_coordinates(seg):
    """The inverse of the basis (s1, s2, f) of a segment's bisector, s1 and s2
    scaled to <,> = -1 and f to <,> = 1."""
    b = seg.bisector
    s1, s2, f = (v / np.sqrt(abs(herm_form(v, v).real)) for v in (b.spine.x.v, b.spine.y.v, b.polar_f.v))
    return np.linalg.inv(np.column_stack([s1, s2, f]))


def _shared_slice_basis(x, p):
    """The unit tangent basis (J conj(s x p), p) at each sample s of P(p^perp),
    one sample at a time."""
    p = p / np.sqrt(herm_form(p, p).real)
    out = []
    for s in x:
        w = np.array([-1.0, 1.0, 1.0]) * np.conj(np.cross(s, p))
        out.append([w / np.sqrt(herm_form(w, w).real), p])
    return np.array(out)


def _reference_adjacency_check(q, tol=TOL):
    """K3 one perpendicular and one sample at a time: the reference for
    ``adjacency_check``, built from ``common_perpendicular`` and
    ``_reference_slice_samples``.  It has no degenerate-reference rule in (b)."""
    p1, p2, p3, p4 = q.polars
    c = [ComplexGeodesic(p) for p in q.polars]
    if p1.is_parallel_to(p3) or p2.is_parallel_to(p4):
        return [("degenerate", False, -1.0, "coincident opposite vertices")]
    perps = {}

    def perp(i, j):
        if (i, j) not in perps:
            perps[i, j] = common_perpendicular(c[i], c[j], tol)
        return perps[i, j]

    n = max(tol.k3_samples // 8, 4)
    ref = spine_point(perp(1, 3), 0.5)
    checks = []
    for shared, label in ((1, "transversal_at_C2"), (3, "transversal_at_C4")):
        seg_a, seg_b = perp(0, shared), perp(2, shared)
        x = _reference_slice_samples(c[shared].polar, seg_a.feet[1], ref, n)
        w = _shared_slice_basis(x, c[shared].polar.v)
        dirs = np.stack([w[:, 0], 1j * w[:, 0], w[:, 1], 1j * w[:, 1]], axis=1)
        ga, gb = (np.einsum("nk,nkc->nc", _side_gradients(_side_coordinates(s), x, dirs), dirs)
                  for s in (seg_a, seg_b))
        na, nb = np.sqrt(self_norms(ga)), np.sqrt(self_norms(gb))
        ok = (na >= 1e-12) & (nb >= 1e-12)
        cosang = np.abs(herm_rows(ga, gb).real) / np.where(ok, na * nb, 1.0)
        worst = float(np.where(ok, np.arccos(np.clip(cosang, 0.0, 1.0)), 0.0).min())
        checks.append((label, worst >= tol.angle_floor, worst - tol.angle_floor, ""))
    for other, label in ((1, "sector_B_C1C2"), (3, "sector_B_C1C4")):
        a = _side_coordinates(perp(0, other))
        side_ref = float(_side_values(a @ ref.v))
        x = _reference_slice_samples(p3, perp(other, 2).feet[1], ref, n, 0.8)
        worst = float((np.sign(side_ref) * _side_values(x @ a.T)).min())
        checks.append((label, worst > 0.0, worst, f"reference side {side_ref:+.3e}"))
    for (i, j), (k, l), label in (((0, 1), (2, 3), "disjoint_B12_B34"),
                                  ((1, 2), (3, 0), "disjoint_B23_B41")):
        dmin = float(distance_matrix(_segment_reference(perp(i, j), ref, 8, n),
                                     _segment_reference(perp(k, l), ref, 8, n), tol).min())
        checks.append((label, dmin >= tol.sep_floor, dmin - tol.sep_floor, ""))
    return checks


def _moved_segments(rng):
    """(segment, reference point) pairs: an untouched fiber configuration
    with a reference point in its complex geodesic f0^perp (the ring
    direction keeps the phase of its cross product) and off it, then two
    segments and the off reference point moved by an isometry."""
    q = _baseline_quadrangle()
    g = random_isometry(rng)
    c = [ComplexGeodesic(g(p)) for p in q.polars]
    fiber = common_perpendicular(ComplexGeodesic(q.polars[0]), ComplexGeodesic(q.polars[1]))
    off = ProjectivePoint([1.0, 0.2, 0.3j])
    return [(fiber, embed(0.2j)), (fiber, off),
            (common_perpendicular(c[0], c[1]), g(off)), (common_perpendicular(c[2], c[1]), g(off))]


@pytest.mark.parametrize("n", [4, 8, 9, 20])
def test_slice_samples_match_reference(rng, n):
    for k, (seg, mid) in enumerate(_moved_segments(rng)):
        # one stacked call: the foot on the second slice at radius 0.8, then
        # three spine points at radius 1.5 with their slice polars as K3
        # forms them, J conj(x cross f)
        xs = _geodesic_rows(seg.feet[0].v, seg.feet[1].v, np.linspace(0.0, 1.0, 3))
        sets = np.array([
            np.concatenate([seg.end_slices[1].polar.v[None], polar_rows(xs, bisector_basis(seg.bisector)[:, 2])]),
            np.concatenate([seg.feet[1].v[None], xs]),
        ])
        rings = _ring_table(n, (0.8, 1.5, 1.5, 1.5))
        got = _slice_samples(sets, rings, mid.v)
        ref = [_reference_slice_samples(seg.end_slices[1].polar, seg.feet[1], mid, n, 0.8)]
        for t in (0.0, 0.5, 1.0):
            x = spine_point(seg, t)
            ref.append(_reference_slice_samples(slice_at(seg.bisector, x).polar, x, mid, n, 1.5))
        np.testing.assert_allclose(got, np.concatenate(ref), atol=1e-14)
        if k:  # a reference point off f0^perp: the samples are functions of the points,
            # so complex multiples of the polars, centres and reference point give
            # other representatives of the same samples
            scale = rng.uniform(0.2, 5.0, (2, 4, 1)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (2, 4, 1)))
            moved = _slice_samples(sets * scale, rings, (0.3 - 1.2j) * mid.v)
            np.testing.assert_allclose(np.abs((moved.conj() * got).sum(axis=-1)), 1.0, rtol=0, atol=1e-13)


def test_side_gradient_matches_central_differences(rng):
    h = 1e-6
    pairs = _moved_segments(rng)
    segs = [seg for seg, _ in pairs]
    stacked_a = np.linalg.inv(np.stack([bisector_basis(seg.bisector) for seg in segs]))
    stacked_x = np.stack([_slice_samples(np.array([[seg.end_slices[1].polar.v], [seg.feet[1].v]]),
                                         _ring_table(8, (1.0,)), mid.v)
                          for seg, mid in pairs])
    for k, seg in enumerate(segs):
        a, x = stacked_a[k], stacked_x[k]
        # K3(a)'s basis on the slice P(p^perp) the samples lie in
        w = _shared_slice_basis(x, seg.end_slices[1].polar.v)
        dirs = np.stack([w[:, 0], 1j * w[:, 0], w[:, 1], 1j * w[:, 1]], axis=1)
        fd = (_side_values((x[:, None] + h * dirs) @ a.T)
              - _side_values((x[:, None] - h * dirs) @ a.T)) / (2.0 * h)
        got = _side_gradients(a, x, dirs)
        np.testing.assert_allclose(got, fd, rtol=0, atol=1e-8)
        # the same rows of a stacked call over all the bisectors
        np.testing.assert_allclose(
            _side_gradients(stacked_a, stacked_x, np.broadcast_to(dirs, (len(segs),) + dirs.shape))[k],
            got, rtol=0, atol=1e-15)
        # the tangent basis is <,>-unitary and orthogonal to each sample
        np.testing.assert_allclose(self_norms(w[:, 0]), 1.0, atol=1e-12)
        np.testing.assert_allclose(herm_rows(w[:, 0], w[:, 1]), 0.0, atol=1e-12)
        np.testing.assert_allclose(herm_rows(w[:, 0], x), 0.0, atol=1e-12)


def test_k3_separation_is_min_over_sampled_pairs():
    q = _baseline_quadrangle()
    c = [ComplexGeodesic(p) for p in q.polars]
    mid = spine_point(common_perpendicular(c[1], c[3]), 0.5)
    sa = _segment_reference(common_perpendicular(c[0], c[1]), mid, 8, 8)
    sb = _segment_reference(common_perpendicular(c[2], c[3]), mid, 8, 8)
    dmin = min(distance(ProjectivePoint(a), ProjectivePoint(b)) for a in sa for b in sb)
    check = next(k for k in adjacency_check(q) if k.name == "disjoint_B12_B34")
    assert check.margin + TOL.sep_floor == pytest.approx(dmin, abs=1e-12)


@pytest.mark.parametrize("sig", [(3, 3, 4), (3, 3, 5), (3, 4, 4), (4, 4, 4)])
def test_adjacency_check_matches_per_pair_reference(rng, sig):
    q0 = _baseline_quadrangle(sig)
    for k in range(101):
        g = random_isometry(rng)
        q = q0 if k == 0 else QuadrangleConfig(tuple(g(p) for p in q0.polars))
        for samples in (64, 160):
            tol = Tolerances(k3_samples=samples)
            got = [(c.name, c.passed, c.margin, c.detail) for c in adjacency_check(q, tol)]
            want = _reference_adjacency_check(q, tol)
            assert [w[:2] for w in got] == [w[:2] for w in want]
            assert all(type(w[1]) is bool for w in got)
            np.testing.assert_allclose([w[2] for w in got], [w[2] for w in want], rtol=0, atol=1e-12)


def _raised(check, q):
    try:
        check(q)
    except GeometryError as e:
        return type(e)
    return None


def _raised_message(check, q, tol):
    try:
        check(q, tol)
    except GeometryError as e:
        return type(e), str(e)
    return None


def test_adjacency_check_fails_degenerate_where_the_per_pair_reference_raises():
    """Where the per-pair and staged references raise (identical, concurrent
    or asymptotic pairs of complex geodesics), K3 fails K1's tance test and
    returns the one failing sub-check ``degenerate``; so do coincident
    opposite vertices, on which the references return it."""
    p = _baseline_quadrangle().polars
    concurrent = polar_span(embed(0.0), embed(0.3))  # the complex geodesic through C1's foot
    cases = [
        (p[0], ProjectivePoint(p[0].v * 1j), p[2], p[3]),  # C1 = C2: the first pair
        (ProjectivePoint([0, 0, 1]), ProjectivePoint([0, 1, 0]), p[2], p[3]),
        (p[0], p[1], p[2], concurrent),
        (concurrent, p[1], p[2], p[3]),
    ]
    degenerate = ("degenerate", False, -1.0)
    for polars in cases:
        q = QuadrangleConfig(polars)
        assert _raised(_reference_adjacency_check, q) is not None
        for samples in (8, 64, 80, 160):
            tol = Tolerances(k3_samples=samples)
            assert _raised_message(staged_adjacency_check, q, tol) is not None
            assert [(c.name, c.passed, c.margin) for c in adjacency_check(q, tol)] == [degenerate]
    q = QuadrangleConfig((p[0], p[1], ProjectivePoint(p[0].v * 1j), p[3]))  # C1 = C3
    assert _reference_adjacency_check(q)[0][:3] == degenerate
    assert [(c.name, c.passed, c.margin) for c in adjacency_check(q)] == [degenerate]


def test_k3_margins_do_not_depend_on_the_polar_representatives():
    """Multiplying each polar by a random unit scalar leaves every K3 margin
    within 1e-10 relative, on the four passing baselines and on the (3,3,4)
    quadrangles at bends 0.1 and -0.05: the ring directions and the side
    coordinates are functions of the points, not of their representatives."""
    rng = np.random.default_rng(2300)
    bent = [turnover_solve(TurnoverSignature(3, 3, 4), bend)[1].config for bend in (0.1, -0.05)]
    for q in [_baseline_quadrangle(sig) for sig in ((3, 3, 4), (3, 3, 5), (3, 4, 4), (4, 4, 4))] + bent:
        want = adjacency_check(q)
        for _ in range(50):
            phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 4))
            got = adjacency_check(QuadrangleConfig(tuple(ProjectivePoint(p.v * s) for p, s in zip(q.polars, phases))))
            assert [(c.name, c.passed) for c in got] == [(c.name, c.passed) for c in want]
            for g, w in zip(got, want):
                assert abs(g.margin - w.margin) < 1e-10 * max(1.0, abs(w.margin)), g.name


def test_sector_check_fails_on_a_degenerate_reference():
    # on the (2,3,7) baseline the midpoint of B[C2,C4] lies on both
    # bisectors through C1, so the reference side is rounding noise
    checks = {c.name: c for c in adjacency_check(_baseline_quadrangle((2, 3, 7)))}
    for name in ("sector_B_C1C2", "sector_B_C1C4"):
        c = checks[name]
        assert not c.passed
        assert c.detail.startswith("degenerate reference")
        assert -TOL.strict_margin <= c.margin < 0.0


# --- the stacked K1/K2 pass and K3(c) against the scalar paths --------------------


def _certify_bases():
    """The seven quadrangles the certify benchmark moves: four passing
    baselines, two K2 rejects built from (3,3,4) and the (2,3,7) baseline."""
    q = _baseline_quadrangle((3, 3, 4))
    z3 = triangle_vertices(np.pi / 3, np.pi / 3, np.pi / 4)[2]
    return [_baseline_quadrangle(sig) for sig in ((3, 3, 4), (3, 3, 5), (3, 4, 4), (4, 4, 4), (2, 3, 7))] + [
        QuadrangleConfig(tuple(ProjectivePoint(np.conj(p.v)) for p in q.polars)),
        QuadrangleConfig(q.polars[:2] + _fiber_polars(-z3) + q.polars[3:]),
    ]


def _moved(rng, q0, count):
    yield q0
    for _ in range(count):
        g = random_isometry(rng)
        yield QuadrangleConfig(tuple(g(p) for p in q0.polars))


def _k3_bits(checks):
    """Every field of each K3 sub-check, the margin as its exact bits."""
    assert all(type(c.passed) is bool and type(c.margin) is float for c in checks)
    return [(c.name, c.passed, c.margin.hex(), c.detail) for c in checks]


@pytest.mark.parametrize("samples", [8, 64, 80, 160])
def test_adjacency_check_equals_the_staged_reference_bit_for_bit(samples):
    """The one-stack kernels keep every bit of the staged K3
    (``oracles.staged_adjacency_check``): names, verdicts, margins and
    details, on the seven certify quadrangles, each unmoved and under 100
    seeded isometries.  At 80 and 160 samples a set wants 9 and 19 ring
    points, more than its rings hold."""
    rng = np.random.default_rng(1800 + samples)
    tol = Tolerances(k3_samples=samples)
    verdicts = set()
    for q0 in _certify_bases():
        for q in _moved(rng, q0, 100):
            got = _k3_bits(adjacency_check(q, tol))
            assert got == _k3_bits(staged_adjacency_check(q, tol))
            verdicts.add(all(c[1] for c in got))
    assert verdicts == {True, False}


def _reference_certificate(q, tol):
    """The canonical certificate file of ``q`` from the reference paths: K1
    and K2 one tance and one ``TriangleInvariant`` at a time, K3 from
    ``oracles.staged_adjacency_check`` and the digest from
    ``oracles.polars_digest_per_component``, written by plain ``json.dumps``."""
    p = q.polars
    k1_margins = [tance(p[i], p[j], tol) - 1.0 for i in range(4) for j in range(i + 1, 4)]
    k1 = all(m > tol.asymptotic for m in k1_margins)
    k2_margins, k2 = {}, k1
    if k1:
        for name, tri in (("triangle_124", TriangleInvariant.from_polars(p[0], p[1], p[3])),
                          ("triangle_342", TriangleInvariant.from_polars(p[2], p[3], p[1]))):
            ok, margins = is_transversal(tri, tol)
            k2_margins[name] = list(margins) + [-tri.eps.imag]
            k2 = k2 and ok and tri.eps.imag < 0.0
    checks = staged_adjacency_check(q, tol) if k2 else []
    k3 = k2 and all(c.passed for c in checks)
    doc = {
        "format": "chdisc/1",
        "kind": "certificate",
        "input_digest": polars_digest_per_component(p),
        "k1": {"pass": k1, "margins": k1_margins},
        "k2": {"pass": k2, "margins": k2_margins},
        "k3": {"pass": k3, "checks": [{"name": c.name, "pass": c.passed, "margin": c.margin, "detail": c.detail}
                                      for c in checks]},
        "pass": k3,
        "tolerances": {"asymptotic": tol.asymptotic, "strict_margin": tol.strict_margin,
                       "angle_floor": tol.angle_floor, "sep_floor": tol.sep_floor,
                       "k3_samples": tol.k3_samples},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@pytest.mark.parametrize("samples", [8, 64, 160])
def test_certificate_file_equals_the_reference_paths_byte_for_byte(samples):
    """The whole canonical certificate of ``validate_quadrangle`` equals the
    one assembled from the reference paths (``_reference_certificate``), on
    the seven certify quadrangles, each unmoved and under 100 seeded
    isometries: every verdict, margin, detail, digest and tolerance byte."""
    rng = np.random.default_rng(2400 + samples)
    tol = Tolerances(k3_samples=samples)
    verdicts = set()
    for q0 in _certify_bases():
        for q in _moved(rng, q0, 100):
            cert = validate_quadrangle(q, tol)
            assert canonical_dumps(cert.to_json_dict()) == _reference_certificate(q, tol)
            verdicts.add((cert.k1, cert.k2, cert.k3))
    assert verdicts == {(True, True, True), (True, False, False)}


@pytest.mark.parametrize("value", [64.0, 0, -8, True])
def test_k3_samples_must_be_a_positive_int(value):
    """K3 sizes its sample sets from k3_samples and every certificate records
    it, so a float, a count below 1 or a bool is refused when the
    tolerances are built."""
    with pytest.raises(ValueError, match="k3_samples must be a positive int"):
        Tolerances(k3_samples=value)


def test_degenerate_sector_reference_equals_the_staged_reference():
    """On the (2,3,7) baseline both sector checks fail on a degenerate
    reference, with the staged check's margins and details bit for bit."""
    q = _baseline_quadrangle((2, 3, 7))
    for samples in (8, 64, 80, 160):
        tol = Tolerances(k3_samples=samples)
        got = _k3_bits(adjacency_check(q, tol))
        assert got == _k3_bits(staged_adjacency_check(q, tol))
        assert [c[3].startswith("degenerate reference") for c in got[2:4]] == [True, True]


def test_k1_k2_equal_the_scalar_path(rng, monkeypatch):
    """K1 margins are tance - 1 and K2 margins and verdicts those of
    TriangleInvariant.from_polars and is_transversal, bit for bit."""
    monkeypatch.setattr(quadrangle_module, "adjacency_check", lambda q, tol: [])
    verdicts = set()
    for q0 in _certify_bases():
        for q in _moved(rng, q0, 100):
            cert = validate_quadrangle(q)
            p = q.polars
            k1_margins = [tance(p[i], p[j]) - 1.0 for i in range(4) for j in range(i + 1, 4)]
            assert cert.k1_margins == k1_margins
            assert cert.k1 == all(m > TOL.asymptotic for m in k1_margins)
            k2_margins, k2 = {}, cert.k1
            if cert.k1:
                for name, tri in (("triangle_124", TriangleInvariant.from_polars(p[0], p[1], p[3])),
                                  ("triangle_342", TriangleInvariant.from_polars(p[2], p[3], p[1]))):
                    ok, margins = is_transversal(tri)
                    k2_margins[name] = list(margins) + [-tri.eps.imag]
                    k2 = k2 and ok and tri.eps.imag < 0.0
            assert cert.k2_margins == k2_margins
            assert cert.k2 == k2
            verdicts.add((cert.k1, cert.k2))
    assert verdicts == {(True, True), (True, False)}


def test_k3_separation_margins_equal_distance_matrix_minima(rng, monkeypatch):
    seen = []

    def spy(x, y, tol):
        seen.append((x, y, tol))
        return min_distances(x, y, tol)

    monkeypatch.setattr(quadrangle_module, "min_distances", spy)
    for q0 in _certify_bases()[:4]:
        for q in _moved(rng, q0, 25):
            checks = {c.name: c for c in adjacency_check(q)}
            x, y, tol = seen.pop()
            for k, name in enumerate(("disjoint_B12_B34", "disjoint_B23_B41")):
                assert checks[name].margin == float(distance_matrix(x[k], y[k], tol).min()) - tol.sep_floor


def test_null_polar_error_survives_a_k1_failure():
    """A null band that makes the polars null raises NullPointError whether K1
    passes (the K3 perpendicular check) or fails (the K1 pairing pass)."""
    q = _baseline_quadrangle()
    fails_k1 = QuadrangleConfig((F0,) + q.polars[1:])
    assert not validate_quadrangle(fails_k1).k1
    for quad in (fails_k1, q):
        with pytest.raises(NullPointError):
            validate_quadrangle(quad, Tolerances(null_band=2.0))


def test_k2_degenerate_triple_product_raises():
    # F0 is orthogonal to the other polars; a K1 bound below every margin
    # lets K2 reach the vanishing triple product, which is exactly 0
    q = _baseline_quadrangle()
    with pytest.raises(DegenerateError, match="triple product vanishes"):
        validate_quadrangle(QuadrangleConfig((F0,) + q.polars[1:]), Tolerances(asymptotic=-2.0))
    with pytest.raises(DegenerateError, match="triple product vanishes"):
        epsilon(F0, q.polars[1], q.polars[3])
    # the floor is 1e-14 |n1 n2 n3|, that is t12 t23 t31 < 1e-14: moved by a
    # rapidity-6 boost, triangle_124's product of Euclidean-unit
    # representatives lies below 1e-14, and eps is the unmoved one
    g = boost(6.0, [1.0, 0.0])
    a, b, c = (g(q.polars[k]) for k in (0, 1, 3))
    assert abs(herm_form(a.v, b.v) * herm_form(b.v, c.v) * herm_form(c.v, a.v)) < 1e-14
    assert epsilon(a, b, c) == pytest.approx(epsilon(*(q.polars[k] for k in (0, 1, 3))), abs=1e-9)


#: Four polars on which K1 and K2 pass, the pairs (C1, C2) and (C2, C3) with
#: tance - 1 one double above ``asymptotic``: a quadrangle whose diagonal
#: triangles are thin, moved by a boost.  Pairings formed elementwise put
#: those tances below the threshold in the last bit.
_AT_ASYMPTOTIC = [
    [7.05842379696453e-08 - 0.0001530928753371109j, 0.999999976562604 - 3.162158347479339e-05j,
     7.213999753445254e-08 - 0.00014979128252927203j],
    [0j, 1 + 0j, 0j],
    [-7.058387302454594e-08 + 0.0001530928753371109j, 0.999999976562604 + 3.162158347479339e-05j,
     -7.213964045973977e-08 + 0.00014979128252927203j],
    [0.7071062108125401 + 0j, 0.14606498770037812 + 0j, 0.6918567958749989 + 0j],
]


def test_k3_decides_ultraparallel_with_the_k1_tances(monkeypatch, tmp_path):
    q = QuadrangleConfig(_points_of_units(np.array(_AT_ASYMPTOTIC)))
    monkeypatch.setattr(quadrangle_module, "adjacency_check", lambda q, tol: [])
    cert = validate_quadrangle(q)
    assert cert.k1 and cert.k2
    assert 0.0 < min(cert.k1_margins) - TOL.asymptotic < 1e-15
    monkeypatch.undo()
    # K3 takes K1's verdict and builds the common perpendiculars unchecked,
    # although the feet of (C1, C2) lie about 3e-5 apart: it is evaluated,
    # and fails on a named sub-check
    cert = validate_quadrangle(q)
    assert cert.k1 and cert.k2 and not cert.k3
    assert "transversal_at_C4" in [c.name for c in cert.k3_checks if not c.passed]
    # check-quadrangle writes that certificate and exits 2
    path = tmp_path / "thin.quad.json"
    write_json(path, quadrangle_to_json_dict(q))
    assert main(["check-quadrangle", str(path)]) == EXIT_FAIL
    assert (tmp_path / "thin.quad.cert.json").read_text() == canonical_dumps(cert.to_json_dict())


def _margins(cert) -> list:
    """Every K1, K2 and K3 margin of a certificate, in its JSON order."""
    k2 = [m for name in sorted(cert.k2_margins) for m in cert.k2_margins[name]]
    return cert.k1_margins + k2 + [c.margin for c in cert.k3_checks]


def _random_boosts(rng, rapidity: float, bound: float, count: int = 20) -> list:
    """(boost, margin bound) pairs: boosts of one rapidity along ``count``
    seeded random directions."""
    return [(boost(rapidity, rng.normal(size=2) + 1j * rng.normal(size=2)), bound) for _ in range(count)]


def test_boosted_baselines_keep_their_verdicts_and_margins():
    """The four baselines moved by boosts of rapidity 5 along 20 seeded random
    directions, and of rapidity 5 and 6 along the standard complex geodesic,
    keep their K1-K3 verdicts and sub-checks, and every margin within 1e-9
    relative (|change| / max(1, |margin|)); moved by boosts of rapidity 6
    and 7 along 20 further seeded random directions each, within 1e-7.  K3
    decides degeneracy by K1's tances, builds its slice polars on the
    spines without solving against the frames, and K2's triple-product
    floor is relative to the self norms, so none of them reads a quantity
    that isometries move; what is left is rounding, which grows with the
    rapidity."""
    rng = np.random.default_rng(5)
    for sig in ((3, 3, 4), (3, 3, 5), (3, 4, 4), (4, 4, 4)):
        q = _baseline_quadrangle(sig)
        want = validate_quadrangle(q)
        moves = [(boost(t, [1.0, 0.0]), 1e-9) for t in (5.0, 6.0)] + _random_boosts(rng, 5.0, 1e-9)
        moves += _random_boosts(rng, 6.0, 1e-7) + _random_boosts(rng, 7.0, 1e-7)
        for g, bound in moves:
            got = validate_quadrangle(QuadrangleConfig(tuple(g(p) for p in q.polars)))
            assert (got.k1, got.k2, got.k3) == (want.k1, want.k2, want.k3) == (True, True, True)
            assert [c.name for c in got.k3_checks] == [c.name for c in want.k3_checks]
            a, b = np.array(_margins(got)), np.array(_margins(want))
            assert a.shape == b.shape
            assert (np.abs(a - b) <= bound * np.maximum(1.0, np.abs(b))).all(), sig


def test_check_quadrangle_certifies_a_rapidity_7_baseline(tmp_path):
    """``check-quadrangle`` on the (3,3,4) baseline moved by a rapidity-7
    boost along (1, i) exits 0 and writes a passing certificate, the one
    ``validate_quadrangle`` gives."""
    g = boost(7.0, [1.0, 1j])
    q = QuadrangleConfig(tuple(g(p) for p in _baseline_quadrangle().polars))
    path = tmp_path / "boosted.quad.json"
    write_json(path, quadrangle_to_json_dict(q))
    assert main(["check-quadrangle", str(path)]) == 0
    cert = json.loads((tmp_path / "boosted.quad.cert.json").read_text())
    assert cert["pass"] is True and all(c["pass"] for c in cert["k3"]["checks"])
    assert (tmp_path / "boosted.quad.cert.json").read_text() == canonical_dumps(validate_quadrangle(q).to_json_dict())
