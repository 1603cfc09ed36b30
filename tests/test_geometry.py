"""Complex geodesics, bisectors, common perpendiculars, and slices."""

import numpy as np
import pytest

from chdisc import (
    Bisector,
    ClassError,
    ComplexGeodesic,
    DegenerateError,
    Geodesic,
    NotOnSpineError,
    NotUltraparallelError,
    ProjectivePoint,
    common_perpendicular,
    distance,
    geodesic_interp,
    polar_span,
    position,
    real_plane_check,
    slice_at,
    spine_point,
)
from chdisc.disc import F0, embed
from chdisc.geometry import (
    ASYMPTOTIC,
    CONCURRENT,
    ULTRAPARALLEL,
    _geodesic_rows,
    _perpendicular_rows,
    _slice_polars,
)

from conftest import random_negative_point, scalar_geodesic_interp


def _fiber(z: complex) -> ComplexGeodesic:
    """The complex geodesic through embed(z) orthogonal to the standard one."""
    return ComplexGeodesic(polar_span(embed(z), F0))


def test_complex_geodesic_needs_positive_polar():
    with pytest.raises(ClassError):
        ComplexGeodesic(embed(0.0))


def test_position_three_classes():
    # fibers over distinct disc points never meet inside or on the boundary
    assert position(_fiber(0.0), _fiber(0.5)) == ULTRAPARALLEL
    # two complex geodesics through a common interior point
    c1 = ComplexGeodesic(ProjectivePoint([0, 0, 1]))
    c2 = ComplexGeodesic(ProjectivePoint([0, 1, 0]))
    assert position(c1, c2) == CONCURRENT
    # tance((0,0,1), (1,1,1)) = 1: lines meeting at a boundary point
    c3 = ComplexGeodesic(ProjectivePoint([1, 1, 1]))
    assert position(c1, c3) == ASYMPTOTIC
    with pytest.raises(DegenerateError):
        position(c1, c1)


def test_geodesic_through_rejects_bad_spans():
    with pytest.raises(DegenerateError):
        Geodesic.through(embed(0.0), embed(0.0))
    # two positive points span a ++ plane, not a geodesic
    with pytest.raises(ClassError):
        Geodesic.through(ProjectivePoint([0, 1, 0]), ProjectivePoint([0, 0, 1]))
    g = Geodesic.through(embed(0.0), embed(0.5))
    assert g.signature() == (-1, 1)


def test_geodesic_interp_arclength(rng):
    x, y = random_negative_point(rng), random_negative_point(rng)
    d = distance(x, y)
    for t in (0.0, 0.25, 1.0):
        p = geodesic_interp(x, y, t)
        assert distance(x, p) == pytest.approx(t * d, abs=1e-10)


def test_geodesic_rows_match_scalar_oracle(rng):
    xs = [random_negative_point(rng) for _ in range(4)]
    ys = [random_negative_point(rng) for _ in range(4)]
    ts = np.linspace(0.0, 1.0, 7)
    got = _geodesic_rows(np.array([x.v for x in xs])[:, None], np.array([y.v for y in ys])[:, None], ts)
    assert got.shape == (4, 7, 3)
    for a, (x, y) in enumerate(zip(xs, ys)):
        for b, t in enumerate(ts):
            np.testing.assert_allclose(
                ProjectivePoint(got[a, b]).v, scalar_geodesic_interp(x, y, t).v, rtol=0, atol=1e-15
            )


def test_geodesic_rows_coincident_pair_returns_x():
    x = np.array([2.0, 0.0, 0.0], dtype=complex)  # <x,x> = -4 exactly, so d = 0
    got = _geodesic_rows(x, x, np.array([0.0, 0.3, 1.0]))
    assert got.shape == (3, 3)
    assert (got == x).all()
    p = embed(0.3 + 0.2j)
    assert geodesic_interp(p, p, 0.4).is_parallel_to(p, tol=1e-15)


def test_common_perpendicular_feet():
    seg = common_perpendicular(_fiber(-0.3), _fiber(0.4))
    f1, f2 = seg.feet
    assert seg.end_slices[0].contains(f1)
    assert seg.end_slices[1].contains(f2)
    # feet of fibers are the disc points themselves, so the foot distance is
    # the disc distance
    assert seg.foot_distance() == pytest.approx(
        distance(embed(-0.3), embed(0.4)), abs=1e-10
    )
    # the spine meets both end slices orthogonally: each foot is the
    # form-projection of the other polar, so <foot_i, polar_i> = 0
    assert abs(seg.end_slices[0].polar.herm_with(f1)) < 1e-12
    assert abs(seg.end_slices[1].polar.herm_with(f2)) < 1e-12


def test_common_perpendicular_requires_ultraparallel():
    c1 = ComplexGeodesic(ProjectivePoint([0, 0, 1]))
    c2 = ComplexGeodesic(ProjectivePoint([0, 1, 0]))
    with pytest.raises(NotUltraparallelError):
        common_perpendicular(c1, c2)
    with pytest.raises(DegenerateError):
        common_perpendicular(c1, ComplexGeodesic(ProjectivePoint([0, 0, 1j])))


def test_perpendicular_rows_raise_for_the_first_failing_pair():
    good = (_fiber(-0.3).polar.v, _fiber(0.4).polar.v)
    concurrent = (np.array([0, 0, 1], dtype=complex), np.array([0, 1, 0], dtype=complex))
    same = (good[0], 1j * good[0])
    for pairs, error in (
        ([good, concurrent, same], NotUltraparallelError),
        ([good, same, concurrent], DegenerateError),
    ):
        p, q = (np.array(side) for side in zip(*pairs))
        with pytest.raises(error):
            _perpendicular_rows(p, q)
    # a passing stack gives each pair's common_perpendicular
    x, y, basis = _perpendicular_rows(*(np.array([v, v]) for v in good))
    seg = common_perpendicular(_fiber(-0.3), _fiber(0.4))
    np.testing.assert_allclose(x[1], seg.feet[0].v, rtol=0, atol=1e-15)
    np.testing.assert_allclose(y[1], seg.feet[1].v, rtol=0, atol=1e-15)
    np.testing.assert_allclose(basis[1], seg.bisector.basis(), rtol=0, atol=1e-15)


def test_bisector_slices():
    seg = common_perpendicular(_fiber(-0.3), _fiber(0.4))
    b = seg.bisector
    x = spine_point(seg, 0.5)
    sl = slice_at(b, x)
    assert sl.contains(x)
    # slices at the feet recover the end complex geodesics
    sl0 = slice_at(b, seg.feet[0])
    assert sl0.polar.is_parallel_to(seg.end_slices[0].polar, tol=1e-8)
    with pytest.raises(ValueError):
        spine_point(seg, 1.5)


def test_slice_at_rejects_off_spine_points():
    seg = common_perpendicular(_fiber(-0.3), _fiber(0.4))
    with pytest.raises(NotOnSpineError):
        slice_at(seg.bisector, embed(0.2 + 0.4j))


def test_slice_polars_check_every_row():
    seg = common_perpendicular(_fiber(-0.3), _fiber(0.4))
    b = seg.bisector
    xs = _geodesic_rows(seg.feet[0].v, seg.feet[1].v, np.linspace(0.0, 1.0, 5))
    # each slice polar is J conj(x cross f)
    ref = np.array([-1.0, 1.0, 1.0]) * np.conj(np.cross(xs, b.polar_f.v))
    np.testing.assert_allclose(_slice_polars(b.basis(), xs), ref, rtol=0, atol=1e-15)
    # a stack of two bisectors, each with its own spine points
    other = common_perpendicular(_fiber(0.1j), _fiber(0.5)).bisector
    ys = _geodesic_rows(other.spine.x.v, other.spine.y.v, np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(
        _slice_polars(np.stack([b.basis(), other.basis()]), np.stack([xs, ys]))[1],
        _slice_polars(other.basis(), ys), rtol=0, atol=1e-15)
    off = xs.copy()
    off[3] = embed(0.2 + 0.4j).v
    with pytest.raises(NotOnSpineError):
        _slice_polars(b.basis(), off)
    with pytest.raises(NotOnSpineError):
        _slice_polars(np.stack([b.basis(), other.basis()]), np.stack([ys, ys]))
    positive = xs.copy()
    positive[2] = b.polar_f.v
    with pytest.raises(ClassError):
        _slice_polars(b.basis(), positive)


def test_bisector_from_spine_polar():
    spine = Geodesic.through(embed(-0.3), embed(0.4))
    b = Bisector.from_spine(spine)
    # the real axis of the standard disc has complex spine the standard one
    assert b.complex_spine.polar.is_parallel_to(F0)


def test_real_plane_check():
    # the standard real plane: all-real representatives
    x = ProjectivePoint([1.0, 0.1, 0.2])
    y = ProjectivePoint([1.0, -0.3, 0.15])
    z = ProjectivePoint([1.0, 0.05, -0.4])
    assert real_plane_check(x, y, z)
    # a real plane moved by a phase on one coordinate is still Lagrangian
    # only if the triple stays compatible; twisting one point generically
    # breaks it
    z_bad = ProjectivePoint([1.0, 0.05 * np.exp(0.4j), -0.4])
    assert not real_plane_check(x, y, z_bad)
    # triples inside a complex geodesic span a complex 2-plane and are
    # rejected as linearly dependent
    with pytest.raises(DegenerateError):
        real_plane_check(embed(0.1), embed(0.3j), embed(-0.2 + 0.2j))
    with pytest.raises(DegenerateError):
        real_plane_check(x, y, ProjectivePoint(x.v * 2.0))
