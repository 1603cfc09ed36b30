"""Complex geodesics, bisectors, common perpendiculars, and slices."""

import numpy as np
import pytest

from chdisc import (
    ClassError,
    GeometryError,
    ComplexGeodesic,
    DegenerateError,
    NotOnSpineError,
    NotUltraparallelError,
    NullPointError,
    ProjectivePoint,
    distance,
    herm_form,
    polar_span,
    position,
)
from chdisc.disc import F0, embed
from chdisc.tolerances import Tolerances
from chdisc.core import _points_of_units
from chdisc.geometry import (
    ASYMPTOTIC,
    CONCURRENT,
    ULTRAPARALLEL,
    BisectorSegment,
    _geodesic_rows,
    _perpendicular_rows,
    _slice_polars,
    common_perpendicular,
    geodesic_interp,
)
from chdisc.quadrangle import _side_values

from conftest import random_isometry, random_negative_point, scalar_geodesic_interp
from oracles import (
    bisector_basis,
    bisector_frames,
    slice_at,
    spine_point,
    staged_perpendicular_rows,
    staged_slice_polars,
)


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
    # polars whose gap 1 - |p . conj(q)| lies within 1e-6 (relative) of the
    # parallel threshold 1e-9, and a pair at the gap 5e-13: every parallel
    # verdict has the same bits
    rng = np.random.default_rng(3)
    pairs = [*_near_parallel_polars(rng, 1000, 1e-6), *_near_parallel_polars(rng, 1, 0.0, 5e-13)]
    verdicts = [_parallel_verdicts(p, q) for p, q in pairs]
    assert {v[0] for v in verdicts} == {True, False}
    assert all(v[0] == v[1] == v[2] == v[3] for v in verdicts)
    assert verdicts[-1] == [True] * 4


def _near_parallel_polars(rng, n, rel, gap=1e-9):
    """n pairs of positive polars p, q = e^{i phi} (cos t p + sin t w) with w
    Euclidean-orthogonal to p and 1 - cos t within ``rel`` (relative) of ``gap``."""
    for _ in range(n):
        p = polar_span(embed(0.6 * rng.uniform() + 0.1j * rng.normal()), F0)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = w - np.vdot(p.v, w) * p.v
        t = np.arccos(1.0 - gap * (1.0 + rel * rng.uniform(-1.0, 1.0)))
        q = np.exp(2j * np.pi * rng.uniform()) * (np.cos(t) * p.v + np.sin(t) * w / np.linalg.norm(w))
        yield p, ProjectivePoint(q)


def _parallel_verdicts(p: ProjectivePoint, q: ProjectivePoint):
    """(is_parallel_to, and whether position, common_perpendicular and
    polar_span raise ``DegenerateError``) for one pair of polars."""
    verdicts = [p.is_parallel_to(q)]
    for call in (position, common_perpendicular):
        try:
            call(ComplexGeodesic(p), ComplexGeodesic(q))
            verdicts.append(False)
        except GeometryError as e:
            verdicts.append(isinstance(e, DegenerateError))
    try:
        polar_span(p, q)
        verdicts.append(False)
    except DegenerateError:
        verdicts.append(True)
    return verdicts


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
    # feet of fibers are the disc points themselves, so the foot distance is
    # the disc distance
    assert distance(*seg.feet) == pytest.approx(
        distance(embed(-0.3), embed(0.4)), abs=1e-10
    )
    # the spine meets both end slices orthogonally: each foot is the
    # form-projection of the other polar, so <foot_i, polar_i> = 0
    assert abs(herm_form(seg.end_slices[0].polar.v, f1.v)) < 1e-12
    assert abs(herm_form(seg.end_slices[1].polar.v, f2.v)) < 1e-12


def test_common_perpendicular_requires_ultraparallel():
    c1 = ComplexGeodesic(ProjectivePoint([0, 0, 1]))
    c2 = ComplexGeodesic(ProjectivePoint([0, 1, 0]))
    with pytest.raises(NotUltraparallelError):
        common_perpendicular(c1, c2)
    with pytest.raises(DegenerateError):
        common_perpendicular(c1, ComplexGeodesic(ProjectivePoint([0, 0, 1j])))


def test_common_perpendicular_raises_for_each_failing_pair():
    good = (_fiber(-0.3).polar.v, _fiber(0.4).polar.v)
    concurrent = (np.array([0, 0, 1], dtype=complex), np.array([0, 1, 0], dtype=complex))
    same = (good[0], 1j * good[0])
    for (a, b), error in ((concurrent, NotUltraparallelError), (same, DegenerateError)):
        with pytest.raises(error):
            common_perpendicular(*(ComplexGeodesic(p) for p in _points_of_units(np.array([a, b]))))
    # a stack of ultraparallel pairs gives each pair's common_perpendicular
    (x, y), basis = _perpendicular_rows(*(np.array([v, v]) for v in good))
    seg = common_perpendicular(_fiber(-0.3), _fiber(0.4))
    np.testing.assert_allclose(x[1], seg.feet[0].v, rtol=0, atol=1e-15)
    np.testing.assert_allclose(y[1], seg.feet[1].v, rtol=0, atol=1e-15)
    np.testing.assert_allclose(basis[1], bisector_basis(seg.bisector), rtol=0, atol=1e-15)


def test_bisector_side_values_are_functions_of_the_points(rng):
    """The side function Im(alpha conj(beta)) / (|alpha|^2 + |beta|^2) read in
    the bisector frames of ``_perpendicular_rows`` (``oracles.bisector_frames``)
    does not change when the spine points are rescaled by complex scalars or
    when everything is moved by an isometry: the frame scales s1 and s2 to
    <,> = -1, not to Euclidean norm 1."""
    for _ in range(20):
        x, y = (np.array([random_negative_point(rng).v for _ in range(5)]) for _ in range(2))
        z = np.array([random_negative_point(rng).v for _ in range(5)])
        want = _side_values(np.einsum("kij,kj->ki", np.linalg.inv(bisector_frames(x, y)), z))
        scale = rng.uniform(0.2, 5.0, (2, 5, 1)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (2, 5, 1)))
        g = random_isometry(rng).matrix
        for a, b, c in ((scale[0] * x, scale[1] * y, z), (x @ g.T, y @ g.T, z @ g.T)):
            got = _side_values(np.einsum("kij,kj->ki", np.linalg.inv(bisector_frames(a, b)), c))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def _outcome(f, *args):
    try:
        return f(*args)
    except GeometryError as e:
        return type(e), str(e)


def _first_failure(pairs, tol):
    """The index of the first pair that ``staged_perpendicular_rows`` rejects
    alone, and its error as ``_outcome`` gives it."""
    for k, (p, q) in enumerate(pairs):
        error = _outcome(staged_perpendicular_rows, p[None], q[None], tol)
        if isinstance(error, tuple) and isinstance(error[0], type):
            return k, error
    raise AssertionError("no pair fails")


def test_perpendicular_and_slice_rows_equal_the_staged_kernels():
    """The lean kernels return the staged kernels' bits on stacks that pass.
    On a stack that the staged kernel rejects (a failing pair first, last
    or alone, a null band that makes the polars null, and bounds that pass
    pairs the default tolerances reject), ``common_perpendicular`` taken one
    pair at a time builds each pair before the staged kernel's first failing
    one and raises at that pair: the staged error where it comes from the
    mutual position (identical, null or not ultraparallel geodesics), and
    otherwise ``NotUltraparallelError``, since the staged kernel's later
    checks (feet, spine, spine polar) fail only on pairs that are not
    ultraparallel."""
    good = [(_fiber(a).polar.v, _fiber(b).polar.v) for a, b in ((-0.3, 0.4), (0.1j, 0.5), (0.2, -0.6j))]
    concurrent = (np.array([0, 0, 1], dtype=complex), np.array([0, 1, 0], dtype=complex))
    asymptotic = (np.array([0, 0, 1], dtype=complex), np.array([1, 1, 1], dtype=complex) / np.sqrt(3))
    same = (good[0][0], 1j * good[0][0])
    stacks = [good, good + [concurrent], [same] + good, [asymptotic], good[:1] + [same, concurrent]]
    tols = [Tolerances(), Tolerances(null_band=2.0), Tolerances(asymptotic=-2.0), Tolerances(null_band=-1.0)]
    outcomes = set()
    for pairs in stacks:
        p, q = (np.array(side) for side in zip(*pairs))
        for tol in tols:
            want = _outcome(staged_perpendicular_rows, p, q, tol)
            if isinstance(want, tuple) and isinstance(want[0], type):
                k, error = _first_failure(pairs, tol)
                assert error == want
                got = [_outcome(common_perpendicular, *(ComplexGeodesic(c) for c in _points_of_units(np.array(pair))),
                                tol) for pair in pairs[:k + 1]]
                assert all(isinstance(g, BisectorSegment) for g in got[:k])
                if "identical" in error[1] or error[0] in (NullPointError, NotUltraparallelError):
                    assert got[k] == error
                else:
                    assert got[k][0] is NotUltraparallelError
                outcomes.add(error[0].__name__)
                continue
            (x, y), basis = _perpendicular_rows(p, q)
            assert [a.tobytes() for a in (x, y, basis)] == [a.tobytes() for a in want]
            outcomes.add("pass")
            spine = _geodesic_rows(x[:, None], y[:, None], np.linspace(0.0, 1.0, 5))
            off, positive = spine.copy(), spine.copy()
            off[-1, 2] = embed(0.2 + 0.4j).v
            positive[0, 1] = basis[0, :, 2]
            for xs in (spine, off, positive):
                want = _outcome(staged_slice_polars, basis, xs, tol)
                got = _outcome(_slice_polars, basis, xs, tol)
                if isinstance(want, tuple):
                    assert got == want
                    outcomes.add(want[0].__name__)
                else:
                    assert got.tobytes() == want.tobytes()
    assert outcomes == {"pass", "ClassError", "DegenerateError", "NotOnSpineError",
                        "NotUltraparallelError", "NullPointError"}


def test_bisector_slices():
    seg = common_perpendicular(_fiber(-0.3), _fiber(0.4))
    b = seg.bisector
    x = spine_point(seg, 0.5)
    sl = slice_at(b, x)
    assert abs(herm_form(sl.polar.v, x.v)) < 1e-9
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
    np.testing.assert_allclose(_slice_polars(bisector_basis(b), xs), ref, rtol=0, atol=1e-15)
    # a stack of two bisectors, each with its own spine points
    other = common_perpendicular(_fiber(0.1j), _fiber(0.5)).bisector
    ys = _geodesic_rows(other.spine.x.v, other.spine.y.v, np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(
        _slice_polars(np.stack([bisector_basis(b), bisector_basis(other)]), np.stack([xs, ys]))[1],
        _slice_polars(bisector_basis(other), ys), rtol=0, atol=1e-15)
    off = xs.copy()
    off[3] = embed(0.2 + 0.4j).v
    with pytest.raises(NotOnSpineError):
        _slice_polars(bisector_basis(b), off)
    with pytest.raises(NotOnSpineError):
        _slice_polars(np.stack([bisector_basis(b), bisector_basis(other)]), np.stack([ys, ys]))
    positive = xs.copy()
    positive[2] = b.polar_f.v
    with pytest.raises(ClassError):
        _slice_polars(bisector_basis(b), positive)
