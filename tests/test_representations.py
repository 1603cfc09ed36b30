"""Turnover signatures, baselines, the bent solver, and the H5 builder."""

import functools
import itertools
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from chdisc import (
    ClassError,
    ConvergenceError,
    FrameError,
    HyperbolicityError,
    InvalidSolutionError,
    Isometry,
    Representation,
    SolverSeed,
    Tolerances,
    TurnoverSignature,
    distance,
    elliptic_fixed_point,
    fuchsian_turnover,
    h5_builder,
    orbifold_euler,
    relation_residual,
    tance,
    toledo_via_coning,
    turnover_solve,
)
from chdisc.core import (
    FORM_MATRIX,
    OrthogonalFrame,
    ProjectivePoint,
    _CUBE_ROOTS,
    _elliptic_rows,
    _unit_det,
    elliptic_from_frame,
    herm_form,
)
from chdisc.disc import F0, _disc_rotations, _su11_stack, disc_distance, embed, triangle_vertices
from chdisc import core, lsq, representations
from chdisc.representations import SOLVER_STOPPING, _identity_distance

from conftest import random_negative_point
from oracles import (
    fixed_point_per_call,
    in_plane_frame,
    projective_distance,
    projector,
    rotation_table_per_centre,
    toledo_via_coning_per_generator,
    turnover_tail_per_object,
    word_product_chain,
)


def test_signature_validation():
    sig = TurnoverSignature(3, 3, 4)
    assert sig.orders() == (3, 3, 4)
    assert sig.angles() == pytest.approx((np.pi / 3, np.pi / 3, np.pi / 4))
    with pytest.raises(HyperbolicityError):
        TurnoverSignature(2, 2, 2)  # euclidean, not hyperbolic
    with pytest.raises(HyperbolicityError):
        TurnoverSignature(2, 3, 6)  # angle sum exactly pi
    with pytest.raises(HyperbolicityError):
        TurnoverSignature(1, 5, 5)


def test_signature_test_and_orbifold_euler_are_the_fraction_sums():
    """The integer hyperbolicity test and the one-Fraction orbifold Euler
    characteristic agree with the sums of unit fractions for every
    signature with orders 2 to 12, numpy integers included."""
    rejected = set()
    for orders in itertools.product(range(2, 13), repeat=3):
        total = sum(Fraction(1, n) for n in orders)
        if total >= 1:
            rejected.add(orders)
            with pytest.raises(HyperbolicityError):
                TurnoverSignature(*orders)
            continue
        for sig in (TurnoverSignature(*orders), TurnoverSignature(*map(np.int64, orders))):
            chi = orbifold_euler(sig)
            assert type(chi) is Fraction and type(chi.numerator) is int
            assert chi.as_integer_ratio() == (total - 1).as_integer_ratio()
    assert {(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 12)} <= rejected
    assert (2, 3, 7) not in rejected


def test_orbifold_euler():
    assert orbifold_euler(TurnoverSignature(3, 3, 4)) == Fraction(-1, 12)
    assert orbifold_euler(TurnoverSignature(2, 3, 7)) == Fraction(-1, 42)
    assert orbifold_euler(2) == Fraction(-2)
    assert orbifold_euler((2, [2, 3])) == Fraction(-2) - Fraction(1, 2) - Fraction(2, 3)


def test_triangle_from_angles_geometry():
    sig = TurnoverSignature(3, 4, 5)
    z1, z2, z3 = triangle_vertices(*sig.angles())
    c1, c2, c3 = (embed(z) for z in (z1, z2, z3))
    # all vertices lie in the standard complex geodesic
    for c in (c1, c2, c3):
        assert abs(herm_form(F0.v, c.v)) < 1e-12
    # side lengths agree with the planar construction
    assert distance(c1, c2) == pytest.approx(disc_distance(z1, z2), abs=1e-12)
    assert distance(c2, c3) == pytest.approx(disc_distance(z2, z3), abs=1e-12)


def test_relation_residual_word_algebra():
    g = Isometry(_disc_rotations([0.1 + 0.2j], [0.7])[0])
    rep = Representation(kind="test", generators={"g": g}, relations=[])
    assert relation_residual(rep, "g g^-1") < 1e-12
    assert relation_residual(rep, "g") > 1e-3
    with pytest.raises(KeyError):
        rep.word_product("h")


def test_elliptic_fixed_point():
    center = 0.3 - 0.1j
    g = Isometry(_disc_rotations([center], [2.0 * np.pi / 5.0])[0])
    x = elliptic_fixed_point(g)
    assert tance(x, embed(center)) == pytest.approx(1.0, abs=1e-10)
    # a loxodromic-free check: translations along a geodesic have no
    # negative eigenvector
    t = 0.8
    lox = Isometry(_su11_stack(np.cosh(t), np.sinh(t))[0])
    with pytest.raises(ClassError):
        elliptic_fixed_point(lox)


def test_fuchsian_turnover_335_exact():
    """(3,3,5) satisfies the polar-phase lifting condition, so every
    relation holds exactly."""
    rep, quad = fuchsian_turnover(TurnoverSignature(3, 3, 5))
    residuals = rep.relation_residuals()
    assert max(residuals.values()) < 1e-10
    assert rep.metadata["c4_consistency_gap"] < 1e-10
    assert rep.metadata["fixed_point_gap"] < 1e-10
    assert quad.certificate.passed


def test_generators_are_checked_at_the_callers_tolerances():
    """fuchsian_turnover and the bent generators check their frames at the
    tolerances they are given: the c3 frame's residual of about 1e-17 fails
    at orthogonality 0."""
    strict = Tolerances(orthogonality=0.0)
    with pytest.raises(FrameError, match="not orthogonal"):
        fuchsian_turnover(TurnoverSignature(3, 3, 4), strict)
    g1_inv = representations._rotation_table(0j, 3, 0.02, strict)[1][0]
    phases = representations._rotation_phases(4, 1, 0.02)
    params = [0.3, 0.2, 0.4, 0.5]
    representations._bent_generators(g1_inv, params, phases, 3, Tolerances())
    with pytest.raises(FrameError, match="not orthogonal"):
        representations._bent_generators(g1_inv, params, phases, 3, strict)


def test_fuchsian_turnover_builds_both_rotation_tables_in_one_pass(monkeypatch):
    """The candidate search makes no one-row elliptic_from_frame call: g1
    and g3 come from one stacked build over both centres and all their
    polar twists.  turnover_solve takes g1 and g1^-1 of every twist from
    one such build over its one centre."""
    tables = []
    build = representations._elliptic_rows

    def counting(frames, phases, *rest):
        tables.append(np.shape(phases))
        return build(frames, phases, *rest)

    def forbidden(*args, **kwargs):
        raise AssertionError("a rotation was built one row at a time")

    monkeypatch.setattr(representations, "_elliptic_rows", counting)
    monkeypatch.setattr(representations, "elliptic_from_frame", forbidden)
    monkeypatch.setattr(core, "elliptic_from_frame", forbidden)
    fuchsian_turnover(TurnoverSignature(3, 3, 5))
    assert tables == [(3 + 5, 3)]
    tables.clear()
    monkeypatch.setattr(representations, "least_squares", lambda *args, **kwargs: [])
    with pytest.raises(ConvergenceError):
        turnover_solve(TurnoverSignature(3, 3, 4), 0.02)
    assert tables == [(3, 3)]


def _twisted_rotation(center, n, k, bend=0.0):
    """Oracle: one rotation by -2pi/n about a disc point, polar eigenphase
    e^{2pi i k/n + i bend}, from the one-row elliptic_from_frame."""
    return elliptic_from_frame(in_plane_frame(center),
                               representations._rotation_phases(n, k, bend))


def isometry_power(g: Isometry, n: int) -> Isometry:
    """g^n as a det-normalized Isometry, for the scalar oracle below."""
    return Isometry(_unit_det(np.linalg.matrix_power(g.matrix, n)))


def _scalar_twist_search(sig):
    """Oracle: the candidate search of fuchsian_turnover one Isometry at a
    time, through _twisted_rotation, det-normalized products, isometry_power
    and projective_distance.  Returns the twists, (g1, g2, g3) and the
    worst residual."""
    z1, _, z3 = triangle_vertices(*sig.angles())
    ident = Isometry.identity()

    def candidates(z, n):
        gs = [_twisted_rotation(z, n, k) for k in range(n)]
        return [(g, g.inverse(), projective_distance(isometry_power(g, n), ident)) for g in gs]

    best = None
    g3s = candidates(z3, sig.n3)
    for k1, (g1, g1_inv, r1) in enumerate(candidates(z1, sig.n1)):
        for k3, (g3, g3_inv, r3) in enumerate(g3s):
            g2 = g3_inv @ g1_inv
            r = max(r1, projective_distance(isometry_power(g2, sig.n2), ident), r3,
                    projective_distance(g3 @ g2 @ g1, ident))
            key = (round(r, 12), k1, k3)
            if best is None or key < best[0]:
                best = (key, (k1, k3), (g1, g2, g3), r)
    return best[1:]


@pytest.mark.parametrize("orders", [(3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7), (4, 4, 4),
                                    (2, 3, 8), (3, 3, 7), (2, 4, 5), (5, 5, 5), (2, 3, 11)])
def test_fuchsian_turnover_candidate_table_matches_scalar_search(orders):
    """The stacked candidate table picks the scalar search's twists and
    gives its g1, g2, g3 and worst residual bit for bit."""
    sig = TurnoverSignature(*orders)
    twists, gens, worst = _scalar_twist_search(sig)
    rep, _ = fuchsian_turnover(sig)
    assert rep.metadata["polar_twists"] == twists
    assert type(rep.metadata["worst_relation_residual"]) is float
    assert rep.metadata["worst_relation_residual"] == worst
    for name, g in zip(("g1", "g2", "g3"), gens):
        assert rep.generators[name].matrix.tobytes() == g.matrix.tobytes()


def test_fuchsian_turnover_334_obstruction():
    """(3,3,4) fails the lifting condition: g2^3 carries an irreducible
    residual while everything else is exact."""
    rep, quad = fuchsian_turnover(TurnoverSignature(3, 3, 4))
    residuals = rep.relation_residuals()
    assert residuals["g1 g1 g1"] < 1e-12
    assert residuals["g3 g3 g3 g3"] < 1e-12
    assert residuals["g3 g2 g1"] < 1e-12
    # the obstruction floor: |1 - e^{i pi/6}| = 2 sin(pi/12)
    assert residuals["g2 g2 g2"] == pytest.approx(2.0 * np.sin(np.pi / 12.0), rel=1e-6)
    # g2 still fixes c2 and acts with the right rotation angle there
    assert rep.metadata["fixed_point_gap"] < 1e-10
    assert quad.certificate.passed


def test_fuchsian_turnover_n2_degenerate_certificate():
    """With a cone order 2 in the first or third slot, C4 = g1^-1 C2 becomes
    collinear with C2 and C1, so one transversality margin is exactly zero
    and the certificate honestly fails K2."""
    rep, quad = fuchsian_turnover(TurnoverSignature(2, 3, 7))
    assert quad.certificate.k1
    assert not quad.certificate.k2
    worst = min(min(m) for m in quad.certificate.k2_margins.values())
    assert abs(worst) < 1e-9


def test_turnover_solve_zero_bend_matches_baseline():
    sig = TurnoverSignature(3, 3, 4)
    rep_solve, _ = turnover_solve(sig, 0.0)
    rep_base, _ = fuchsian_turnover(sig)
    for name in ("g1", "g2", "g3"):
        assert np.allclose(
            np.trace(rep_solve.generators[name].matrix),
            np.trace(rep_base.generators[name].matrix),
            atol=1e-10,
        )
    assert rep_solve.metadata["solver_log"]["branch"] == "fuchsian baseline"


def test_turnover_solve_rejects_out_of_window_bend():
    with pytest.raises(ConvergenceError):
        turnover_solve(TurnoverSignature(3, 3, 4), 5.0, SolverSeed(window=0.2))


def test_turnover_solve_without_starts_finds_nothing():
    with pytest.raises(ConvergenceError, match="best residual inf"):
        turnover_solve(TurnoverSignature(3, 3, 4), 0.05, SolverSeed(starts=0))


def _one_frame_rows(frame, phases):
    """``_elliptic_rows`` of one frame for every row of ``phases``."""
    return _elliptic_rows(np.array(frame.vectors())[None], phases)


def test_elliptic_from_frame_has_the_bits_of_the_projector_sum(rng):
    """The one-row elliptic_from_frame, and each row of a stack, equals the
    det-normalized sum(mu * projector(b)) over the frame, bit for bit."""
    for _ in range(300):
        z = 0.95 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        frame = in_plane_frame(z)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        m = sum(mu * projector(b) for mu, b in zip(phases, frame.vectors()))
        expected = Isometry.from_matrix(m)
        assert elliptic_from_frame(frame, phases).matrix.tobytes() == expected.matrix.tobytes()
        stacked = _one_frame_rows(frame, np.stack([phases, phases[::-1]]))
        assert stacked[0].tobytes() == expected.matrix.tobytes()


def test_elliptic_rows_keep_the_checks_of_elliptic_from_frame():
    """A non-unit phase in any row, a frame that fails validation, and the
    first row whose matrix is not an isometry all raise FrameError."""
    frame = in_plane_frame(0.2 + 0.1j)
    with pytest.raises(FrameError, match="unit modulus"):
        _one_frame_rows(frame, [[1.0, 1.0, 1.0], [1.0, 1.1, 1.0]])
    skew = OrthogonalFrame(embed(0.0), ProjectivePoint([1e-6, 1.0, 0.0]), F0)
    with pytest.raises(FrameError, match="not orthogonal"):
        _one_frame_rows(skew, [[1.0, 1.0, 1.0]])
    # orthogonal within tolerance: the sum stays an isometry for phases (1, -1, 1)
    # but misses the threshold for (1, i, 1) (residual 1.27e-9) and (1, 1, 1)
    nearly = OrthogonalFrame(embed(0.0), ProjectivePoint([9e-10, 1.0, 0.0]), F0)
    assert _one_frame_rows(nearly, [[1.0, -1.0, 1.0]]).shape == (1, 3, 3)
    with pytest.raises(FrameError, match=r"residual 1\.27279e-09"):
        _one_frame_rows(nearly, [[1.0, -1.0, 1.0], [1.0, 1j, 1.0], [1.0, 1.0, 1.0]])


def test_isometry_power():
    g = Isometry(_disc_rotations([0.0], [2.0 * np.pi / 7.0])[0])
    assert projective_distance(isometry_power(g, 7), Isometry.identity()) < 1e-12


def test_h5_builder(rng):
    others = [random_negative_point(rng) for _ in range(4)]
    rep = h5_builder(F0, others)
    residuals = rep.relation_residuals()
    for i in range(5):
        assert residuals[" ".join([f"r{i+1}"] * 2)] < 1e-12
    assert "product_residual" in rep.metadata
    assert rep.metadata["product_residual"] >= 0.0
    with pytest.raises(ClassError):
        h5_builder(embed(0.0), others)  # p1 must be positive
    with pytest.raises(ClassError):
        h5_builder(F0, others[:3])
    with pytest.raises(ClassError):
        h5_builder(F0, others[:3] + [F0])


def _object_path_objective(sig, bend, x, k1, k3):
    """Oracle: the solver objective through ProjectivePoint, OrthogonalFrame,
    elliptic_from_frame and det-normalized Isometry products."""
    a, b, psi, phi = x
    if a * a + b * b >= 0.98:
        return np.full(18, 1e3)
    g1 = elliptic_from_frame(
        in_plane_frame(0.0 + 0.0j),
        [1.0, np.exp(-2j * np.pi / sig.n1), np.exp(2j * np.pi * k1 / sig.n1 + 1j * bend)],
    )
    x3v = np.array([1.0, a, b], dtype=complex)

    def off(w, c):
        return w - (herm_form(w, c) / herm_form(c, c)) * c

    e1, e2 = np.eye(3, dtype=complex)[1:]
    u = off(e1, x3v)
    u = u / np.sqrt(herm_form(u, u).real)
    v = off(off(e2, x3v), u)
    v = v / np.sqrt(herm_form(v, v).real)
    w1 = np.cos(psi) * u + np.sin(psi) * np.exp(1j * phi) * v
    w2 = -np.sin(psi) * np.exp(-1j * phi) * u + np.cos(psi) * v
    frame = OrthogonalFrame(ProjectivePoint(x3v), ProjectivePoint(w1), ProjectivePoint(w2))
    phases = [1.0, np.exp(-2j * np.pi / sig.n3), np.exp(2j * np.pi * k3 / sig.n3 + 1j * bend)]
    g2 = elliptic_from_frame(frame, phases).inverse() @ g1.inverse()
    m = np.linalg.matrix_power(g2.matrix, sig.n2)
    best = None
    for w in np.exp(2j * np.pi * np.arange(3) / 3):
        d = (m - w * np.eye(3)).ravel()
        r = np.concatenate([d.real, d.imag])
        if best is None or np.linalg.norm(r) < np.linalg.norm(best):
            best = r
    return best


@pytest.mark.parametrize("orders", [(3, 3, 4), (3, 3, 5)])
@pytest.mark.parametrize("bend", [0.02, -0.05])
def test_solver_objective_bit_identical_to_object_path(monkeypatch, orders, bend):
    """The stacked objective turnover_solve hands to least_squares equals the
    object-path oracle bit for bit, on every twist, one row at a time and in
    one all-rows call, including the 1e3 penalty outside the ball
    (a^2 + b^2 >= 0.98)."""
    sig = TurnoverSignature(*orders)
    captured = []

    def record(fun, x0, **kwargs):
        captured.append(fun)
        return []

    monkeypatch.setattr(representations, "least_squares", record)
    with pytest.raises(ConvergenceError):
        turnover_solve(sig, bend, SolverSeed(starts=1))
    assert len(captured) == sig.n1 * sig.n3  # one batch per twist, in twist order

    rng = np.random.default_rng(20)
    outside = 0
    for index, fun in enumerate(captured):
        k1, k3 = divmod(index, sig.n3)
        points, expected = [], []
        for _ in range(200):
            r = 1.05 * np.sqrt(rng.uniform())
            t = rng.uniform(-np.pi, np.pi)
            x = np.array([r * np.cos(t), r * np.sin(t), rng.uniform(-7.0, 7.0),
                          rng.uniform(-50.0, 50.0)])
            outside += bool(x[0] * x[0] + x[1] * x[1] >= 0.98)
            points.append(x)
            expected.append(_object_path_objective(sig, bend, x, k1, k3))
            assert np.array_equal(fun(x[None])[0], expected[-1])
        assert np.array_equal(fun(np.array(points)), np.array(expected))
    assert outside > 100


def _bent_arrays(params, g1_inv, phases, n2):
    """Oracle: the scalar one-row computation that _bent_inside stacks, with
    pairings through herm_form and its Python complex quotients."""
    a, b, psi, phi = params
    x3 = np.array([1.0, a, b], dtype=complex)

    def off(w, c):
        return w - (herm_form(w, c) / herm_form(c, c)) * c

    e1, e2 = np.eye(3, dtype=complex)[1:]
    u = off(e1, x3)
    u = u / np.sqrt(herm_form(u, u).real)
    v = off(off(e2, x3), u)
    v = v / np.sqrt(herm_form(v, v).real)
    cos, sin = np.cos(psi), np.sin(psi)
    w1 = cos * u + sin * np.exp(1j * phi) * v
    w2 = -sin * np.exp(-1j * phi) * u + cos * v
    frame = (x3, w1, w2)
    m3 = sum(mu * projector(f / float(np.linalg.norm(f))) for mu, f in zip(phases, frame))
    g3 = _unit_det(m3)
    g2 = _unit_det(_unit_det(FORM_MATRIX @ g3.conj().T @ FORM_MATRIX) @ g1_inv)
    power = np.linalg.matrix_power(g2, n2)
    diffs = [(power - w * np.eye(3)).ravel() for w in _CUBE_ROOTS]
    best = min((np.concatenate([d.real, d.imag]) for d in diffs), key=np.linalg.norm)
    return np.array(frame), m3, g2, best


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    return x.shape == y.shape and all(
        np.array_equal(p, q) and np.array_equal(np.signbit(p), np.signbit(q))
        for p, q in ((x.real, y.real), (x.imag, y.imag))
    )


@pytest.mark.parametrize("orders, bend", [((3, 3, 4), -0.05), ((2, 3, 7), 0.02)])
def test_bent_rows_bit_identical_to_scalar_path(orders, bend):
    """Every row of _bent_inside (frame, m3, g2 and residual) equals the
    scalar computation bit for bit, sign of zero included; _order_residuals
    gives the same residual rows, and the penalty to rows outside the ball."""
    sig = TurnoverSignature(*orders)
    rng = np.random.default_rng(5)
    for k1 in range(sig.n1):
        g1_inv = _twisted_rotation(0.0, sig.n1, k1, bend).inverse().matrix
        for k3 in range(sig.n3):
            phases = representations._rotation_phases(sig.n3, k3, bend)
            r = 1.05 * np.sqrt(rng.uniform(size=40))
            t = rng.uniform(-np.pi, np.pi, 40)
            rows = np.column_stack([r * np.cos(t), r * np.sin(t), rng.uniform(-7.0, 7.0, 40),
                                    rng.uniform(-50.0, 50.0, 40)])
            inside = rows[:, 0] * rows[:, 0] + rows[:, 1] * rows[:, 1] < 0.98
            stacked = representations._bent_inside(rows[inside], g1_inv, phases, sig.n2)
            res = representations._order_residuals(rows, g1_inv, phases, sig.n2)
            assert np.array_equal(res[~inside], np.full(((~inside).sum(), 18), 1e3))
            assert _same_bits(res[inside], stacked[3])
            for i, x in enumerate(rows[inside]):
                expected = _bent_arrays(x, g1_inv, phases, sig.n2)
                for got, want in zip((part[i] for part in stacked), expected):
                    assert _same_bits(got, want)


def test_form_adjoint_has_the_bits_of_the_form_matmuls():
    """J u* J by sign flips equals FORM_MATRIX @ u* @ FORM_MATRIX bit for
    bit, sign of zero included, on stacks with and without zero parts."""
    rng = np.random.default_rng(8)
    for zeros in (0, 1, 5):
        u = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        parts = u.view(float).reshape(-1)
        parts[rng.choice(parts.size, zeros, replace=False)] = rng.choice([0.0, -0.0], zeros)
        expected = FORM_MATRIX @ u.conj().swapaxes(-1, -2) @ FORM_MATRIX
        assert _same_bits(representations._form_adjoint(u), expected)


def _twist_starts(sig, twist, starts=30):
    """The x0 rows turnover_solve draws for one twist at the default seed."""
    rng = np.random.default_rng(SolverSeed().seed)
    blocks = [
        [[rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.7), rng.uniform(-1.5, 1.5),
          rng.uniform(-np.pi, np.pi)] for _ in range(starts)]
        for _ in range(sig.n1 * sig.n3)
    ]
    return np.array(blocks[twist[0] * sig.n3 + twist[1]])


def test_turnover_solve_draws_the_scalar_start_sequence(monkeypatch):
    """The starts of every twist are the seed's scalar rng.uniform draws,
    start by start and bit for bit."""
    sig = TurnoverSignature(3, 3, 4)
    starts = []

    def record(fun, x0, **kwargs):
        starts.append(x0)
        return []

    monkeypatch.setattr(representations, "least_squares", record)
    with pytest.raises(ConvergenceError):
        turnover_solve(sig, 0.02)
    assert len(starts) == sig.n1 * sig.n3
    for index, x0 in enumerate(starts):
        assert _same_bits(x0, _twist_starts(sig, divmod(index, sig.n3)))


@pytest.mark.parametrize("bend, twist", [(0.04, (0, 1)), (-0.05, (0, 0))])
def test_lockstep_least_squares_bit_identical_to_scipy(bend, twist):
    """Each of 30 lockstep rows reproduces scipy's trf least_squares from
    the same start: x, residuals, nfev and status, bit for bit."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    sig = TurnoverSignature(3, 3, 4)
    g1_inv = _twisted_rotation(0.0, sig.n1, twist[0], bend).inverse().matrix
    phases = representations._rotation_phases(sig.n3, twist[1], bend)

    def rows(p):
        return representations._order_residuals(p, g1_inv, phases, sig.n2)

    options = SOLVER_STOPPING
    x0 = _twist_starts(sig, twist)
    results = list(lsq.least_squares(rows, x0, **options))
    assert len(results) == len(x0)
    for start, got in zip(x0, results):
        ref = scipy_optimize.least_squares(lambda x: rows(x[None])[0], start, **options)
        assert _same_bits(got.x, ref.x) and _same_bits(got.fun, ref.fun)
        assert (got.nfev, got.status) == (ref.nfev, ref.status)


def _walled_rows(p):
    """arctan residuals with non-finite values for p0 < 0.3, where overshooting
    Gauss-Newton steps from p0 > 1.5 land, so trial steps get retried."""
    out = np.column_stack([np.arctan(p[:, 0]), np.arctan(p[:, 1]), 0.1 * p[:, 0] * p[:, 1]])
    out[p[:, 0] < 0.3] = np.inf
    return out


def _rank_one_rows(p):
    """One residual in three unknowns: fewer residuals than unknowns."""
    return np.sin(p[:, :1]) + p[:, 1:2] * p[:, 2:3] - 0.3


_WALLED_STARTS = np.column_stack([np.linspace(1.5, 3.0, 12), np.linspace(-0.5, 0.5, 12)])


@pytest.mark.parametrize(
    "fun, x0, max_nfev, statuses",
    [
        (_walled_rows, _WALLED_STARTS, 200, {3, 4}),
        (_walled_rows, _WALLED_STARTS, 20, {0}),
        (_rank_one_rows, np.column_stack([np.linspace(-1.5, 1.5, 12)] * 3) * [1.0, -0.7, 0.4],
         300, {1}),
    ],
)
def test_lockstep_least_squares_matches_scipy_on_its_other_branches(fun, x0, max_nfev, statuses):
    """Non-finite trial residuals, the max_nfev budget (status 0), xtol and
    ftol stops, and rank-deficient Jacobians with fewer residuals than
    unknowns all follow scipy bit for bit."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    options = dict(xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=max_nfev)
    results = list(lsq.least_squares(fun, x0, **options))
    assert len(results) == len(x0)
    for start, got in zip(x0, results):
        ref = scipy_optimize.least_squares(lambda x: fun(x[None])[0], start, **options)
        assert _same_bits(got.x, ref.x) and _same_bits(got.fun, ref.fun)
        assert (got.nfev, got.status) == (ref.nfev, ref.status)
    assert {r.status for r in results} == statuses


def _bent_objective(bend, twist):
    """The residual function turnover_solve hands to least_squares for one
    (3,3,4) twist."""
    sig = TurnoverSignature(3, 3, 4)
    return functools.partial(
        representations._order_residuals,
        g1_inv=_twisted_rotation(0.0, sig.n1, twist[0], bend).inverse().matrix,
        phases=representations._rotation_phases(sig.n3, twist[1], bend),
        n2=sig.n2,
    )


@pytest.mark.parametrize(
    "fun, x0, options",
    [
        (_bent_objective(0.04, (0, 1)), _twist_starts(TurnoverSignature(3, 3, 4), (0, 1)),
         SOLVER_STOPPING),
        (_walled_rows, _WALLED_STARTS, dict(xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=200)),
    ],
)
def test_lockstep_makes_one_residual_call_per_tick(fun, x0, options):
    """Each tick evaluates every running row's trial step together with the
    forward-difference points around it, and the first call evaluates the
    starts with theirs: a fully consumed batch makes as many residual calls
    as its longest row makes evaluations.  In the walled case some trial
    residuals are infinite, and the columns of those rejected trials are
    discarded without a warning."""
    calls, non_finite = [], []

    def counted(p):
        out = fun(p)
        calls.append(len(p))
        non_finite.append(not np.isfinite(out).all())
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = list(lsq.least_squares(counted, x0, **options))
    assert len(results) == len(x0)
    assert len(calls) == max(r.nfev for r in results)
    assert calls[0] == len(x0) * (1 + x0.shape[1])
    assert any(non_finite) == (fun is _walled_rows)


def test_lockstep_rejects_a_start_with_non_finite_residuals():
    """As scipy does, a start whose residuals are not finite is an error."""
    def residuals(p):
        return np.column_stack([p[:, 0], np.where(p[:, 1] > 0, np.inf, p[:, 1])])

    with pytest.raises(ValueError, match="not finite"):
        list(lsq.least_squares(residuals, np.array([[1.0, -1.0], [1.0, 1.0]]),
                               xtol=1e-8, ftol=1e-8, gtol=1e-8, max_nfev=50))


def test_alpha_reset_takes_the_scalar_power_root():
    """The LM-parameter reset is scipy's max(0.001 * up, (lo * up)**0.5) on
    numpy scalars, whose C pow differs from the array sqrt on rare inputs;
    the draw contains such inputs, so the array sqrt would fail here."""
    rng = np.random.default_rng(11)
    lower = rng.uniform(0.0, 1.0, 20000) * 10.0 ** rng.integers(-12, 12, 20000)
    upper = lower * rng.uniform(1.0, 1e4, 20000)
    assert (np.sqrt(lower * upper) != np.array([v**0.5 for v in lower * upper])).any()
    expected = [max(0.001 * up, (lo * up) ** 0.5) for lo, up in zip(lower, upper)]
    assert np.array_equal(lsq._alpha_reset(lower, upper), expected)


def test_lockstep_yields_rows_in_order_and_stops_when_the_caller_does():
    """Rows finish out of order but are yielded in row order, and a caller
    that takes the first three of five rows gets the full run's first three
    rows with fewer residual calls than the full batch makes."""
    target = np.array([1.0, -2.0])
    calls = []

    def residuals(p):
        calls.append(len(p))
        return np.column_stack([p - target, 0.1 * (p[:, :1] - target[0]) ** 2])

    x0 = np.array([[40.0, 30.0], [1.0, -2.0], [1.5, -2.5], [-60.0, 9.0], [1.0, -2.0]])
    options = dict(xtol=1e-8, ftol=1e-8, gtol=1e-8, max_nfev=200)
    full = list(lsq.least_squares(residuals, x0, **options))
    full_calls = len(calls)
    assert len(full) == 5 and full[1].nfev < full[0].nfev
    for result in full:
        assert np.abs(result.x - target).max() < 1e-6 and result.status > 0
    calls.clear()
    head = list(itertools.islice(lsq.least_squares(residuals, x0, **options), 3))
    assert len(calls) < full_calls
    for got, want in zip(head, full[:3], strict=True):
        assert _same_bits(got.x, want.x) and _same_bits(got.fun, want.fun)
        assert (got.nfev, got.status) == (want.nfev, want.status)


def test_turnover_solve_failure_path_message():
    """(2,3,7) at bend 0.02 converges but never certifies; the error names
    the first converged start's twists (0, 0) and its residual, which is
    within the solver's bound.  The residual's digits are rounding noise
    that follows the BLAS kernel, so only the bound is pinned."""
    with pytest.raises(InvalidSolutionError) as err:
        turnover_solve(TurnoverSignature(2, 3, 7), 0.02)
    match = re.fullmatch(
        r"solver converged \(g2-order residual (\S+), twists \(0, 0\)\) but no "
        r"stable-geodesic choice passes K1 and K2", str(err.value))
    assert match is not None, str(err.value)
    assert 0.0 <= float(match[1]) <= Tolerances().solver_residual


def test_import_does_not_load_scipy():
    """scipy is a test-only dependency: the package and CLI never import it."""
    code = "import sys, chdisc, chdisc.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "orders, params",
    [
        ((3, 3, 4), [0.33220702571602767, -0.6819404548804896, 0.18671002277092813,
                     -1.0422550234242898e-16]),
        ((3, 3, 5), [0.321639813434609, -0.8782020820219301, 0.4420449539098933,
                     -5.502172041940579e-17]),
    ],
)
def test_turnover_solve_pinned_solution(orders, params):
    """At bend 0.10 the default search returns the recorded twists and
    parameters: the start order, the least-squares trajectory and the
    acceptance rule are unchanged."""
    rep, quad = turnover_solve(TurnoverSignature(*orders), 0.10)
    assert rep.metadata["polar_twists"] == (0, 0)
    assert rep.metadata["params"] == pytest.approx(params, abs=1e-12)
    assert quad.certificate.k1 and quad.certificate.k2


def test_turnover_solve_propagates_unexpected_errors(monkeypatch):
    """Only geometry and linear-algebra failures are skipped by the search."""
    def broken(config, tol):
        raise RuntimeError("certificate failure")

    monkeypatch.setattr(representations, "validate_quadrangle", broken)
    with pytest.raises(RuntimeError, match="certificate failure"):
        turnover_solve(TurnoverSignature(3, 3, 5), 0.10)


# -- the bend-0 turnover path as stacks, against the object path ---------------------

SCAN_SIGNATURES = [(3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7)]
#: the solve workload's bend ladder (``SOLVE_LADDER`` in bench/workloads.py)
SOLVE_LADDER = [((3, 3, 4), 0.10), ((3, 3, 4), 0.08), ((3, 3, 4), 0.06), ((3, 3, 4), 0.04),
                ((3, 3, 4), 0.03), ((3, 3, 4), -0.05), ((3, 3, 5), 0.10), ((3, 3, 5), 0.05)]


@pytest.fixture(scope="module")
def stack_reps():
    """{id: representation}: the scan's four baselines, the 8 bent ladder
    answers and an h5_builder representation."""
    reps = {"-".join(map(str, s)): fuchsian_turnover(TurnoverSignature(*s))[0] for s in SCAN_SIGNATURES}
    for s, bend in SOLVE_LADDER:
        reps[f"{'-'.join(map(str, s))}@{bend}"] = turnover_solve(TurnoverSignature(*s), bend)[0]
    rng = np.random.default_rng(5)
    reps["h5"] = h5_builder(F0, [random_negative_point(rng) for _ in range(4)])
    return reps


@pytest.mark.parametrize("orders", SCAN_SIGNATURES + [(4, 4, 4), (2, 3, 11)])
@pytest.mark.parametrize("bend", [0.0, 0.02])
def test_merged_rotation_tables_have_the_bits_of_one_table_per_centre(orders, bend):
    sig = TurnoverSignature(*orders)
    z1, _, z3 = triangle_vertices(*sig.angles())
    g, g_inv = representations._rotation_table([z1, z3], [sig.n1, sig.n3], bend, Tolerances())
    ref = [rotation_table_per_centre(z, n, bend) for z, n in ((z1, sig.n1), (z3, sig.n3))]
    assert g.tobytes() == np.concatenate([r[0] for r in ref]).tobytes()
    assert g_inv.tobytes() == np.concatenate([r[1] for r in ref]).tobytes()
    one, one_inv = representations._rotation_table(z3, sig.n3, bend, Tolerances())
    assert (one.tobytes(), one_inv.tobytes()) == (ref[1][0].tobytes(), ref[1][1].tobytes())


def test_stacked_word_products_have_the_bits_of_the_isometry_chain(stack_reps):
    """Every relation, and words with inverses and of other lengths, on the
    scan baselines, the bent ladder and an h5 representation."""
    for rep in stack_reps.values():
        names = list(rep.generators)
        words = rep.relations + [f"{names[0]}^-1", f"{names[1]} {names[0]}^-1 {names[2]}^-1 {names[1]}", ""]
        stack = rep.word_products(words)
        for row, word in zip(stack, words):
            assert row.tobytes() == word_product_chain(rep, word).matrix.tobytes(), word
        residuals = rep.relation_residuals()
        for word in rep.relations:
            chain = float(_identity_distance(word_product_chain(rep, word).matrix))
            assert residuals[word].hex() == chain.hex() == relation_residual(rep, word).hex()


def test_stacked_fixed_points_and_coning_tau_have_the_bits_of_the_per_generator_path(stack_reps):
    for key, rep in stack_reps.items():
        if key == "h5":
            continue
        fixed = rep.fixed_points()
        per_call = {name: fixed_point_per_call(g) for name, g in rep.generators.items()}
        for name, g in rep.generators.items():
            assert fixed[name].v.tobytes() == per_call[name].v.tobytes(), (key, name)
            assert elliptic_fixed_point(g).v.tobytes() == per_call[name].v.tobytes()
        tau = toledo_via_coning(rep, fixed)
        assert tau.hex() == toledo_via_coning_per_generator(rep, per_call).hex(), key


def test_the_fixed_point_search_names_a_generator_that_is_not_elliptic():
    rep, _ = fuchsian_turnover(TurnoverSignature(3, 3, 4))
    translation = Isometry(_su11_stack(np.cosh(0.8), np.sinh(0.8))[0])
    for name in ("g2", "g3"):
        bad = Representation(rep.kind, dict(rep.generators, **{name: translation}), rep.relations)
        with pytest.raises(ClassError, match=rf"^{name} has no negative eigenvector \(not elliptic\): "
                                             r"its most negative normalised square norm is \S+, "
                                             r"not below -1e-10$") as info:
            bad.fixed_points()
        norm = float(str(info.value).split(" is ")[1].split(",")[0])
        assert -1e-10 < norm < 1e-12  # the translation's null eigenvectors
    with pytest.raises(ClassError, match="^isometry has no negative eigenvector"):
        elliptic_fixed_point(translation)


@pytest.mark.parametrize("orders", SCAN_SIGNATURES + [(4, 4, 4), (2, 3, 8), (5, 5, 5)])
def test_turnover_tail_has_the_bits_of_the_object_path(orders):
    """c1..c3, the polars p1..p4 and the fixed-point and C4 gaps."""
    sig = TurnoverSignature(*orders)
    rep, quad = fuchsian_turnover(sig)
    fixed_gap, c4_gap, polars = turnover_tail_per_object(sig, rep)
    assert rep.metadata["fixed_point_gap"].hex() == fixed_gap.hex()
    assert rep.metadata["c4_consistency_gap"].hex() == c4_gap.hex()
    for got, want in zip(quad.config.polars, polars):
        assert got.v.tobytes() == want.v.tobytes()
