"""Turnover signatures, baselines, the bent solver, and the H5 builder."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from chdisc import (
    ClassError,
    ConvergenceError,
    HyperbolicityError,
    Isometry,
    Representation,
    SolverSeed,
    TurnoverSignature,
    distance,
    elliptic_fixed_point,
    fuchsian_turnover,
    h5_builder,
    orbifold_euler,
    relation_residual,
    tance,
    triangle_from_angles,
    turnover_solve,
)
from chdisc.core import OrthogonalFrame, ProjectivePoint, elliptic_from_frame, herm_form
from chdisc.disc import F0, disc_distance, disc_rotation, embed, in_plane_frame
from chdisc import representations
from chdisc.representations import isometry_power

from conftest import random_negative_point


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


def test_orbifold_euler():
    assert orbifold_euler(TurnoverSignature(3, 3, 4)) == Fraction(-1, 12)
    assert orbifold_euler(TurnoverSignature(2, 3, 7)) == Fraction(-1, 42)
    assert orbifold_euler(2) == Fraction(-2)
    assert orbifold_euler((2, [2, 3])) == Fraction(-2) - Fraction(1, 2) - Fraction(2, 3)


def test_triangle_from_angles_geometry():
    sig = TurnoverSignature(3, 4, 5)
    c1, c2, c3 = triangle_from_angles(sig)
    # all vertices lie in the standard complex geodesic
    for c in (c1, c2, c3):
        assert abs(F0.herm_with(c)) < 1e-12
    # side lengths agree with the planar construction
    from chdisc.disc import triangle_vertices

    z1, z2, z3 = triangle_vertices(*sig.angles())
    assert distance(c1, c2) == pytest.approx(disc_distance(z1, z2), abs=1e-12)
    assert distance(c2, c3) == pytest.approx(disc_distance(z2, z3), abs=1e-12)


def test_relation_residual_word_algebra():
    g = disc_rotation(0.1 + 0.2j, 0.7)
    rep = Representation(kind="test", generators={"g": g}, relations=[])
    assert relation_residual(rep, "g g^-1") < 1e-12
    assert relation_residual(rep, "g") > 1e-3
    with pytest.raises(KeyError):
        rep.word_product("h")


def test_elliptic_fixed_point():
    center = 0.3 - 0.1j
    g = disc_rotation(center, 2.0 * np.pi / 5.0)
    x = elliptic_fixed_point(g)
    assert tance(x, embed(center)) == pytest.approx(1.0, abs=1e-10)
    # a loxodromic-free check: translations along a geodesic have no
    # negative eigenvector
    from chdisc.disc import su11_to_isometry

    t = 0.8
    lox = su11_to_isometry(np.cosh(t), np.sinh(t))
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


def test_isometry_power():
    g = disc_rotation(0.0, 2.0 * np.pi / 7.0)
    assert isometry_power(g, 7).projective_distance(Isometry.identity()) < 1e-12


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
    """The array objective turnover_solve hands to least_squares equals the
    object-path oracle bit for bit, on every twist, including the 1e3
    penalty outside the ball (a^2 + b^2 >= 0.98)."""
    sig = TurnoverSignature(*orders)
    captured = []

    def record(fun, x0, args, **kwargs):
        captured.append((fun, args))
        return SimpleNamespace(fun=np.full(18, 1.0), x=x0)

    monkeypatch.setattr(representations, "least_squares", record)
    with pytest.raises(ConvergenceError):
        turnover_solve(sig, bend, SolverSeed(starts=1))
    assert len(captured) == sig.n1 * sig.n3  # one start per twist, in twist order

    rng = np.random.default_rng(20)
    outside = 0
    for index, (fun, args) in enumerate(captured):
        k1, k3 = divmod(index, sig.n3)
        for _ in range(200):
            r = 1.05 * np.sqrt(rng.uniform())
            t = rng.uniform(-np.pi, np.pi)
            x = np.array([r * np.cos(t), r * np.sin(t), rng.uniform(-7.0, 7.0),
                          rng.uniform(-50.0, 50.0)])
            outside += bool(x[0] * x[0] + x[1] * x[1] >= 0.98)
            assert np.array_equal(fun(x, *args), _object_path_objective(sig, bend, x, k1, k3))
    assert outside > 100


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
