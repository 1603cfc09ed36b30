"""Disc trigonometry and C-Fuchsian isometries of the standard complex geodesic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdisc import DegenerateError, tance
from chdisc.disc import (
    F0,
    _disc_isometries,
    _disc_rotations,
    disc_distance,
    disc_isometry_two_points,
    disc_rotation,
    embed,
    mobius,
    radius_for_distance,
    side_from_angles,
    triangle_vertices,
)

from conftest import random_disc_coordinate
from oracles import (
    angles_from_sides,
    disc_isometry_per_call,
    disc_rotation_per_call,
    isometry_residual,
    coordinate,
    disc_angle,
    geodesic_point,
    mobius_inv,
    triangle_area_gauss_bonnet,
    triangle_area_quadrature,
)


def test_embed_coordinate_roundtrip(rng):
    z = random_disc_coordinate(rng)
    assert coordinate(embed(z)) == pytest.approx(z, abs=1e-12)
    with pytest.raises(DegenerateError):
        embed(1.2)


def test_disc_distance_matches_ambient(rng):
    z, w = random_disc_coordinate(rng), random_disc_coordinate(rng)
    d = disc_distance(z, w)
    assert tance(embed(z), embed(w)) == pytest.approx(np.cosh(d) ** 2, rel=1e-10)


def test_mobius_roundtrip(rng):
    a, z = random_disc_coordinate(rng), random_disc_coordinate(rng)
    assert mobius_inv(a, mobius(a, z)) == pytest.approx(z, abs=1e-12)
    assert mobius(a, a) == 0


def test_geodesic_point_arclength(rng):
    z, w = random_disc_coordinate(rng), random_disc_coordinate(rng)
    d = disc_distance(z, w)
    for t in (0.0, 0.3, 1.0):
        p = geodesic_point(z, w, t)
        assert disc_distance(z, p) == pytest.approx(t * d, abs=1e-12)
    m = geodesic_point(z, w, 0.5)
    assert disc_distance(z, m) == pytest.approx(disc_distance(m, w), abs=1e-12)


def test_radius_for_distance():
    assert disc_distance(0.0, radius_for_distance(0.7)) == pytest.approx(0.7, rel=1e-12)


angle = st.floats(0.1, 1.0)


@settings(max_examples=40, deadline=None)
@given(angle, angle, angle)
def test_trigonometry_roundtrip(alpha, beta, gamma):
    # angle sum < pi is guaranteed by the strategy bounds (at most 3.0 > pi
    # is possible, so filter)
    if alpha + beta + gamma >= np.pi - 0.05:
        return
    c = side_from_angles(alpha, beta, gamma)
    a = side_from_angles(beta, gamma, alpha)
    b = side_from_angles(gamma, alpha, beta)
    got = angles_from_sides(a, b, c)
    assert got == pytest.approx((alpha, beta, gamma), abs=1e-9)


def test_triangle_vertices_realize_angles():
    alphas = (np.pi / 3, np.pi / 4, np.pi / 5)
    z1, z2, z3 = triangle_vertices(*alphas)
    got = (
        disc_angle(z1, z2, z3),
        disc_angle(z2, z3, z1),
        disc_angle(z3, z1, z2),
    )
    assert got == pytest.approx(alphas, abs=1e-10)
    # counterclockwise: positive euclidean orientation at the conformal centre
    assert ((z2 - z1).conjugate() * (z3 - z1)).imag > 0
    with pytest.raises(DegenerateError):
        triangle_vertices(1.5, 1.5, 1.5)


def test_triangle_area_two_ways(rng):
    for _ in range(10):
        z1, z2, z3 = (random_disc_coordinate(rng) for _ in range(3))
        gb = triangle_area_gauss_bonnet(z1, z2, z3)
        quad = abs(triangle_area_quadrature(z1, z2, z3))
        assert quad == pytest.approx(abs(gb), abs=1e-9)
        assert 0.0 <= gb < np.pi / 4  # curvature -4 triangle area bound


def test_triangle_area_angle_defect_oracle():
    # the (pi/3, pi/3, pi/4) triangle has curvature -1 defect pi - 11 pi/12
    z1, z2, z3 = triangle_vertices(np.pi / 3, np.pi / 3, np.pi / 4)
    assert triangle_area_gauss_bonnet(z1, z2, z3) == pytest.approx(
        (np.pi - 11.0 * np.pi / 12.0) / 4.0, rel=1e-10
    )


def test_disc_rotation_is_c_fuchsian(rng):
    center = random_disc_coordinate(rng)
    g = disc_rotation(center, 2.0 * np.pi / 5.0)
    assert tance(g(F0), F0) == pytest.approx(1.0, abs=1e-12)
    assert tance(g(embed(center)), embed(center)) == pytest.approx(1.0, abs=1e-12)
    z = random_disc_coordinate(rng)
    img = coordinate(g(embed(z)))
    assert disc_distance(center, img) == pytest.approx(
        disc_distance(center, z), abs=1e-10
    )
    # rotation angle shows up in the mobius coordinates around the centre
    assert np.angle(mobius(center, img) / mobius(center, z)) == pytest.approx(
        2.0 * np.pi / 5.0, abs=1e-10
    )


def test_disc_isometry_two_points(rng):
    z1, z2 = random_disc_coordinate(rng), random_disc_coordinate(rng)
    w1 = random_disc_coordinate(rng)
    # move the target pair to the same distance
    d = disc_distance(z1, z2)
    w2 = mobius_inv(w1, radius_for_distance(d) * np.exp(0.3j))
    g = disc_isometry_two_points(z1, z2, w1, w2)
    assert coordinate(g(embed(z1))) == pytest.approx(w1, abs=1e-10)
    assert coordinate(g(embed(z2))) == pytest.approx(w2, abs=1e-10)
    assert isometry_residual(g.matrix) < 1e-12
    with pytest.raises(DegenerateError):
        disc_isometry_two_points(0.0, 0.5, 0.0, 0.9)


def test_disc_rotations_have_the_bits_of_one_call_each(rng):
    """The stacked rotations and ``disc_rotation`` give each matrix the bits
    of the one-frame construction from ``ProjectivePoint`` objects."""
    centers = [random_disc_coordinate(rng) for _ in range(50)] + [0.0, 0.3, -0.2j]
    angles = rng.uniform(-7.0, 7.0, len(centers))
    stacked = _disc_rotations(centers, angles)
    for c, a, m in zip(centers, angles, stacked):
        expected = disc_rotation_per_call(c, a)
        assert m.tobytes() == expected.tobytes()
        assert disc_rotation(c, a).matrix.tobytes() == expected.tobytes()
    # the turnover centres, as numpy scalars
    for n1, n2, n3 in [(3, 3, 4), (3, 3, 5), (2, 3, 7), (3, 4, 4)]:
        z1, _, z3 = triangle_vertices(np.pi / n1, np.pi / n2, np.pi / n3)
        g1_inv, g3 = _disc_rotations([z1, z3], [2.0 * np.pi / n1, -2.0 * np.pi / n3])
        assert g1_inv.tobytes() == disc_rotation_per_call(z1, 2.0 * np.pi / n1).tobytes()
        assert g3.tobytes() == disc_rotation_per_call(z3, -2.0 * np.pi / n3).tobytes()


def test_disc_isometries_have_the_bits_of_complex_scalars(rng):
    """The stacked two-point maps keep the bits of the scalar path, whose
    products, |z| and |z|^2 numpy's array loops round differently."""
    rows = []
    while len(rows) < 60:
        z1, z2, w1 = (random_disc_coordinate(rng) for _ in range(3))
        d = disc_distance(z1, z2)
        w2 = mobius_inv(w1, radius_for_distance(d) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        try:
            disc_isometry_per_call(z1, z2, w1, w2)
        except DegenerateError:  # the round trip through w2 missed the bound
            continue
        rows.append((z1, z2, w1, w2))
    stacked = _disc_isometries(*np.array(rows).T)
    for row, m in zip(rows, stacked):
        for cast in (complex, np.complex128):
            z = [cast(v) for v in row]
            expected = disc_isometry_per_call(*z)
            assert m.tobytes() == expected.tobytes()
            assert disc_isometry_two_points(*z).matrix.tobytes() == expected.tobytes()
    with pytest.raises(DegenerateError, match="not equidistant"):
        _disc_isometries([0.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.5, 0.9])
