"""Shared fixtures and random-object helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from chdisc import Isometry, ProjectivePoint, herm_form, polar_span
from chdisc.core import herm_rows, self_norms


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_disc_coordinate(rng, radius: float = 0.8) -> complex:
    r = radius * np.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def random_negative_point(rng, radius: float = 0.8) -> ProjectivePoint:
    """A random point of H^2_C within hyperbolic reach of the origin."""
    r = radius * np.sqrt(rng.uniform())
    phi1, phi2 = rng.uniform(0.0, 2.0 * np.pi, 2)
    split = rng.uniform()
    a = r * np.sqrt(split) * np.exp(1j * phi1)
    b = r * np.sqrt(1.0 - split) * np.exp(1j * phi2)
    return ProjectivePoint([1.0, a, b])


def random_positive_point(rng, radius: float = 0.8) -> ProjectivePoint:
    return polar_span(
        random_negative_point(rng, radius), random_negative_point(rng, radius)
    )


def random_isometry(rng, radius: float = 0.8) -> Isometry:
    """A random holomorphic isometry, built from a form-orthonormal frame.

    Columns are a normalized negative point, a unit tangent vector there,
    and the unit polar completion; right-multiplying by unit phases keeps
    the matrix in U(2,1) while randomizing the elliptic part.
    """
    x = random_negative_point(rng, radius)
    xh = x.v / np.sqrt(-x.self_form())
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    e1 = w + herm_form(w, xh) * xh
    e1 = e1 / np.sqrt(herm_form(e1, e1).real)
    e2 = polar_span(ProjectivePoint(xh), ProjectivePoint(e1)).v
    e2 = e2 / np.sqrt(herm_form(e2, e2).real)
    m = np.column_stack([xh, e1, e2]) @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
    return Isometry.from_matrix(m)


def scalar_slerp(x: np.ndarray, y: np.ndarray, t: float):
    """One point at a time: the unnormalised slerp of two representatives,
    or None where they are closer than 1e-15.

    Representatives scaled to <x,x> = <y,y> = -1, y phase aligned so that
    <x,y> = -cosh d, then (x sinh((1-t)d) + y sinh(td)) / sinh d.  The
    pairings are the one-vector case of the library's signed sums
    (``herm_rows``, ``self_norms``), not ``herm_form``'s BLAS dot, whose
    summation order depends on the BLAS kernel, and the phase is divided in
    numpy, not as a Python complex: the oracle and the kernel then reduce
    alike on every machine.
    """
    xv = x / np.sqrt(-self_norms(x))
    yv = y / np.sqrt(-self_norms(y))
    p = herm_rows(xv, yv)
    if np.abs(p) >= 1e-15:
        yv = yv * (-p / np.abs(p))
    c = -herm_rows(xv, yv).real
    d = float(np.arccosh(max(c, 1.0)))
    if d < 1e-15:
        return None
    return (np.sinh((1.0 - t) * d) * xv + np.sinh(t * d) * yv) / np.sinh(d)


def scalar_geodesic_interp(x: ProjectivePoint, y: ProjectivePoint, t: float) -> ProjectivePoint:
    """The scalar slerp oracle for the geodesic kernel: ``scalar_slerp`` of
    the stored representatives as a point, x where they coincide."""
    v = scalar_slerp(x.v, y.v, t)
    return x if v is None else ProjectivePoint(v)
