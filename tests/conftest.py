"""Shared fixtures and random-object helpers for the test suite."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chdisc import Isometry, ProjectivePoint, herm_form, polar_span
from chdisc.core import herm_rows, self_norms

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


#: the solve workload's bend ladder (``SOLVE_LADDER`` in bench/workloads.py)
SOLVE_LADDER = [((3, 3, 4), 0.10), ((3, 3, 4), 0.08), ((3, 3, 4), 0.06), ((3, 3, 4), 0.04),
                ((3, 3, 4), 0.03), ((3, 3, 4), -0.05), ((3, 3, 5), 0.10), ((3, 3, 5), 0.05)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def cpu_has(feature: str) -> bool:
    """Whether numpy's dispatcher found ``feature`` on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return bool(features.get(feature))


def fresh_process_json(code: str, arg: str, **extra):
    """The JSON that the Python source ``code`` prints when run with the one
    argument ``arg`` in a new process, with neither OPENBLAS_CORETYPE nor
    NPY_DISABLE_CPU_FEATURES set but for ``extra``: the way to run chdisc
    under another BLAS kernel or numpy dispatch target."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", code, arg], capture_output=True,
                         text=True, check=True, env={**env, **extra})
    return json.loads(out.stdout)


def tracer_wrap_sites():
    """``WRAP_SITES`` of ``bench/tracer.py``: the (module, attribute, metric)
    triples by which the benchmark tracer wraps chdisc functions, read from
    the file without importing the benchmark package."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_SITES


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


def boost(rapidity: float, direction) -> Isometry:
    """The boost of the given rapidity at the origin (1, 0, 0) along the unit
    tangent direction (0, u), u = direction / |direction| in C^2:
    [[cosh t, sinh t u*], [sinh t u, I + (cosh t - 1) u u*]].  The direction
    (1, 0) moves along the standard complex geodesic P(F0^perp)."""
    u = np.asarray(direction, dtype=complex)
    u = u / np.linalg.norm(u)
    m = np.eye(3, dtype=complex)
    m[0, 0] = np.cosh(rapidity)
    m[0, 1:], m[1:, 0] = np.sinh(rapidity) * u.conj(), np.sinh(rapidity) * u
    m[1:, 1:] += (np.cosh(rapidity) - 1.0) * np.outer(u, u.conj())
    return Isometry.from_matrix(m)


def scalar_slerp(x: np.ndarray, y: np.ndarray, t: float):
    """One point at a time: the unnormalised slerp of two representatives,
    or None where they are closer than 1e-15.

    Representatives scaled to <x,x> = <y,y> = -1, y phase aligned so that
    <x,y> = -cosh d, then (x sinh((1-t)d) + y sinh(td)) / sinh d.  The
    pairings are the one-vector case of the library's signed sums
    (``herm_rows``, ``self_norms``), and the phase is divided in numpy, not
    as a Python complex: the oracle and the kernel then reduce alike on
    every machine.
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
