"""Geodesic arc rendering: the drawn arcs really follow disc geodesics."""

import re

import numpy as np
import pytest

from chdisc.errors import DegenerateError
from chdisc.svg import FigureSpec, _to_svg, geodesic_arc_path, render_svg, write_svg

from conftest import random_disc_coordinate
from oracles import geodesic_point

_ARC = re.compile(
    r"M (?P<ax>\S+) (?P<ay>\S+) A (?P<r>\S+) \S+ 0 0 (?P<sweep>[01]) "
    r"(?P<bx>\S+) (?P<by>\S+)"
)


def _arc_geometry(ax, ay, bx, by, r, sweep):
    """Centre, start angle, and signed sweep of an SVG arc (large-arc 0)."""
    mx, my = (ax - bx) / 2.0, (ay - by) / 2.0
    d2 = mx * mx + my * my
    factor = np.sqrt(max(r * r - d2, 0.0) / d2)
    # F.6.5: sign is + when the flags differ; here large-arc = 0
    sign = 1.0 if sweep == 1 else -1.0
    cx = sign * factor * my + (ax + bx) / 2.0
    cy = -sign * factor * mx + (ay + by) / 2.0
    th1 = np.arctan2(ay - cy, ax - cx)
    th2 = np.arctan2(by - cy, bx - cx)
    delta = th2 - th1
    if sweep == 0 and delta > 0:
        delta -= 2.0 * np.pi
    if sweep == 1 and delta < 0:
        delta += 2.0 * np.pi
    return cx, cy, th1, delta


def test_arc_traces_the_geodesic(rng):
    for _ in range(20):
        a = random_disc_coordinate(rng)
        b = random_disc_coordinate(rng)
        if abs((a.conjugate() * b).imag) < 1e-6:
            continue
        m = _ARC.match(geodesic_arc_path(a, b))
        assert m, "expected an arc for non-collinear endpoints"
        ax, ay = float(m["ax"]), float(m["ay"])
        bx, by = float(m["bx"]), float(m["by"])
        r, sweep = float(m["r"]), int(m["sweep"])
        assert (ax, ay) == pytest.approx(_to_svg(a), abs=1e-5)
        assert (bx, by) == pytest.approx(_to_svg(b), abs=1e-5)
        cx, cy, th1, delta = _arc_geometry(ax, ay, bx, by, r, sweep)
        # the arc subtends less than a half turn (geodesics through two
        # interior points never wrap the ideal boundary)
        assert abs(delta) < np.pi
        for t in (0.25, 0.5, 0.75):
            px, py = _to_svg(geodesic_point(a, b, t))
            # interior geodesic points must land on the drawn circle ...
            assert np.hypot(px - cx, py - cy) == pytest.approx(r, abs=1e-4)
            # ... inside the swept angular range, i.e. on the drawn side
            th = np.arctan2(py - cy, px - cx)
            frac = (th - th1) / delta % (2.0 * np.pi / abs(delta))
            assert 0.0 < frac < 1.0


def test_diameter_renders_as_line():
    path = geodesic_arc_path(0.3 + 0.0j, -0.5 + 0.0j)
    assert path.startswith("M ") and " L " in path
    path2 = geodesic_arc_path(0.2 * np.exp(0.7j), -0.4 * np.exp(0.7j))
    assert " L " in path2


def test_arc_path_rejects_coincident_points():
    with pytest.raises(DegenerateError):
        geodesic_arc_path(0.1 + 0.1j, 0.1 + 0.1j)


def test_render_svg_structure_and_determinism(tmp_path):
    spec = FigureSpec(
        arcs=[(0.1, 0.4j), (0.4j, -0.3)],
        labels=[("C1", 0.1)],
        markers=[(0.4j, 0.04)],
        title="test figure",
    )
    text = render_svg(spec)
    assert text == render_svg(spec)
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "<title>test figure</title>" in text
    assert text.count("<path") == 2
    assert text.endswith("</svg>\n")
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg(p1, spec)
    write_svg(p2, spec)
    assert p1.read_bytes() == p2.read_bytes()
