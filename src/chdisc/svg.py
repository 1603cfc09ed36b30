"""Deterministic SVG rendering of disc figures.

Geodesics of the Poincare disc are drawn as circular arcs orthogonal to
the unit circle.  For endpoints a, b the arc's centre c solves the real
linear system Re(conj(a) c) = (1 + |a|^2)/2, Re(conj(b) c) = (1 + |b|^2)/2
(orthogonality |c|^2 = r^2 + 1 plus membership of both endpoints); when a
and b are collinear with the origin the geodesic is a straight chord.
Output is byte-reproducible: fixed viewport, fixed float formatting, no
timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateError

_SIZE = 500.0
_RADIUS = 220.0
_CENTER = 250.0
_STROKE = "#1f3a5f"
_MARKER_STROKE = "#a33"


def _fmt(x: float) -> str:
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _to_svg(z: complex) -> tuple[float, float]:
    return _CENTER + _RADIUS * z.real, _CENTER - _RADIUS * z.imag


def geodesic_arc_path(a: complex, b: complex) -> str:
    """SVG path data for the geodesic between two interior disc points."""
    if abs(a - b) < 1e-12:
        raise DegenerateError("geodesic arc needs distinct endpoints")
    ax, ay = _to_svg(a)
    bx, by = _to_svg(b)
    cross = (a.conjugate() * b).imag
    if abs(cross) < 1e-9:
        return f"M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}"
    m = np.array([[a.real, a.imag], [b.real, b.imag]])
    rhs = np.array([(1.0 + abs(a) ** 2) / 2.0, (1.0 + abs(b) ** 2) / 2.0])
    cx, cy = np.linalg.solve(m, rhs)
    c = complex(cx, cy)
    r = float(np.sqrt(abs(c) ** 2 - 1.0)) * _RADIUS
    # shorter arc around c; the y-flip into SVG coordinates reverses the
    # angular direction, so a math-clockwise short arc gets sweep flag 1
    delta = np.angle((b - c) / (a - c))
    sweep = 1 if delta < 0 else 0
    return (
        f"M {_fmt(ax)} {_fmt(ay)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} "
        f"{_fmt(bx)} {_fmt(by)}"
    )


@dataclass
class FigureSpec:
    """What to draw: polygon arcs, labelled vertices, and marker circles.

    ``arcs`` is a list of disc-coordinate endpoint pairs; ``labels`` maps
    text to a disc coordinate; ``markers`` are (centre, euclidean radius)
    circles (slice end-circle projections).
    """

    arcs: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    markers: list = field(default_factory=list)
    title: str = "chdisc figure"


def render_svg(spec: FigureSpec) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_SIZE)}" height="{_fmt(_SIZE)}" '
        f'viewBox="0 0 {_fmt(_SIZE)} {_fmt(_SIZE)}">',
        f"  <title>{spec.title}</title>",
        f'  <circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_RADIUS)}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for a, b in spec.arcs:
        lines.append(
            f'  <path d="{geodesic_arc_path(complex(a), complex(b))}" '
            f'fill="none" stroke="{_STROKE}" stroke-width="1.5"/>'
        )
    for z, r in spec.markers:
        x, y = _to_svg(complex(z))
        lines.append(
            f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r * _RADIUS)}" '
            f'fill="none" stroke="{_MARKER_STROKE}" stroke-width="1"/>'
        )
    for text, z in spec.labels:
        x, y = _to_svg(complex(z))
        lines.append(
            f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="#000"/>'
        )
        lines.append(
            f'  <text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
            f'font-family="monospace" font-size="14">{text}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(path, spec: FigureSpec) -> None:
    Path(path).write_text(render_svg(spec), encoding="utf-8")
