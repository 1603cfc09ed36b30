"""Numerical invariants: Toledo number, bundle Euler degrees, identities.

Conventions.  At a negative point x with representative scaled to
<x,x> = -1, the tangent space is the form-orthogonal complement x^perp,
on which the Hermitian metric h(u,v) = <u,v> is positive definite.  The
Riemannian metric is g = Re h and the symplectic (Kaehler) form is
omega = Im h, so omega(u, iu) = -g(u,u): on a complex geodesic traversed
counterclockwise the integral of omega is minus the area.  With the Toledo
number defined as (2/pi) * integral of omega over an equivariant section,
the counterclockwise baseline sections give tau = chi exactly (the
``ORIENTATION_CONVENTION`` that reports carry).

``toledo_via_coning`` checks every generator's fixed point in one stacked
pass (``core._tance_rows``, of which ``tance`` is the one-pair case), and
``_connection_totals`` forms the face holonomies of both bundles in
blocks of ``_FACE_BLOCK`` faces, so that no temporary outgrows what the
allocator keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .core import (
    _SIGNS,
    NEGATIVE,
    ProjectivePoint,
    Isometry,
    herm_form,
    herm_rows,
    self_norms,
    _norms_and_squares,
    _sign_code,
    _tance_rows,
    _tangent_basis_of_units,
    _unit_reps,
    classify,
)
from .errors import ClassError, ConvergenceError, DegenerateError, MeshError
from .geometry import _aligned_units
from .io import _f
from .tolerances import TOL, Tolerances

COMPLEX_CLASS = "complex"
LAGRANGIAN_CLASS = "Lagrangian"
GENERIC_CLASS = "generic"
#: The orientation convention every invariants report names: tau = chi on
#: the counterclockwise baseline sections.
ORIENTATION_CONVENTION = "fiberwise-counterclockwise"


# -- tangent-space utilities --------------------------------------------------

def normalized_negative(x: ProjectivePoint) -> np.ndarray:
    if classify(x) != NEGATIVE:
        raise ClassError("expected a negative point")
    return x.v / np.sqrt(-x.self_form())


def tangent_project(xhat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Form-orthogonal projection of w into xhat^perp (<xhat,xhat> = -1)."""
    return w + herm_form(w, xhat) * xhat


def omega(u: np.ndarray, v: np.ndarray) -> float:
    """The symplectic form Im h on tangent vectors at a common point."""
    return float(herm_form(u, v).imag)


def _gram_schmidt(vectors, xhat):
    out = []
    for w in vectors:
        w = tangent_project(xhat, np.asarray(w, dtype=complex))
        for b in out:
            w = w - herm_form(w, b).real * b  # real (g-)orthogonalization
        n = np.sqrt(herm_form(w, w).real)
        if n < 1e-12:
            raise DegenerateError("degenerate span in tangent orthonormalization")
        out.append(w / n)
    return out


def kaehler_angle(x: ProjectivePoint, u1, u2, tol: Tolerances = TOL):
    """omega(u1, u2) for the g-orthonormalized tangent pair, with its class.

    Returns ``(value, cls)`` with value in [-1, 1]; the plane is complex
    when |value| is 1 and Lagrangian when it vanishes.
    """
    xh = normalized_negative(x)
    e1, e2 = _gram_schmidt([u1, u2], xh)
    val = float(np.clip(omega(e1, e2), -1.0, 1.0))
    if abs(val) > 1.0 - tol.kaehler:
        cls = COMPLEX_CLASS
    elif abs(val) < tol.kaehler:
        cls = LAGRANGIAN_CLASS
    else:
        cls = GENERIC_CLASS
    return val, cls


def _real_coords(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates of tangent vectors in the real basis (b1, ib1, b2, ib2).

    ``w`` is a (..., 3) stack and ``basis`` a (..., 2, 3) stack of unitary
    pairs broadcasting against it; returns (..., 4).  The map is a
    g-isometry, since the basis is unitary for h.
    """
    a = herm_rows(np.asarray(w, dtype=complex)[..., None, :], basis)
    return np.stack([a.real, a.imag], axis=-1).reshape(*a.shape[:-1], 4)


def _from_coords(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse of ``_real_coords``: (..., 4) coordinates to (..., 3) vectors."""
    return np.einsum("...k,...kd->...d", c[..., 0::2] + 1j * c[..., 1::2], basis)


#: |Pfaffian| below which a tangent 4-frame is degenerate: it decides the
#: DegenerateError verdict, as the Pfaffian is +-1 for an orthonormal frame
#: and rounding noise for a dependent one.
_DEGENERATE_FRAME = 1e-14


def orientation_sign(x, frame4):
    """Sign of real tangent 4-frames at x against the complex orientation of x^perp.

    Takes a negative point x with four 3-vectors, or an (N,3) stack with an
    (N,4,3) stack of frames; returns +1/-1 per frame.  The frame is
    projected into x^perp and the sign is that of ``_gram_pfaffians`` of
    its Gram matrix, the determinant of its real coordinates in any unitary
    basis (b1, ib1, b2, ib2) of x^perp, so no basis is built.
    """
    x = np.asarray(x, dtype=complex)[..., None, :]
    f = np.asarray(frame4, dtype=complex)
    f = f - (herm_rows(f, x) / self_norms(x))[..., None] * x  # into x^perp
    pf = _gram_pfaffians(herm_rows(f[..., :, None, :], f[..., None, :, :]))
    if np.any(abs(pf) < _DEGENERATE_FRAME):
        raise DegenerateError("degenerate 4-frame")
    return np.where(pf > 0, 1, -1)


def lagrangian_frame_check(x: ProjectivePoint, u1, u2, normal_pair=None,
                           tol: Tolerances = TOL) -> bool:
    """Orientation test for the normal frame of a Lagrangian tangent plane.

    For a Lagrangian orthonormal pair (u1, u2) the normal plane is i times
    the tangent plane, and the lemma-style normal frame is (v1, v2) =
    (i u2, i u1).  The check compares the orientation of (u1, u2, v1, v2)
    with the complex orientation of the full tangent space and returns True
    when they agree — which they do for the lemma assignment regardless of
    the ordering of the Lagrangian pair, since swapping u1, u2 also swaps
    v1, v2 (an even permutation).  Pass ``normal_pair`` explicitly to test
    a fixed normal frame against a re-ordered tangent pair.
    """
    xh = normalized_negative(x)
    e1, e2 = _gram_schmidt([u1, u2], xh)
    # 1e-6 decides the "not Lagrangian" ClassError verdict on |omega| of the
    # orthonormal pair; not a Tolerances field, for the reason given at
    # _DEGENERATE_FRAME
    if abs(omega(e1, e2)) > 1e-6:
        raise ClassError("tangent pair is not Lagrangian")
    if normal_pair is None:
        v1, v2 = 1j * e2, 1j * e1
    else:
        v1 = tangent_project(xh, np.asarray(normal_pair[0], dtype=complex))
        v2 = tangent_project(xh, np.asarray(normal_pair[1], dtype=complex))
    return bool(orientation_sign(xh, [e1, e2, v1, v2]) > 0)


# -- meshes ------------------------------------------------------------------

def _read_only(a, dtype=None) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SidePairing:
    """Boundary identification: isometry maps the vertices run_a onto run_b.

    The runs are 1-D integer arrays of vertex indices, matched entry by entry.
    The pairing holds read-only copies of the runs and of the isometry matrix.
    """

    run_a: np.ndarray
    run_b: np.ndarray
    isometry: Isometry

    def __post_init__(self):
        object.__setattr__(self, "run_a", _read_only(self.run_a))
        object.__setattr__(self, "run_b", _read_only(self.run_b))
        object.__setattr__(self, "isometry", Isometry(_read_only(self.isometry.matrix)))


@dataclass(frozen=True)
class SectionMesh:
    """A triangulated polygon with an embedding into H^2_C and identifications.

    ``vertices`` is the (V,3) complex stack of negative representatives,
    one row per vertex; ``triangles`` is an (F,3) integer array of vertex
    indices, counterclockwise in the abstract polygon; ``side_pairings``
    identify boundary runs pointwise; cone points carry their orders for
    orbifold bookkeeping and snapping denominators.

    The mesh holds read-only copies of its arrays and is checked once, on
    construction: ``MeshError`` is raised for a malformed array or an index
    outside [0, V), a non-negative vertex, or a pairing that does not map
    its run onto the other.  The check also forms ``units``, read-only: the
    canonical representative of each vertex, with <x,x> = -1 and x0 real
    positive (x0 != 0 at a negative point), which the connection pass may
    read as phase aligned between neighbours.  Every numeric read uses it,
    so no invariant depends on the representatives or scale a mesh is
    given; only the class test reads ``vertices``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    side_pairings: tuple = ()
    cone_points: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", _read_only(self.vertices, complex))
        # the given dtype, so that float faces are rejected
        object.__setattr__(self, "triangles", _read_only(self.triangles))
        object.__setattr__(self, "side_pairings", tuple(self.side_pairings))
        object.__setattr__(self, "cone_points", tuple(self.cone_points))
        self._check()

    @cached_property
    def face_triples(self) -> np.ndarray:
        """<a,b><b,c><c,a> of every face (a, b, c), read-only; computed once
        for τ and the tautological phases of the bundle degrees."""
        return _read_only(_triple_products(self.units, self.triangles))

    def cone_orders(self):
        return [n for _, n in self.cone_points]

    def snap_denominator(self) -> int:
        orders = self.cone_orders()
        return 2 * lcm(*orders) if orders else 2

    def _check(self) -> None:
        # at TOL: it reads null_band and mesh, and callers (the CLI's --tol
        # included) change only other fields
        x, tri = self.vertices, self.triangles
        runs = [r for p in self.side_pairings for r in (p.run_a, p.run_b)]
        if x.ndim != 2 or x.shape[1] != 3:
            raise MeshError("vertices must be a (V,3) stack")
        if tri.ndim != 2 or tri.shape[1] != 3 or tri.dtype.kind not in "iu":
            raise MeshError("triangles must be an (F,3) integer array")
        if any(r.ndim != 1 or r.dtype.kind not in "iu" for r in runs):
            raise MeshError("side pairing runs must be 1-D integer arrays")
        # numpy would wrap a negative index silently; every index is checked
        # at once, and the failing array is named only when one is out of range
        every = np.concatenate([tri.ravel(), *runs])
        if every.size and (every.min() < 0 or every.max() >= len(x)):
            for what, idx in (("triangles", tri), ("side pairing runs", every[tri.size:])):
                if idx.size and (idx.min() < 0 or idx.max() >= len(x)):
                    raise MeshError(f"{what} index a vertex outside [0, {len(x)})")
        norms, squares = _norms_and_squares(x)
        # a norm strictly below its null band is negative; only a stack that
        # may hold another class is classified
        if not (-norms > TOL.null_band * squares).all():
            bad = np.flatnonzero(_sign_code(norms, squares, TOL.null_band) != -1)
            if bad.size:
                raise MeshError(f"embedded vertex {bad[0]} is not a negative point")
        x0 = x[:, :1]
        units = x * (x0.conj() / abs(x0)) / np.sqrt(-norms)[:, None]
        units.setflags(write=False)
        object.__setattr__(self, "units", units)
        if any(len(a) != len(b) for a, b in zip(runs[0::2], runs[1::2])):
            raise MeshError("side pairing runs have different lengths")
        if not runs:
            return
        # every pairing's run images, one stack; <u,u> = -1 at the run_b end
        image = np.concatenate([units[a] @ p.isometry.matrix.T
                                for p, a in zip(self.side_pairings, runs[0::2])])
        run_b = np.concatenate(runs[1::2])
        gap = abs(abs(herm_rows(image, units[run_b])) ** 2 / -self_norms(image) - 1.0)
        # a NaN gap (a non-finite pairing matrix) fails too
        ok = gap <= TOL.mesh
        if not ok.all():
            k = np.argmin(ok)
            raise MeshError(f"pairing maps vertex {np.concatenate(runs[0::2])[k]} "
                            f"to tance gap {gap[k]:g} from {run_b[k]}")


# -- Toledo integrals --------------------------------------------------------

def symplectic_area_triangle(x1: ProjectivePoint, x2: ProjectivePoint,
                             x3: ProjectivePoint) -> float:
    """The integral of omega over the geodesic triangle (x1, x2, x3) of
    negative points, the one-face term that ``_toledo`` sums.

    No library path calls it (bench/tracer.py wraps it by this name).
    """
    triple = _triple_products(np.array([x1.v, x2.v, x3.v]), [(0, 1, 2)])
    return float(_face_areas(triple)[0])


def _triple_products(vertices: np.ndarray, faces) -> np.ndarray:
    """<a,b><b,c><c,a> for each face (a, b, c) of index triples into a (V,3) stack."""
    v = vertices[np.asarray(faces)]
    a, b, c = v[:, 0], v[:, 1], v[:, 2]
    return herm_rows(a, b) * herm_rows(b, c) * herm_rows(c, a)


def _face_areas(triples: np.ndarray) -> np.ndarray:
    """The integrals of omega over geodesic faces, from their ``_triple_products``.

    Over a geodesic triangle (x1, x2, x3) of negative points the integral is
    exactly -arg(-<x1,x2><x2,x3><x3,x1>) / 2, independent of representatives
    (each point enters once linearly and once conjugate-linearly).
    """
    return -np.angle(-triples) / 2.0


def _toledo(triples: np.ndarray) -> float:
    """(2/pi) * the integral of omega summed over geodesic faces, from their
    ``_triple_products``."""
    # + 0.0 turns the -0.0 of a Lagrangian section into 0.0
    return float(2.0 / np.pi * _face_areas(triples).sum()) + 0.0


def toledo_via_mesh(m: SectionMesh) -> float:
    """(2/pi) * integral of omega over the embedded mesh, face by face."""
    return _toledo(m.face_triples)


def toledo_via_coning(rep, fixed_points, tol: Tolerances = TOL) -> float:
    """Toledo number from the coned fundamental polygon of a turnover.

    ``fixed_points`` maps generator names to their (negative) fixed points,
    each checked against its generator.  The polygon is the triangle
    (x1, x2, x3) together with its mirror triangle (x1, x3, g1^-1 x2).

    One stacked pass maps every fixed point by its generator, and x2 by
    g1^-1, with the bits of ``Isometry.__call__``, and reads the gaps with
    ``_tance_rows``; the first generator that does not fix its point raises.
    """
    names = list(rep.generators)
    maps = np.array([g.matrix for g in rep.generators.values()] + [rep.generators["g1"].inverse().matrix])
    x = np.array([fixed_points[n].v for n in names] + [fixed_points["g2"].v])
    image = _unit_reps((maps @ x[..., None])[..., 0])
    bad = np.flatnonzero(abs(_tance_rows(image[:-1], x[:-1], tol) - 1.0) > tol.fixed_point)
    if bad.size:
        raise ConvergenceError(f"{names[bad[0]]} does not fix its declared fixed point")
    x1, x2, x3 = (fixed_points[n].v for n in ("g1", "g2", "g3"))
    return _toledo(_triple_products(np.array([x1, x2, x3, image[-1]]), [(0, 1, 2), (0, 2, 3)]))


# -- discrete-connection bundle degrees --------------------------------------

@dataclass
class FrameField:
    """Per-vertex orthonormal tangent pairs (u1, u2) and normal pairs (v1, v2).

    ``tangent`` and ``normal`` are (V,2,3) complex stacks, so
    ``u1, u2 = frames.tangent[i]``.  Orthonormal for g = Re h;
    (u1, u2, v1, v2) is positively oriented against the complex
    orientation of the tangent space, and (u1, u2) follows the surface
    orientation induced by the ccw mesh triangles.
    """

    tangent: np.ndarray
    normal: np.ndarray

    def validate(self, mesh: SectionMesh, tol: Tolerances = TOL) -> None:
        """Raise ``MeshError`` for the first vertex whose frame is not
        g-orthonormal, not tangent, or negatively oriented.

        The orientation comes from the Gram matrices the orthonormality
        check forms, through ``_gram_pfaffians``: no basis and no
        determinant per vertex.  As in ``orientation_sign``, an orthonormal
        tangent frame whose Pfaffian is below ``_DEGENERATE_FRAME`` raises
        ``DegenerateError``.
        """
        xh = mesh.units
        vs = np.concatenate([self.tangent, self.normal], axis=1)
        g = herm_rows(vs[:, :, None], vs[:, None])
        off = abs(g.real - np.eye(4)) > tol.orthogonality
        not_tangent = abs(herm_rows(vs, xh[:, None, :])) > tol.orthogonality
        pf = _gram_pfaffians(g)
        if not (off.any() or not_tangent.any() or not (pf >= _DEGENERATE_FRAME).all()):
            return
        not_orthonormal, not_tangent = off.any(axis=(1, 2)), not_tangent.any(axis=1)
        # orthonormal tangent frames have determinant +-1, so only they are oriented
        ok = ~(not_orthonormal | not_tangent)
        if (ok & (abs(pf) < _DEGENERATE_FRAME)).any():
            raise DegenerateError("degenerate 4-frame")
        negative = ok & ~(pf > 0)
        fails = np.stack([not_orthonormal, not_tangent, negative])
        idx = int(np.flatnonzero(fails.any(axis=0))[0])
        what = ("is not g-orthonormal", "is not tangent",
                "has negative orientation")[int(np.argmax(fails[:, idx]))]
        raise MeshError(f"frame at vertex {idx} {what}")


def _pfaffians(w: np.ndarray) -> np.ndarray:
    """Pfaffians of a (..., 4, 4) stack of real antisymmetric matrices."""
    return (w[..., 0, 1] * w[..., 2, 3] - w[..., 0, 2] * w[..., 1, 3]) + w[..., 0, 3] * w[..., 1, 2]


def _gram_pfaffians(g: np.ndarray) -> np.ndarray:
    """Pfaffians of Im g for a (..., 4, 4) stack of Gram matrices
    g[a, b] = <f_a, f_b> of tangent 4-frames.

    Each is the determinant of its frame's real coordinates in a unitary
    basis (b1, ib1, b2, ib2) of the tangent space, whose orientation is the
    complex one: Im <,> is a real 2-form, its matrix in that basis has
    Pfaffian 1 (Im <b, ib> = -1 for each b), and the Pfaffian of E^T W E is
    det(E) Pf(W).
    """
    return _pfaffians(g.imag)


def _coordinate_pfaffians(q: np.ndarray) -> np.ndarray:
    """``_gram_pfaffians`` of frames given by their real coordinates, the
    rows of a (..., 4, 4) stack q in the basis (b1, ib1, b2, ib2): det q.

    Im <f_a, f_b> is sum_k y_ak x_bk - x_ak y_bk, with x and y the real and
    imaginary coordinate columns (0, 2 and 1, 3).  For an orthogonal q
    rounding moves the Pfaffian by a few ulp of its size 1, so its sign is
    that of any accurate determinant, LAPACK's included.
    """
    w = q[..., 1::2] @ q[..., 0::2].swapaxes(-1, -2)
    return _pfaffians(w - w.swapaxes(-1, -2))


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants a d - b c of a (..., 2, 2) stack, each within a few ulp
    of |a d| + |b c|: their sign is LAPACK's unless they are that small."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _log_directions(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Log map d (y - c x) / sinh d at each x_i toward y_i, for rows scaled to
    <,> = -1, on the aligned pair (c = cosh d)."""
    y, c, d = _aligned_units(x, y)
    scale = np.divide(d, np.sinh(d), out=np.zeros_like(d), where=d >= 1e-15)
    return scale[:, None] * (y - c[:, None] * x)


#: a face's six directed edges, as column pairs (p, q): every ordered pair of
#: its corners, which are the edges a -> b and a -> c of its three corners (a, b, c)
_EDGE_FROM, _EDGE_TO = np.array([[0, 0, 1, 1, 2, 2], [1, 2, 2, 0, 0, 1]])
#: the columns of the corners that follow column k counterclockwise in a face
_NEXT_TWO = np.array([[1, 2], [2, 0], [0, 1]])


def _mesh_edges(tri: np.ndarray, n: int):
    """The directed edges of a mesh with n vertices and (F, 3) faces ``tri``.

    Returns ``(src, dst, degree, corner)``: the edges a -> b sorted by
    (a, b), each vertex's edge count, and the (n, 2) indices of the edges
    a -> b and a -> c of the first counterclockwise corner (a, b, c) at
    each vertex a, the one at a's first place in the flat face array.
    Raises ``MeshError`` for a vertex with fewer than two neighbours.
    """
    keys = np.sort(tri[:, _EDGE_FROM] * n + tri[:, _EDGE_TO], axis=None)  # a*n + b
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    src, dst = np.divmod(keys, n)
    degree = np.bincount(src, minlength=n)
    few = np.flatnonzero(degree < 2)
    if few.size:
        raise MeshError(f"vertex {few[0]} has fewer than two neighbours")
    flat = tri.ravel()
    first = np.full(n, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    k = first % 3
    bc = flat[(first - k)[:, None] + _NEXT_TWO[k]]
    return src, dst, degree, np.searchsorted(keys, (np.arange(n) * n)[:, None] + bc)


def _vertex_scatter(r: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Sum r_e r_e^T over each vertex's edges, for rows ``r`` grouped by
    vertex (``degree[v]`` rows each), with the bits of ``np.add.at`` into
    zeros: each vertex adds its rows left to right.

    The (V, slots, 4, 4) table, padded with zero rows at the end, is summed
    over its slot axis, which numpy adds one slot at a time while the 4x4
    blocks are innermost.  A reduction that started from the first slot
    would keep a sum of -0.0 entries at -0.0; + 0.0 gives it the +0.0 that
    adding to a zero start gives.
    """
    rr = np.concatenate([r[:, :, None] * r[:, None, :], np.zeros((1, 4, 4))])
    slot = np.arange(degree.max())
    start = np.cumsum(degree) - degree
    edge = np.where(slot < degree[:, None], start[:, None] + slot, len(r))
    return rr[edge].sum(axis=1) + 0.0


def build_frame_field(mesh: SectionMesh) -> FrameField:
    """Tangent/normal frames from the embedded mesh geometry, in one pass.

    At each vertex the log-map directions to its mesh neighbours are taken
    in real coordinates of a unitary basis of x^perp (a g-isometry to R^4),
    and the 4x4 scatter matrix sum r r^T is diagonalised.  The top two
    eigenvectors span the tangent plane, the dominant real 2-plane of the
    neighbour directions (exact for totally geodesic sections); the bottom
    two span its g-orthogonal complement, the normal plane, and come out
    g-orthonormal.  u2 is flipped so that (u1, u2) agrees with the first
    ccw triangle at the vertex, and v2 so that (u1, u2, v1, v2) agrees with
    the complex orientation.  Both signs are read in closed form, from
    a d - b c (``_det2``) and from the Pfaffian of the frame's symplectic
    Gram matrix (``_coordinate_pfaffians``), not from LAPACK determinants.
    """
    xh = mesh.units
    src, dst, degree, corner = _mesh_edges(mesh.triangles, len(xh))
    basis = _tangent_basis_of_units(xh)
    r = _real_coords(_log_directions(xh[src], xh[dst]), basis[src])
    # eigenvector rows, descending
    q = np.linalg.eigh(_vertex_scatter(r, degree))[1].transpose(0, 2, 1)[:, ::-1]
    # orient (u1, u2) by the first ccw corner at each vertex
    q[_det2(r[corner] @ q[:, :2].transpose(0, 2, 1)) < 0, 1] *= -1.0
    frames = _from_coords(q, basis[:, None])
    # q holds coordinates in the complex-oriented real basis (b1, ib1, b2, ib2)
    frames[_coordinate_pfaffians(q) < 0, 3] *= -1.0
    return FrameField(tangent=frames[:, :2], normal=frames[:, 2:])


def _rotation_angle(m: np.ndarray) -> np.ndarray:
    """Angle of the rotation nearest each real 2x2 matrix of a (..., 2, 2) stack.

    The maximiser of tr(R^T M) over SO(2) (the rotation of the polar
    decomposition, with the sign of the smaller singular direction fixed
    when det M < 0) is the rotation by atan2(M10 - M01, M00 + M11).
    """
    return np.arctan2(m[..., 1, 0] - m[..., 0, 1], m[..., 0, 0] + m[..., 1, 1])


def _taut_phases(mesh: SectionMesh) -> np.ndarray:
    """Projection-transport phase of the tautological line around each face.

    Tangent vectors at [x] live in Hom(L_x, x^perp) with L_x the spanned
    line; projection transport of plain x^perp vectors misses the L_x^*
    twist, whose face holonomy is arg(-<x_i,x_j><x_j,x_k><x_k,x_i>), so
    that phase is subtracted from each face's frame holonomy.
    """
    return np.angle(-mesh.face_triples)


#: faces per block of the connection pass, chosen from minor-fault counts
#: (``getrusage``, one fresh process per mesh, per call after the first).
#: Its largest temporary takes 1152 bytes a face for two bundles, 187 KB
#: at 162 faces, which the allocator serves again from its heap once the
#: first block is freed.  One pass over all faces faulted 171, 244 and 807
#: times per call on the (3,4,4) r12, r14 and r24 meshes and 328 on the
#: complex octagon r8; blocks of 162 faulted 0, 60, 0 and 82 times, and
#: blocks of 176 to 224 faces more on each.  162 faces is an r9 turnover
#: mesh, so r8 and r9 stay one block.
_FACE_BLOCK = 162


def _connection_totals(tri: np.ndarray, frames: np.ndarray, taut: np.ndarray):
    """Total frame holonomy over the faces, minus the tautological phases, / 2 pi,
    for each row of a C-contiguous (k, V, 2, 3) stack of frame pairs, in one pass.

    Along a directed face edge (i, j) the frames at i are transported by
    projection into x_j^perp (first-order Levi-Civita transport), which
    drops out of M[a, b] = Re <f_i[b], f_j[a]> since f_j is tangent at x_j.
    A face's holonomy is the wrapped sum of its three edge angles; ``taut``
    holds the faces' ``_taut_phases``, shared by every row.  Each row's
    faces are summed on their own, as a (k, F) sum over the last axis would
    add them in another order.  The holonomies are formed ``_FACE_BLOCK``
    faces at a time, each face with the same operations, and summed whole.
    """
    # the (re, im) pairs of each vector as 6 floats; the form's signs go on
    # per vertex, before the gather, with the same complex product
    signed, plain = (frames * _SIGNS).view(float), frames.view(float)
    nxt = tri[:, [1, 2, 0]]
    holonomy = np.empty((len(frames), len(tri)))
    for s in range(0, len(tri), _FACE_BLOCK):
        fi = signed[:, tri[s:s + _FACE_BLOCK]][..., None, :, :]
        fj = plain[:, nxt[s:s + _FACE_BLOCK]][..., None, :]
        # Re <f_i[b], f_j[a]> = sum over d of (re re + im im), in einsum's order
        t = fi * fj
        t = t[..., 0::2] + t[..., 1::2]
        m = t[..., 0] + t[..., 1] + t[..., 2]
        holonomy[:, s:s + _FACE_BLOCK] = np.angle(np.exp(1j * _rotation_angle(m).sum(axis=-1)))
    return [float(row.sum() / (2.0 * np.pi)) for row in holonomy - taut]


@dataclass
class MeshDegrees:
    chi_raw: float
    euler_raw: float
    chi: Fraction
    euler: Fraction


def euler_via_mesh(mesh: SectionMesh, tol: Tolerances = TOL) -> MeshDegrees:
    """Tangent and normal bundle degrees by discrete-connection holonomy.

    Builds the frame field of :func:`build_frame_field` and, per directed
    face edge, the angle of the rotation nearest to the projection
    transport of frames, atan2(M10 - M01, M00 + M11), for the tangent and
    normal pairs in one ``_connection_totals`` pass.  Each face's
    holonomy is the wrapped sum of its three edge angles minus the
    tautological phase; summed over faces and divided by 2 pi this gives
    the orbifold Euler characteristic (tangent pair) and the Euler number
    of the section's normal bundle (normal pair).  Per-face holonomy
    angles are invariant under rotations of the frames at a vertex, but
    not under a unit phase on its representative (on a Lagrangian plane
    that mixes the tangent and normal planes), so the frames are built on
    the canonical representatives of ``SectionMesh.units``.  Side pairings
    enter only through the mesh geometry they enforce; raw totals are
    snapped to rationals with denominator 2 * lcm(cone orders).
    """
    frames = build_frame_field(mesh)
    frames.validate(mesh, tol)
    chi_raw, e_raw = _connection_totals(
        mesh.triangles, np.stack([frames.tangent, frames.normal]), _taut_phases(mesh))
    den = mesh.snap_denominator()
    return MeshDegrees(
        chi_raw=chi_raw,
        euler_raw=e_raw,
        chi=snap_rational(chi_raw, den, tol),
        euler=snap_rational(e_raw, den, tol),
    )


# -- rational snapping and identities ----------------------------------------

def snap_rational(x: float, denominator_limit: int, tol: Tolerances = TOL) -> Fraction:
    """``Fraction(x).limit_denominator(denominator_limit)``, the rational
    nearest x whose denominator is at most the limit; raises
    ``ConvergenceError`` unless it lies within tol.snap of x.

    The continued fraction runs on the integers of x's exact ratio, and
    the closing choice between the last convergent and the semiconvergent
    after it compares their distances to x by integer cross products, as
    ``Fraction`` arithmetic would, exactly; one ``Fraction`` is formed, the
    one returned.
    """
    if denominator_limit < 1:
        raise ValueError("max_denominator should be at least 1")
    num, den = x.as_integer_ratio()
    p, q = num, den
    if den > denominator_limit:
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = num, den
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > denominator_limit:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (denominator_limit - q0) // q1
        p, q = p0 + k * p1, q0 + k * q1
        # the convergent p1/q1 on a tie, as limit_denominator chooses
        if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
            p, q = p1, q1
    # p / q is float(Fraction(p, q)), a correctly rounded int division
    if abs(p / q - x) > tol.snap:
        raise ConvergenceError(
            f"value {x} does not snap within {tol.snap} "
            f"to denominator {denominator_limit}"
        )
    return Fraction(p, q)


def _frac_str(x: Fraction | None) -> str | None:
    if x is None:
        return None
    return f"{x.numerator}/{x.denominator}"


def _maybe_f(x):
    return None if x is None else _f(x)


#: The ``Tolerances`` fields the invariants path reads from its ``tol``, and
#: the only ones a report records: ``null_band`` and ``fixed_point`` (the
#: coning tau's fixed-point test, through ``_tance_rows``), ``orthogonality``
#: (``FrameField.validate``) and ``snap`` (``snap_rational``).
_REPORT_TOLERANCES = ("fixed_point", "null_band", "orthogonality", "snap")


@dataclass
class InvariantReport:
    """chi, tau, e with raw and snapped values and the identity residual.

    ``reliable`` is cleared when a raw value refused to snap within the
    snapping tolerance; the raw values are still reported.
    """

    chi: Fraction
    toledo_raw: float
    euler_raw: float | None
    toledo: Fraction | None = None
    euler: Fraction | None = None
    reliable: bool = True
    tolerances: Tolerances = TOL

    def residual(self, signed: bool = True) -> float | None:
        if self.euler is None and self.euler_raw is None:
            return None
        return kalashnikov_residual(self, signed=signed)

    def to_json_dict(self) -> dict:
        return {
            "format": "chdisc/1",
            "kind": "invariants",
            "chi": _frac_str(self.chi),
            "euler": {
                "raw": _maybe_f(self.euler_raw),
                "snapped": _frac_str(self.euler),
            },
            "orientation_convention": ORIENTATION_CONVENTION,
            "reliable": self.reliable,
            "residual_signed": _maybe_f(self.residual(signed=True)),
            "residual_unsigned": _maybe_f(self.residual(signed=False)),
            "toledo": {
                "raw": _f(self.toledo_raw),
                "snapped": _frac_str(self.toledo),
            },
            "tolerances": {k: _f(getattr(self.tolerances, k)) for k in _REPORT_TOLERANCES},
        }


def invariant_report(chi: Fraction, toledo_raw: float, euler_raw: float,
                     denominator: int, tol: Tolerances = TOL) -> InvariantReport:
    """Snap raw tau and e against chi and package them into a report.

    The report is marked unreliable when a value refuses to snap or the
    snapped values violate Toledo rigidity |tau| <= |chi|; chi itself is
    exact by assumption.
    """
    reliable = True
    try:
        tau = snap_rational(toledo_raw, denominator, tol)
        e = snap_rational(euler_raw, denominator, tol)
    except ConvergenceError:
        tau = e = None
        reliable = False
    if tau is not None and abs(tau) > abs(chi):
        reliable = False
    return InvariantReport(
        chi=chi, toledo_raw=toledo_raw, euler_raw=euler_raw,
        toledo=tau, euler=e, reliable=reliable, tolerances=tol,
    )


def kalashnikov_residual(report: InvariantReport, signed: bool = True) -> float:
    """|3 tau - 2 e - 2 chi| (signed) or |-3 |tau| - 2 e - 2 chi| (unsigned).

    Uses snapped rationals when available, so a clean configuration gives
    exactly zero; three rationals are combined over the product of their
    denominators into one ``Fraction``.
    """
    chi = report.chi
    tau = report.toledo if report.toledo is not None else report.toledo_raw
    e = report.euler if report.euler is not None else report.euler_raw
    if isinstance(tau, Fraction) and isinstance(e, Fraction) and isinstance(chi, Fraction):
        (t, td), (en, ed), (cn, cd) = (tau.as_integer_ratio(), e.as_integer_ratio(),
                                       chi.as_integer_ratio())
        t = 3 * t if signed else -3 * abs(t)
        return Fraction(abs(t * ed * cd - 2 * en * td * cd - 2 * cn * td * ed), td * ed * cd)
    if signed:
        return abs(3 * tau - 2 * e - 2 * chi)
    return abs(-3 * abs(tau) - 2 * e - 2 * chi)


def gkl_euler(genus: int, tau_abs: int):
    """Euler number of the Goldman-Kapovich-Leeb disc bundle construction.

    Splits the genus-g surface as a union along t := g - 1 - tau_abs/2 and
    returns (e, chi1, chi2, t) with e = -g1 + 2 g2 = 2g - 2 - 3 tau_abs/2,
    which satisfies -3 tau_abs = 2 e + 2 (2 - 2g) exactly.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if tau_abs < 0 or tau_abs % 2 != 0:
        raise ValueError("tau_abs must be a non-negative even integer")
    if tau_abs > 2 * genus - 2:
        raise ValueError("tau_abs must satisfy tau_abs <= 2g - 2 (Toledo rigidity)")
    t = genus - 1 - tau_abs // 2
    g1 = genus - 1 - t
    g2 = t
    chi1 = -2 * g1
    chi2 = -2 * g2
    e = -g1 + 2 * g2
    assert -3 * tau_abs == 2 * e + 2 * (2 - 2 * genus)
    return e, chi1, chi2, t
