"""Every function in the package is reached by a run of the artifact
table, or is declared.

The roots are one ``artifacts.write`` of every entry of ``ARTIFACTS`` in
``tests/artifacts.py`` but ``fail`` (see ``ROOTS``): the chdisc command
lines, ``check-quadrangle`` on every quadrangle they write, the mesh
reports, the demos and the README library tour.  They run in process under
the stdlib ``trace`` module, counting lines outside the interpreter's and
numpy's directories.  A function or method counts as entered when a line of
its body ran.  Two declared sets stand in for callers the roots lack:

* the benchmark tracer's wrap sites (``WRAP_SITES`` in ``bench/tracer.py``),
  together with every package function, method or constructor that they
  name, transitively;
* ``PAPER_API`` below: paper-level functions that only the acceptance suite
  calls.

To keep a function that no root reaches, add it to ``PAPER_API`` with the
statement of the paper it implements.  A name belongs there only if
``tests/test_acceptance.py`` calls it, directly or through another declared
name, and only while the roots do not reach it: a declared name that they
reach fails the gate, so the list stays minimal.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
import trace
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import chdisc

import artifacts
from conftest import tracer_wrap_sites

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(chdisc.__file__).resolve().parent

#: every entry of the artifact table but ``fail``, the (2,3,7) scan at bend
#: 0.02: it is most of the traced time, and the only lines it runs that the
#: others do not are inside functions they enter too (``cli.run_turnover``,
#: ``_quadrangle_candidates`` and ``turnover_solve``), while the gate
#: counts functions
ROOTS = tuple(name for name in artifacts.ARTIFACTS if name != "fail")

#: Paper-level API that only ``tests/test_acceptance.py`` calls, with the
#: statement each name implements and the acceptance criterion checking it.
PAPER_API = {
    "chdisc.core.herm_form":
        "the Hermitian form <x,y> = -x0 conj(y0) + x1 conj(y1) + x2 conj(y2) of "
        "signature (2,1), from which tances and eps are formed (criteria 1 and 6)",
    "chdisc.core.ProjectivePoint.self_form":
        "the square norm <x,x> of a representative: negative on the points of H^2_C, "
        "positive on the polars of complex geodesics (criterion 6)",
    "chdisc.quadrangle.epsilon":
        "the unit invariant eps = <p1,p2><p2,p3><p3,p1> / |.| of a polar triple, "
        "invariant under isometries (criteria 1 and 6)",
    "chdisc.quadrangle.TriangleInvariant.from_polars":
        "a triangle of bisectors as its sides t_ij = sqrt(ta(p_i, p_j)) and eps (criterion 1)",
    "chdisc.quadrangle.is_transversal":
        "a triangle of bisectors is transversal when its three inequalities "
        "eps0^2 t_a^2 + t_b^2 + t_c^2 < 1 + 2 t12 t23 t31 eps0 hold strictly (criterion 1)",
    "chdisc.quadrangle.transversality_margins":
        "the slack of each transversality inequality of a triangle of bisectors (criterion 1)",
    "chdisc.quadrangle.triangle_over_complex_geodesic":
        "a counterclockwise triangle of bisectors over a complex geodesic has "
        "arg eps = -2 area (criterion 1)",
    "chdisc.core.reflection_about":
        "the reflection x -> -x + 2 <x,p>/<p,p> p in a point or a complex geodesic, "
        "a projective involution (criteria 5 and 6)",
    "chdisc.representations.h5_builder":
        "five reflections generating a hyperelliptic-group candidate (criterion 5)",
    "chdisc.invariants.kaehler_angle":
        "the Kaehler angle of a tangent plane: +-1 on complex planes, 0 on "
        "Lagrangian ones (criterion 7)",
    "chdisc.invariants.lagrangian_frame_check":
        "the normal frame (i u2, i u1) of a Lagrangian plane (u1, u2) agrees with the "
        "complex orientation (criterion 7)",
    "chdisc.invariants.orientation_sign":
        "the orientation of a real tangent 4-frame against the complex one (criterion 7)",
    "chdisc.invariants._gram_schmidt":
        "a g-orthonormal tangent pair from two tangent vectors (criterion 7)",
    "chdisc.invariants.omega": "the symplectic form omega = Im h (criterion 7)",
    "chdisc.invariants.normalized_negative":
        "the representative of a negative point scaled to <x,x> = -1, at which the "
        "tangent space x^perp carries h = <,> (criterion 7)",
    "chdisc.invariants.tangent_project":
        "the form-orthogonal projection into the tangent space x^perp (criterion 7)",
    "chdisc.meshes.real_plane_point":
        "the point (1, a, b) of the standard real (Lagrangian) plane (criterion 7)",
}


@dataclass(frozen=True)
class _Function:
    module: str
    node: ast.FunctionDef
    path: Path

    def body_lines(self) -> set:
        """The lines of the body after its docstring, which runs no line."""
        body = self.node.body
        if ast.get_docstring(self.node) is not None:
            body = body[1:]
        return {n for stmt in body for n in range(stmt.lineno, stmt.end_lineno + 1)}


def _package_functions() -> dict:
    """{"chdisc.module.qualname": _Function} for every module-level function
    and every method in the package."""
    out = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = f"chdisc.{info.name}"
        path = PACKAGE / f"{info.name}.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                out[f"{module}.{node.name}"] = _Function(module, node, path)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[f"{module}.{node.name}.{item.name}"] = _Function(module, item, path)
    return out


def _key(obj) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"


def _named_closure(objects, functions) -> set:
    """The keys of the package functions among ``objects`` and of every
    package function, method or constructor their bodies name, transitively.

    A name resolves through the module globals of the function naming it; a
    class stands for its ``__init__`` and ``__post_init__``, and
    ``Class.attr`` for that attribute of a package class.
    """
    reached, todo = set(), list(objects)
    while todo:
        obj = todo.pop()
        if isinstance(obj, type):
            todo += [vars(obj)[k] for k in ("__init__", "__post_init__") if k in vars(obj)]
            continue
        obj = getattr(obj, "__func__", obj)  # a staticmethod or classmethod
        if not hasattr(obj, "__code__") or _key(obj) not in functions or _key(obj) in reached:
            continue
        reached.add(_key(obj))
        scope = obj.__globals__
        for node in ast.walk(functions[_key(obj)].node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                todo.append(scope.get(node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = scope.get(node.value.id)
                if isinstance(owner, type) and owner.__module__.startswith("chdisc."):
                    todo.append(vars(owner).get(node.attr))
    return reached


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(functions, entered keys, wrap-site closure keys, the roots' directory)."""
    functions = _package_functions()
    for name in {f.module for f in functions.values()}:
        for obj in vars(importlib.import_module(name)).values():
            if hasattr(obj, "cache_clear"):  # a cached body must run under the trace
                obj.cache_clear()
    library = {sys.prefix, sys.exec_prefix, sys.base_prefix, str(Path(np.__file__).parents[1])}
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[d for d in library if not PACKAGE.is_relative_to(Path(d).resolve())])
    out = tmp_path_factory.mktemp("roots")
    tracer.runfunc(artifacts.write, out, ROOTS)
    lines = {}
    for filename, line in tracer.results().counts:
        lines.setdefault(Path(filename).resolve(), set()).add(line)
    entered = {key for key, f in functions.items() if f.body_lines() & lines.get(f.path, set())}
    sites = [getattr(importlib.import_module(m), attr) for m, attr, _ in tracer_wrap_sites()]
    return functions, entered, _named_closure(sites, functions), out


def test_the_roots_run(reach):
    """Each root wrote its files; ``artifacts.write`` raises on a run that fails."""
    out = reach[3]
    assert sorted(p.name for p in out.iterdir()) == sorted(ROOTS)
    assert all(any((out / name).iterdir()) for name in ROOTS)


def test_every_function_is_reached_or_declared(reach):
    functions, entered, wrapped, _ = reach
    unreached = sorted(set(functions) - entered - wrapped - set(PAPER_API))
    assert not unreached, (
        "no run of the artifact table reaches these, and they are not declared "
        f"(delete them, or see the module docstring): {unreached}"
    )


def test_declared_names_exist_and_are_otherwise_unreached(reach):
    functions, entered, wrapped, _ = reach
    assert sorted(set(PAPER_API) - set(functions)) == []
    assert sorted(set(PAPER_API) & entered) == [], "reached by a root: drop from PAPER_API"
    assert sorted(set(PAPER_API) & wrapped) == [], "reached by a wrap site: drop from PAPER_API"


def test_declared_names_are_called_by_the_acceptance_suite():
    """Each ``PAPER_API`` name is named in the acceptance suite, or is
    named by the body of one that is, transitively."""
    functions = _package_functions()
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}

    def resolve(key):
        obj = importlib.import_module(functions[key].module)
        for part in key[len(functions[key].module) + 1:].split("."):
            obj = getattr(obj, part)
        return obj

    direct = [resolve(k) for k in PAPER_API if k.rsplit(".", 1)[1] in named]
    assert sorted(set(PAPER_API) - _named_closure(direct, functions)) == []
