"""Spans and counters recorded around chdisc's layer boundaries.

The tracer wraps public chdisc functions at the module where each caller
looks them up: ``from .core import distance`` copies the name into
``chdisc.quadrangle``, so the K3 calls are wrapped as
``chdisc.quadrangle.distance``.  Each wrapped call records a span (id,
name, start, end, parent id, item id).  Spans and counters stay in memory;
``round_metrics`` reduces one traced round to the per-layer metrics below,
and the benchmark writes the last round's spans out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

#: Per-layer metrics, each reported per traced round (one pass over the
#: workload's item list): name -> (unit, better, the end-to-end metric the
#: layer metric should move, the workloads it should move it on).  This is
#: the prediction table later changes cite; BENCHMARK.json lists the same
#: names, units and directions.
_CERTIFY_PIPELINE = ("hostnorm_items_per_s", ("certify", "pipeline"))
_CERTIFY = ("hostnorm_items_per_s", ("certify",))
_VALIDATE = ("hostnorm_items_per_s", ("certify", "solve", "pipeline"))
_SOLVE = ("hostnorm_items_per_s", ("solve",))
_INVARIANTS = ("hostnorm_items_per_s", ("invariants",))
_INVARIANTS_PIPELINE = ("hostnorm_items_per_s", ("invariants", "pipeline"))
_PIPELINE = ("hostnorm_items_per_s", ("pipeline",))
LAYER_METRICS = {
    "core.distance.calls": ("count", "lower", *_CERTIFY_PIPELINE),
    "core.distance.total_s": ("s", "lower", *_CERTIFY_PIPELINE),
    "core.elliptic_from_frame.calls": ("count", "lower", *_SOLVE),
    "core.elliptic_from_frame.total_s": ("s", "lower", *_SOLVE),
    "geometry.common_perpendicular.calls": ("count", "lower", *_CERTIFY),
    "geometry.common_perpendicular.total_s": ("s", "lower", *_CERTIFY),
    "geometry.geodesic_interp.calls": ("count", "lower", *_INVARIANTS),
    "geometry.geodesic_interp.total_s": ("s", "lower", *_INVARIANTS),
    "quadrangle.validate_quadrangle.calls": ("count", "lower", *_VALIDATE),
    "quadrangle.validate_quadrangle.total_s": ("s", "lower", *_VALIDATE),
    "quadrangle.validate_quadrangle.self_s": ("s", "lower", *_VALIDATE),
    "quadrangle.adjacency_check.calls": ("count", "lower", *_CERTIFY_PIPELINE),
    "quadrangle.adjacency_check.total_s": ("s", "lower", *_CERTIFY_PIPELINE),
    "quadrangle.adjacency_check.self_s": ("s", "lower", *_CERTIFY_PIPELINE),
    # share of certifications that reach K3: wasted candidates on solve
    "quadrangle.k3_reach_ratio": ("ratio", "lower", "hostnorm_items_per_s",
                                 ("solve", "certify")),
    "representations.turnover_solve.total_s": ("s", "lower", *_SOLVE),
    "representations.least_squares.calls": ("count", "lower", *_SOLVE),
    "representations.least_squares.total_s": ("s", "lower", *_SOLVE),
    "representations.evals_per_solve": ("count", "lower", *_SOLVE),
    "representations.starts_per_solve": ("count", "lower", *_SOLVE),
    "representations.fuchsian_turnover.total_s": ("s", "lower", *_PIPELINE),
    "invariants.toledo_via_mesh.total_s": ("s", "lower", *_INVARIANTS),
    "invariants.symplectic_area_triangle.calls": ("count", "lower", *_INVARIANTS),
    "invariants.symplectic_area_triangle.total_s": ("s", "lower", *_INVARIANTS),
    "invariants.toledo_via_coning.total_s": ("s", "lower", *_PIPELINE),
    "invariants.euler_via_mesh.total_s": ("s", "lower", *_INVARIANTS_PIPELINE),
    "invariants.build_frame_field.total_s": ("s", "lower", *_INVARIANTS_PIPELINE),
    "meshes.turnover_section_mesh.total_s": ("s", "lower", *_INVARIANTS),
    "meshes.octagon_mesh.total_s": ("s", "lower", *_INVARIANTS),
    "meshes.faces": ("count", "lower", *_INVARIANTS),
    "io.write_json.calls": ("count", "lower", *_PIPELINE),
    "io.write_json.total_s": ("s", "lower", *_PIPELINE),
    "io.write_json.bytes": ("bytes", "lower", *_PIPELINE),
    "io.load_quadrangle.total_s": ("s", "lower", *_PIPELINE),
    "cli.run_turnover.calls": ("count", "lower", *_PIPELINE),
    "cli.run_turnover.total_s": ("s", "lower", *_PIPELINE),
    # summed over the round: scan start to each grid point's start (pool wait)
    "cli.run_turnover.wait_s": ("s", "lower", *_PIPELINE),
    # run_turnover spans over scan wall time: the concurrency --jobs achieves
    "cli.scan.overlap": ("ratio", "higher", *_PIPELINE),
    # traced minus untraced wall time of one round (medians over rounds)
    "trace.overhead_s": ("s", "lower", "none", ()),
}

# (module, attribute, span name): every place a caller looks a layer
# function up.  The benchmark's own calls go through these module
# attributes too, so they are wrapped as well.
WRAP_SITES = [
    ("chdisc.quadrangle", "distance", "core.distance"),
    ("chdisc.representations", "elliptic_from_frame", "core.elliptic_from_frame"),
    ("chdisc.quadrangle", "common_perpendicular", "geometry.common_perpendicular"),
    ("chdisc.meshes", "geodesic_interp", "geometry.geodesic_interp"),
    ("chdisc.quadrangle", "validate_quadrangle", "quadrangle.validate_quadrangle"),
    ("chdisc.representations", "validate_quadrangle", "quadrangle.validate_quadrangle"),
    ("chdisc.cli", "validate_quadrangle", "quadrangle.validate_quadrangle"),
    ("chdisc.quadrangle", "adjacency_check", "quadrangle.adjacency_check"),
    ("chdisc.representations", "turnover_solve", "representations.turnover_solve"),
    ("chdisc.cli", "turnover_solve", "representations.turnover_solve"),
    ("chdisc.representations", "least_squares", "representations.least_squares"),
    ("chdisc.representations", "fuchsian_turnover", "representations.fuchsian_turnover"),
    ("chdisc.cli", "fuchsian_turnover", "representations.fuchsian_turnover"),
    ("chdisc.invariants", "toledo_via_mesh", "invariants.toledo_via_mesh"),
    ("chdisc.invariants", "symplectic_area_triangle", "invariants.symplectic_area_triangle"),
    ("chdisc.cli", "toledo_via_coning", "invariants.toledo_via_coning"),
    ("chdisc.invariants", "euler_via_mesh", "invariants.euler_via_mesh"),
    ("chdisc.cli", "euler_via_mesh", "invariants.euler_via_mesh"),
    ("chdisc.invariants", "build_frame_field", "invariants.build_frame_field"),
    ("chdisc.meshes", "turnover_section_mesh", "meshes.turnover_section_mesh"),
    ("chdisc.cli", "turnover_section_mesh", "meshes.turnover_section_mesh"),
    ("chdisc.meshes", "octagon_mesh", "meshes.octagon_mesh"),
    ("chdisc.cli", "write_json", "io.write_json"),
    ("chdisc.cli", "load_quadrangle", "io.load_quadrangle"),
    ("chdisc.cli", "run_turnover", "cli.run_turnover"),
    ("chdisc.cli", "cmd_scan", "cli.scan"),
]


def _count_faces(tracer, args, kwargs, mesh):
    tracer.count("meshes.faces", len(mesh.triangles))


def _count_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("io.write_json.bytes", os.path.getsize(path))


_ON_RETURN = {
    "meshes.turnover_section_mesh": _count_faces,
    "meshes.octagon_mesh": _count_faces,
    "io.write_json": _count_bytes,
}


class Tracer:
    """In-memory spans and counters for one benchmark process.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a scan pool worker) takes the main
    thread's innermost open span as its parent, since the main thread
    is blocked in that call waiting for the worker.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.item = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self):
        self.spans = []
        self.counters = Counter()

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] += n

    def _begin(self):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)  # a single C call, atomic under the GIL
        stack.append(sid)
        return stack, sid, parent, time.perf_counter()

    def _end(self, name, stack, sid, parent, start):
        end = time.perf_counter()
        stack.pop()
        self.spans.append((sid, name, start, end, parent, self.item))

    @contextlib.contextmanager
    def span(self, name):
        opened = self._begin()
        try:
            yield
        finally:
            self._end(name, *opened)

    def wrap(self, name, fn):
        if name == "representations.least_squares":
            return self._wrap_least_squares(fn)
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(name, *opened)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_least_squares(self, fn):
        # counts objective evaluations, including the finite-difference
        # Jacobian's, by wrapping the objective handed to the solver
        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            def counted(*a, **k):
                self.count("representations.objective_evals")
                return objective(*a, **k)

            with self.span("representations.least_squares"):
                return fn(counted, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site in WRAP_SITES; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in WRAP_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def round_metrics(spans, counters):
    """Reduce the spans and counters of one traced round to LAYER_METRICS.

    Self time is a span's duration minus the part of it that its child
    spans cover; children running concurrently in pool threads are
    counted once.  ``trace.overhead_s`` is filled in by the caller.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, name, start, end, parent, _ in spans:
        children[parent].append((start, end))
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        self_s[name] += (end - start) - _covered([c for c in clipped if c[1] > c[0]])

    def ratio(a, b):
        return a / b if b else 0.0

    wait = sum(start - by_id[parent][2] for sid, name, start, end, parent, _ in spans
               if name == "cli.run_turnover" and parent in by_id)
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(calls[layer])
        elif kind == "total_s":
            out[metric] = total[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
    solves = calls["representations.turnover_solve"]
    out.update({
        "quadrangle.k3_reach_ratio": ratio(calls["quadrangle.adjacency_check"],
                                           calls["quadrangle.validate_quadrangle"]),
        "representations.evals_per_solve": ratio(counters["representations.objective_evals"], solves),
        "representations.starts_per_solve": ratio(calls["representations.least_squares"], solves),
        "meshes.faces": float(counters["meshes.faces"]),
        "io.write_json.bytes": float(counters["io.write_json.bytes"]),
        "cli.run_turnover.wait_s": wait,
        "cli.scan.overlap": ratio(total["cli.run_turnover"], total["cli.scan"]),
        "trace.overhead_s": 0.0,
    })
    return out
