"""JSON file formats and canonical, byte-reproducible serialization.

Every file carries ``"format": "chdisc/1"`` and a ``"kind"``; unknown
fields are rejected so certificates stay comparable byte for byte.
Canonical dumps sort keys, use compact separators, write each float as
its shortest round-trip repr, and end with a newline.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Isometry, ProjectivePoint
from .errors import GeometryError

FORMAT = "chdisc/1"


class SchemaError(GeometryError):
    """A JSON document does not match the expected chdisc/1 schema."""


def _f(x):
    """A number as it is written to chdisc/1 files: ints and bools as they
    are, anything else as a Python float (json writes its shortest
    round-trip digits)."""
    if isinstance(x, bool) or isinstance(x, int):
        return x
    return float(x)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def _expect(doc: dict, kind: str, fields: set) -> None:
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    if doc.get("format") != FORMAT:
        raise SchemaError(f"unsupported format {doc.get('format')!r}, wanted {FORMAT!r}")
    if doc.get("kind") != kind:
        raise SchemaError(f"unexpected kind {doc.get('kind')!r}, wanted {kind!r}")
    unknown = set(doc) - fields - {"format", "kind"}
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")
    missing = fields - set(doc)
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")


def _real_array(rows, shape, message) -> np.ndarray:
    """``rows`` as a float array of the given shape, else ``SchemaError(message)``:
    ``rows`` must be nested lists of that shape whose leaves are JSON numbers,
    ints or floats; a boolean, a numeric string or an int beyond the float
    range is invalid input like a wrong shape."""
    def valid(node, dims):
        if not dims:
            return isinstance(node, (int, float)) and not isinstance(node, bool)
        return isinstance(node, list) and len(node) == dims[0] and all(valid(n, dims[1:]) for n in node)

    if not valid(rows, shape):
        raise SchemaError(message)
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise SchemaError(message) from exc


def _vector(rows) -> np.ndarray:
    arr = _real_array(rows, (3, 2), "a vector must be a list of three [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _vector_json(v) -> list:
    return [[_f(c.real), _f(c.imag)] for c in np.asarray(v, dtype=complex)]


# -- quadrangle configurations ------------------------------------------------

def quadrangle_to_json_dict(q) -> dict:
    return {
        "format": FORMAT,
        "kind": "quadrangle",
        "polars": [_vector_json(p.v) for p in q.polars],
    }


def load_quadrangle(path):
    from .quadrangle import QuadrangleConfig

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read quadrangle file: {exc}") from exc
    _expect(doc, "quadrangle", {"polars"})
    polars = doc["polars"]
    if not isinstance(polars, list) or len(polars) != 4:
        raise SchemaError("'polars' must list exactly four vectors")
    try:
        pts = tuple(_stored_point(_vector(p)) for p in polars)
    except GeometryError as exc:
        raise SchemaError(f"bad polar vector: {exc}") from exc
    return QuadrangleConfig(polars=pts)


def _stored_point(v) -> ProjectivePoint:
    """The point of a stored representative, keeping its bits when it is
    Euclidean-unit up to rounding: chdisc writes unit representatives, and
    normalizing one again can move its last bit, and with it a certificate
    (normalizing is off 1 by at most 1.5 eps)."""
    p = ProjectivePoint(v)
    if abs(np.linalg.norm(v) - 1.0) <= 4 * np.finfo(float).eps:
        p.v = v
    return p


# -- representations ----------------------------------------------------------

def _json_safe(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return _f(value)
    if isinstance(value, complex):
        return [_f(value.real), _f(value.imag)]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _f(float(value))
    return str(value)


def representation_to_json_dict(rep) -> dict:
    return {
        "format": FORMAT,
        "kind": "representation",
        "generators": {
            name: [_vector_json(row) for row in g.matrix]
            for name, g in sorted(rep.generators.items())
        },
        "metadata": _json_safe(rep.metadata),
        "relation_residuals": {
            word: _f(r) for word, r in sorted(rep.relation_residuals().items())
        },
        "relations": list(rep.relations),
        "rep_kind": rep.kind,
    }


def load_representation(path):
    from .representations import Representation

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read representation file: {exc}") from exc
    _expect(doc, "representation",
            {"generators", "metadata", "relation_residuals", "relations", "rep_kind"})
    gens = {}
    for name, rows in doc["generators"].items():
        arr = _real_array(rows, (3, 3, 2),
                          f"generator {name!r} must be a 3x3 matrix of [re, im] pairs")
        gens[name] = Isometry.from_matrix(arr[..., 0] + 1j * arr[..., 1])
    return Representation(
        kind=doc["rep_kind"],
        generators=gens,
        relations=list(doc["relations"]),
        metadata=dict(doc["metadata"]),
    )
