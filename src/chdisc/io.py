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

from .core import _norms, _points_of_units
from .errors import GeometryError

FORMAT = "chdisc/1"


class SchemaError(GeometryError):
    """A JSON document does not match the expected chdisc/1 schema."""


def _f(x):
    """A number as it is written to chdisc/1 files: ints and bools as they
    are, anything else as a Python float (json writes its shortest
    round-trip digits)."""
    if type(x) is float or isinstance(x, int):  # an int or bool, or already a float
        return x
    return float(x)


#: The canonical encoder, built once: ``json.dumps`` with non-default
#: arguments builds a new encoder on every call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)``
    and a newline."""
    return _CANONICAL_JSON.encode(obj) + "\n"


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


def _vector(rows) -> np.ndarray:
    """A stored vector as a complex (3,) array, else ``SchemaError``: ``rows``
    must be three [re, im] pairs of JSON numbers, ints or floats; a boolean,
    a numeric string or an int beyond the float range is invalid input like
    a wrong shape."""
    message = "a vector must be a list of three [re, im] pairs"
    if not (isinstance(rows, list) and len(rows) == 3 and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            for pair in rows)):
        raise SchemaError(message)
    try:
        arr = np.array(rows, dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise SchemaError(message) from exc
    return arr[:, 0] + 1j * arr[:, 1]


def _vector_json(v) -> list:
    # tolist gives each part as the Python float _f would
    return np.ascontiguousarray(v, dtype=complex).view(float).reshape(-1, 2).tolist()


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
    v = np.array([_vector(p) for p in polars])
    n = _norms(v)
    if not (np.isfinite(n) & (n != 0.0)).all():
        raise SchemaError("bad polar vector: projective point needs a nonzero finite representative")
    # a row that is Euclidean-unit up to rounding keeps its bits: chdisc
    # writes unit representatives, and normalizing one again can move its
    # last bit, and with it a certificate (normalizing is off 1 by at most
    # 1.5 eps); any other row is scaled as ProjectivePoint scales it
    unit = abs(n - 1.0) <= 4 * np.finfo(float).eps
    return QuadrangleConfig(polars=_points_of_units(np.where(unit[:, None], v, v / n[:, None])))


# -- representations ----------------------------------------------------------

def _json_safe(value):
    """A representation's metadata as chdisc/1 JSON values, keys sorted;
    ``TypeError`` for a type with no JSON form, rather than its ``str``."""
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
    raise TypeError(f"no chdisc/1 JSON form for a value of type {type(value).__name__}")


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
