"""JSON path-exchange documents.

The on-disk surface uses degrees for angles and either ``n_sides`` or
``theta_degrees`` for the turn bound; everything is radians internally.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

from .geometry import from_angle, angle_of
from .model import Configuration, DiscretePath, Params
from .structure import PathStructure

VERSION = 1

# the string encoder of json.dumps (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii


class DocumentError(ValueError):
    """Malformed or schema-invalid path document."""


def _number(x: Any, name: str) -> float:
    """x as a float, where it is a finite JSON number: ``json`` reads the
    booleans as ints and NaN and Infinity as floats, and neither is a
    number here."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise DocumentError(f"{name} must be a finite number")


def _point(x: Any, name: str) -> tuple[float, float]:
    if not isinstance(x, list) or len(x) != 2:
        raise DocumentError(f"{name} must be [x, y]")
    return _number(x[0], f"{name}[0]"), _number(x[1], f"{name}[1]")


def _float_pairs(value: Any) -> list[float] | None:
    """The coordinates of a non-empty list of ``[float, float]`` lists,
    flattened, when every one is finite; None for any other value.  The
    types are exact: a ``float`` subclass such as ``numpy.float64`` has its
    own ``repr``."""
    if (type(value) is not list or set(map(type, value)) != {list}
            or set(map(len, value)) != {2}):
        return None
    flat = list(itertools.chain.from_iterable(value))
    if set(map(type, flat)) != {float} or not math.isfinite(sum(flat)):
        return None
    return flat


def params_to_json(params: Params) -> dict:
    return {"n_sides": params.n_sides, "ell": params.ell}


def params_from_json(obj: Any) -> Params:
    if not isinstance(obj, dict):
        raise DocumentError("params must be an object")
    ell = _number(obj.get("ell"), "params.ell")
    if not ell > 0:
        raise DocumentError("params.ell must be positive")
    if "n_sides" in obj:
        n = obj["n_sides"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 4:
            raise DocumentError("params.n_sides must be an integer >= 4")
        return Params.from_sides(n, ell)
    if "theta_degrees" in obj:
        theta = math.radians(_number(obj["theta_degrees"], "params.theta_degrees"))
        return Params(theta=theta, ell=ell)
    raise DocumentError("params needs n_sides or theta_degrees")


def _config_to_json(c: Configuration) -> dict:
    return {"point": [c.point[0], c.point[1]],
            "heading_degrees": math.degrees(angle_of(c.heading))}


def _config_from_json(obj: Any, name: str) -> Configuration:
    if not isinstance(obj, dict):
        raise DocumentError(f"{name} must be an object")
    pt = _point(obj.get("point"), f"{name}.point")
    deg = _number(obj.get("heading_degrees"), f"{name}.heading_degrees")
    return Configuration(pt, from_angle(math.radians(deg)))


def structure_to_json(st: PathStructure) -> dict:
    return {
        "type": st.type_word,
        "arcs": [{
            "start": list(a.start_pt),
            "end": list(a.end_pt),
            "orientation": a.orientation.name.lower(),
            "edge_count": a.edge_count,
            "start_s": a.start_s,
            "end_s": a.end_s,
        } for a in st.arcs],
        "bridges": [{
            "start": list(b.start_pt),
            "end": list(b.end_pt),
            "host_edge": b.host_edge,
            "start_s": b.start_s,
            "end_s": b.end_s,
        } for b in st.bridges],
    }


def path_to_json(path: DiscretePath, params: Params,
                 structure: PathStructure | None = None,
                 trace: list | None = None) -> dict:
    doc = {
        "version": VERSION,
        "params": params_to_json(params),
        "start": _config_to_json(path.start),
        "end": _config_to_json(path.end),
        "vertices": [[p[0], p[1]] for p in path.vertices],
    }
    if structure is not None:
        doc["structure"] = structure_to_json(structure)
    if trace is not None:
        doc["trace"] = trace
    return doc


def path_from_json(doc: Any) -> tuple[DiscretePath, Params]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("version") != VERSION:
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    params = params_from_json(doc.get("params"))
    start = _config_from_json(doc.get("start"), "start")
    end = _config_from_json(doc.get("end"), "end")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise DocumentError("vertices must be a non-empty list")
    if _float_pairs(verts) is not None:
        pts = list(map(tuple, verts))
    else:  # names the first bad vertex
        pts = [_point(v, f"vertices[{i}]") for i, v in enumerate(verts)]
    # anchor the boundary configurations on the actual vertices
    start = Configuration(pts[0], start.heading)
    end = Configuration(pts[-1], end.heading)
    try:
        path = DiscretePath(start, end, tuple(pts))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return path, params


def _dumps(value: Any, indent: str) -> str:
    """``json.dumps(value, indent=2)`` for a value that starts at indentation
    ``indent``.  Strings, ints and finite floats are written as the json
    module writes them, and a list of finite ``[float, float]`` pairs from one
    ``%r`` template per pair: the module's indenting encoder is pure Python
    and spends a generator step on every number.  Every other value is
    delegated to ``json.dumps`` and re-indented."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    inner = indent + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        return "{\n" + ",\n".join([f"{inner}{_quote(k)}: {_dumps(v, inner)}"
                                    for k, v in value.items()]) + f"\n{indent}}}"
    if (kind is list or kind is tuple) and value:
        flat = _float_pairs(value)
        if flat is not None:
            pair = f"{inner}[\n{inner}  %r,\n{inner}  %r\n{inner}]"
            return "[\n" + ",\n".join([pair] * len(value)) % tuple(flat) + f"\n{indent}]"
        return "[\n" + ",\n".join([inner + _dumps(v, inner)
                                    for v in value]) + f"\n{indent}]"
    # NaN, infinities, True, False, None, empty containers, subclasses and
    # keys that json converts; no string holds a raw newline
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def save(doc: dict, path: str) -> None:
    """Write the document as indented JSON, byte for byte what
    ``json.dumps(doc, indent=2)`` writes: encoded in full, then one write."""
    text = _dumps(doc, "") + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
