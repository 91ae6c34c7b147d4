"""JSON serialization for networks (format "geonet/1").

Schema: {"version": "geonet/1",
         "vertices": [{"angle": <float>, "tan_half": [p, q] | "inf" | null,
                       "m": <int>}, ...],
         "edges": [{"i": <int>, "j": <int>, "m": <int>}, ...]}

Rational tan-half values round-trip bit exactly as [numerator, denominator]
integer pairs; "inf" marks the angle-pi point.  Positions whose exact
parameter is a non-rational radical have no slot in this format and are
written as null (angle only); reading such a file yields float positions.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .circle import INFINITY, CirclePoint, _InfinityType, normalize_angle
from .errors import ParseError, VersionError, is_int
from .exact import RadExpr
from .network import InteriorEdge, Network, Vertex, make_network

FORMAT_VERSION = "geonet/1"


def point_to_json(p: CirclePoint) -> dict:
    """The {"angle", "tan_half"} record of a point, as _point_from_json reads it."""
    t = p.tan_half
    if t is None or isinstance(t, RadExpr):
        tan_half = None
    elif isinstance(t, _InfinityType):
        tan_half = "inf"
    else:
        tan_half = [t.numerator, t.denominator]
    return {"angle": p.angle, "tan_half": tan_half}


def scalar_to_json(x):
    """Exact scalars for machine output: int, [num, den], or radical terms."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]
    if isinstance(x, RadExpr):
        if x.is_integer():
            return int(x.rational_value())
        if x.is_rational():
            q = x.rational_value()
            return [q.numerator, q.denominator]
        return {
            "radical_terms": [
                [d, q.numerator, q.denominator] for d, q in sorted(x.terms().items())
            ]
        }
    return float(x)


def network_to_dict(net: Network) -> dict:
    return {
        "version": FORMAT_VERSION,
        "vertices": [
            {**point_to_json(v.position), "m": v.exterior_mult} for v in net.vertices
        ],
        "edges": [{"i": e.i, "j": e.j, "m": e.mult} for e in net.edges],
    }


def _finite_float(x) -> float | None:
    """A JSON number as a finite float, or None (NaN, infinities, non-numbers)."""
    if not is_int(x) and not isinstance(x, float):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _point_from_json(rec: dict, where: str) -> CirclePoint:
    if "angle" not in rec:
        raise ParseError(f"{where}: missing 'angle'")
    angle = _finite_float(rec["angle"])
    if angle is None:
        raise ParseError(f"{where}: 'angle' must be a finite number")
    t = rec.get("tan_half")
    if t is None:
        return CirclePoint.from_angle(angle)
    if t == "inf":
        t = INFINITY
    elif (
        not isinstance(t, list)
        or len(t) != 2
        or not all(is_int(v) for v in t)
    ):
        raise ParseError(f"{where}: 'tan_half' must be [num, den], \"inf\" or null")
    elif t[1] == 0:
        raise ParseError(f"{where}: zero denominator in 'tan_half'")
    else:
        t = Fraction(t[0], t[1])
    try:
        CirclePoint(normalize_angle(angle), t)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None
    # the angle computed from tan_half is kept, so files round-trip unchanged
    return CirclePoint.from_tan_half(t)


def network_from_dict(data: dict) -> Network:
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported format version {version!r}")
    for key in ("vertices", "edges"):
        if key not in data:
            raise ParseError(f"missing {key!r} key")
        if not isinstance(data[key], list):
            raise ParseError(f"{key!r} must be a list")
    vertices = []
    for k, rec in enumerate(data["vertices"]):
        if not isinstance(rec, dict) or "m" not in rec:
            raise ParseError(f"vertex {k}: expected an object with 'm'")
        if not is_int(rec["m"]):
            raise ParseError(f"vertex {k}: multiplicity must be an integer")
        vertices.append(Vertex(_point_from_json(rec, f"vertex {k}"), rec["m"]))
    edges = []
    for k, rec in enumerate(data["edges"]):
        if not isinstance(rec, dict) or not {"i", "j", "m"} <= rec.keys():
            raise ParseError(f"edge {k}: expected an object with 'i', 'j', 'm'")
        if not all(is_int(rec[f]) for f in ("i", "j", "m")):
            raise ParseError(f"edge {k}: fields must be integers")
        edges.append(InteriorEdge(rec["i"], rec["j"], rec["m"]))
    return make_network(vertices, edges)


def read_network(path) -> Network:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    return network_from_dict(data)


def write_network(net: Network, path) -> None:
    Path(path).write_text(
        json.dumps(network_to_dict(net), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
