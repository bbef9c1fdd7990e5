"""JSON serialization with exact rationals as "p/q" strings.

Round-trips are exact; no floating point appears in any artifact except the
clearly-labeled decimal convenience fields of the statistics bundle.  Inputs
are exact too: a rational is a JSON integer or a string "-3", "7/5" or
"1.25" (no exponent, underscore or whitespace, so reading one costs time
linear in its length), a normal or exponent is a JSON integer, and anything
else in their place is a `ParseError`.  The ``*_from_json`` builders check
values, not the document's shape: a missing key or wrong container raises
the `KeyError`, `TypeError` or `IndexError` of the access, which the one
input reader of `cli` turns into a `ParseError` naming the file.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .geometry import HalfPlane, QPolygon
from .series import TropicalSeries
from .wave import WaveEvent


class ParseError(Exception):
    pass


# the only string forms of a rational: an integer, p/q or a plain decimal
_RATIONAL = re.compile(r"[-+]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s) -> Fraction:
    """A rational from a string ("p/q", "-3", "1.25") or an integer."""
    if not isinstance(s, (int, str)) or isinstance(s, bool):
        raise ParseError(f"bad rational {s!r}: give an integer or a string")
    if isinstance(s, str) and not _RATIONAL.fullmatch(s):
        raise ParseError(f"bad rational {s!r}: "
                         "give an integer, p/q or a plain decimal")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def int_from_json(x) -> int:
    """An integer read from JSON; floats and booleans are rejected."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ParseError(f"bad integer {x!r}")
    return x


def vec_from_json(obj) -> tuple[int, int]:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ParseError(f"bad integer vector {obj!r}")
    return (int_from_json(obj[0]), int_from_json(obj[1]))


def point_to_json(p):
    return [frac_to_str(p[0]), frac_to_str(p[1])]


def point_from_json(obj):
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ParseError(f"bad point {obj!r}")
    return (frac_from_str(obj[0]), frac_from_str(obj[1]))


def polygon_to_json(poly: QPolygon) -> dict:
    return {"halfplanes": [{"n": list(hp.n), "a": frac_to_str(hp.a)}
                           for hp in poly.halfplanes]}


def polygon_from_json(obj) -> QPolygon:
    hps = [HalfPlane(vec_from_json(h["n"]), frac_from_str(h["a"]))
           for h in obj["halfplanes"]]
    return QPolygon(hps)


def series_to_json(f: TropicalSeries) -> dict:
    return {
        "domain": polygon_to_json(f.domain),
        "support": [{"v": list(v), "a": frac_to_str(a)} for v, a in f.terms()],
    }


def unique_map(pairs, name: str) -> dict:
    """The dict of ``pairs`` (an integer vector, a value).  A vector given
    twice is bad input, not a silent choice of one of its values; ``name``
    says what it names."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"{name} {list(key)} is given twice")
        out[key] = value
    return out


def series_from_json(obj) -> TropicalSeries:
    domain = polygon_from_json(obj["domain"])
    support = unique_map([(vec_from_json(t["v"]), frac_from_str(t["a"]))
                          for t in obj["support"]], "monomial")
    return TropicalSeries(domain, support)


def event_to_json(ev: WaveEvent) -> dict:
    return {
        "step": ev.step,
        "point": point_to_json(ev.point),
        "monomial": list(ev.monomial),
        "increment": frac_to_str(ev.increment),
        "avalanche_area": frac_to_str(ev.avalanche_area),
    }


def curve_to_json(curve) -> dict:
    return {
        "vertices": [point_to_json(v) for v in curve.vertices],
        "edges": [{
            "a": point_to_json(e.a),
            "b": point_to_json(e.b),
            "weight": e.weight,
            "dual": [list(e.dual[0]), list(e.dual[1])],
        } for e in curve.edges],
        "faces": [{"monomial": list(v), "region": [point_to_json(p) for p in poly]}
                  for v, poly in sorted(curve.faces.items())],
    }


def stats_to_json(bundle: dict) -> dict:
    return {
        "seed": bundle["seed"],
        "config": bundle["config"],
        "event_count": bundle["event_count"],
        "areas": [frac_to_str(a) for a in bundle["areas"]],
        "ccdf": [[frac_to_str(a), frac_to_str(p)] for a, p in bundle["ccdf"]],
        "histogram": [{"lo": frac_to_str(h["lo"]), "hi": frac_to_str(h["hi"]),
                       "count": h["count"]} for h in bundle["histogram"]],
        "hill": bundle["hill"],
        "trials": bundle["trials"],
    }


def lift_report_to_json(report: dict) -> dict:
    """A `fuzz_lift` report with each failure as [F, p1, p2, witness]: a
    witness (monomial, lhs, rhs) becomes [[i, j], "p/q", "p/q"] with null
    for a missing entry, and a witness message stays a string."""
    def value(x):
        return None if x is None else frac_to_str(x)

    def witness(w):
        if isinstance(w, str):
            return w
        v, lhs, rhs = w
        return [None if v is None else list(v), value(lhs), value(rhs)]

    return {**report, "failures": [[text, p1, p2, witness(w)]
                                   for text, p1, p2, w in report["failures"]]}


def dump(obj: Any, path) -> None:
    """Write obj as JSON in one call: an object that cannot be encoded
    raises before the file is opened."""
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load(path) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ParseError("JSON nested too deeply") from exc
