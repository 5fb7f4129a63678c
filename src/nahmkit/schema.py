"""JSON document schema: exact, float-free serialization.

Rationals are {"num": ..., "den": ...}; scalars are term lists over the
cyclotomic power basis; torus points carry their lattice coordinates,
symbolic position and constant channel.  A document declares its own
session field, so parsing is self-contained: parse(emit(x)) == x for every
suite document.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, lcm

from .errors import InputError
from .field import FieldContext, _coords, reduced
from .higgs import ElementaryBlock, HiggsGerm
from .torus import TorusPoint
from .elliptic import AdmissibleHiggsData, FilteredBundleData, SingularPoint

SCHEMA_VERSION = 1


def _int(x, what):
    """A JSON integer; bool, float and str are not integers."""
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _bool(x, what):
    """A JSON boolean; only true and false are booleans."""
    if type(x) is not bool:
        raise InputError(f"{what} must be true or false, got {x!r}")
    return x


# -- rationals --


def rat_to_json(q):
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def _rat_parts(obj):
    """(num, den) of a JSON rational, checked but not reduced."""
    if (
        not isinstance(obj, dict)
        or set(obj) != {"num", "den"}
        or type(obj["num"]) is not int
        or type(obj["den"]) is not int
        or obj["den"] == 0
    ):
        raise InputError(f"not a rational: {obj!r}")
    return obj["num"], obj["den"]


def rat_from_json(obj):
    return Fraction(*_rat_parts(obj))


# -- scalars --


def _poly_to_json(p):
    return [
        {"m": list(mono), "c": [{"num": n, "den": d} for n, d in _coords(cyc)]}
        for mono, cyc in sorted(p.items())
    ]


def _poly_from_json(ctx, terms):
    out = {}
    for t in terms:
        mono = tuple(_int(e, "monomial exponent") for e in t["m"])
        if len(mono) != ctx.nvars:
            raise InputError("monomial arity does not match the declared symbols")
        coords = [_rat_parts(x) for x in t["c"]]
        if len(coords) != ctx.cyc.degree:
            raise InputError("cyclotomic coordinate length mismatch")
        # over d, the lcm of the coordinates' reduced denominators, the
        # integer coordinates and d have gcd 1: the canonical element
        d = 1
        for n, e in coords:
            d = lcm(d, e // gcd(n, e))
        out[mono] = tuple(n * d // e for n, e in coords) + (d,)
    return out


def scalar_to_json(s):
    return {"num": _poly_to_json(s.num), "den": _poly_to_json(s.den)}


def scalar_from_json(ctx, obj):
    num = _poly_from_json(ctx, obj["num"])
    den = _poly_from_json(ctx, obj["den"])
    if all(ctx.cyc.is_zero(c) for c in den.values()):
        raise InputError("scalar with zero denominator")
    return reduced(ctx, num, den)


# -- torus points --


def point_to_json(pt):
    return {
        "lattice": pt.lattice,
        "q1": rat_to_json(pt.q1),
        "q2": rat_to_json(pt.q2),
        "sym": {k: rat_to_json(v) for k, v in pt.sym},
        "const": None if pt.const is None else scalar_to_json(pt.const),
        "lift": pt.is_lift,
    }


def point_from_json(ctx, obj):
    const = obj.get("const")
    return TorusPoint(
        obj["lattice"],
        rat_from_json(obj["q1"]),
        rat_from_json(obj["q2"]),
        {k: rat_from_json(v) for k, v in obj.get("sym", {}).items()},
        None if const is None else scalar_from_json(ctx, const),
        is_lift=_bool(obj.get("lift", False), "point lift"),
    )


# -- elementary blocks --


def block_to_json(b):
    out = {
        "p": b.p,
        "m": b.m,
        "a_coeffs": None,
        "a_radicand": None,
        "alpha": scalar_to_json(b.alpha),
        "nilpotent": [[scalar_to_json(c) for c in row] for row in b.nilp] if b.nilp else [],
        "weights": [rat_to_json(w) for w in b.weights],
        "degrees": list(b.degrees),
        "twists": [None if t is None else point_to_json(t) for t in b.twists] if b.twists else [],
        "injection": None if b.injection is None else block_to_json(b.injection),
    }
    if b.m > 0:
        if b.lead is not None:
            out["a_coeffs"] = [scalar_to_json(b.lead)] + [scalar_to_json(a) for a in b.tail]
        else:
            out["a_radicand"] = scalar_to_json(b.radicand)
            if any(not a.is_zero() for a in b.tail):
                out["a_coeffs"] = [None] + [scalar_to_json(a) for a in b.tail]
    return out


def block_from_json(ctx, obj, degrees=None):
    p, m = _int(obj["p"], "block p"), _int(obj["m"], "block m")
    lead = radicand = None
    tail = ()
    ac = obj.get("a_coeffs")
    if ac:
        lead = None if ac[0] is None else scalar_from_json(ctx, ac[0])
        tail = tuple(scalar_from_json(ctx, a) for a in ac[1:])
    ar = obj.get("a_radicand")
    if ar is not None:
        radicand = scalar_from_json(ctx, ar)
    nilp = tuple(
        tuple(scalar_from_json(ctx, c) for c in row) for row in obj.get("nilpotent", [])
    )
    twists = tuple(
        None if t is None else point_from_json(ctx, t) for t in obj.get("twists", [])
    )
    inj = obj.get("injection")
    injection = None if inj is None else block_from_json(ctx, inj)
    # the block's own degrees are read (so checked) even when the document's
    # base_degrees override them
    own = [_int(d, "block degree") for d in obj.get("degrees", [0] * len(obj["weights"]))]
    degrees = own if degrees is None else [_int(d, "block degree") for d in degrees]
    return ElementaryBlock.make(
        ctx, p, m,
        alpha=scalar_from_json(ctx, obj["alpha"]),
        weights=tuple(rat_from_json(w) for w in obj["weights"]),
        degrees=tuple(degrees),
        lead=lead, radicand=radicand, tail=tail,
        nilp=nilp if nilp else (), twists=twists if any(t is not None for t in twists) else (),
        injection=injection,
    )


# -- global data --


def data_to_json(data):
    points = [sp.point for sp in data.points]
    return {
        "tau_tag": data.coord,
        "spectrum": [point_to_json(p.reduce()) for p in points],
        "lifts": [point_to_json(p) for p in points],
        "germs": [
            {"blocks": [block_to_json(b) for b in sp.germ.blocks]}
            for sp in data.points
        ],
        "base_degrees": [
            [[d for d in b.degrees] for b in sp.germ.blocks] for sp in data.points
        ],
    }


def data_from_json(ctx, kind, obj):
    cls = AdmissibleHiggsData if kind == "higgs" else FilteredBundleData
    # the spectrum is read (so checked) even when the lifts give the points
    spectrum = [point_from_json(ctx, p) for p in obj.get("spectrum", ())]
    lifts = [point_from_json(ctx, p) for p in obj.get("lifts") or ()] or spectrum
    if len(lifts) != len(obj["germs"]):
        raise InputError("a document needs one germ per point")
    degrees = obj["base_degrees"]
    points = []
    for i, (pt, germ_json) in enumerate(zip(lifts, obj["germs"])):
        blocks = [
            block_from_json(ctx, bjson, degrees[i][j])
            for j, bjson in enumerate(germ_json["blocks"])
        ]
        points.append(
            SingularPoint(point=pt, germ=HiggsGerm.from_blocks(ctx, blocks, cls.coord))
        )
    return cls(ctx, points)


# -- config documents --


def document_to_json(doc):
    return {
        "schema": SCHEMA_VERSION,
        "field": {"M": doc["ctx"].M, "symbols": list(doc["ctx"].symbols)},
        "precision": doc.get("precision"),
        "kind": doc["kind"],
        "payload": data_to_json(doc["data"]),
    }


def document_from_json(obj):
    if not isinstance(obj, dict) or "payload" not in obj:
        raise InputError("not a nahmkit document (missing payload)")
    if _int(obj.get("schema", SCHEMA_VERSION), "schema version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {obj['schema']!r}")
    fdecl = obj.get("field", {})
    symbols = fdecl.get("symbols", ["x1"])
    if not isinstance(symbols, list) or not all(isinstance(x, str) for x in symbols):
        raise InputError(f"field symbols must be a list of names, got {symbols!r}")
    ctx = FieldContext(M=_int(fdecl.get("M", 12), "field M"), symbols=tuple(symbols))
    kind = obj.get("kind")
    if kind not in ("higgs", "bundle"):
        raise InputError("document kind must be 'higgs' or 'bundle'")
    precision = obj.get("precision")
    if precision is not None and (type(precision) is not int or precision < 1):
        raise InputError(f"precision must be null or an integer >= 1, got {precision!r}")
    data = data_from_json(ctx, kind, obj["payload"])
    return {"ctx": ctx, "kind": kind, "data": data, "precision": precision}


# -- indented JSON text --


def json_text(obj):
    """Exactly ``json.dumps(obj, indent=2)``, the one writer of indented
    JSON in the package.

    json falls back on its pure-Python encoder whenever ``indent`` is set;
    this joins the text directly.  It covers the types the package emits:
    dicts with str keys, lists, tuples, ints, strs, bools and None.  Any
    other value or key (a float, a Fraction, an int key) raises TypeError.
    """
    return _json_text(obj, "\n")


def _json_text(o, nl):
    t = type(o)
    if t is str:
        return _json_str(o)
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        # _json_str raises TypeError on a key that is not a str
        items = [_json_str(k) + ": " + _json_text(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is int:
        return repr(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dumps(doc):
    return json_text(document_to_json(doc))


def loads(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    try:
        return document_from_json(obj)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # a field of the wrong shape: a missing key, a number where a list
        # belongs, and so on
        raise InputError(f"malformed document: {type(exc).__name__}: {exc}") from exc
