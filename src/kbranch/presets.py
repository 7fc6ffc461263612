"""Friendly parameter documents for the shipped groups.

Each builtin group accepts a small JSON vocabulary that maps onto raw
parameter tuples; raw input (lambda, lambda_denom, rmplus, chi, nu) is an
escape hatch on every group but su21, whose lambda documents take its own
form.  Every form refuses a field it does not read, never defaulting it.
"""

from __future__ import annotations

from operator import mul
from typing import Optional

from .branching import TemperedParams
from .groups import RealGroupData


class ParamSchemaError(ValueError):
    pass


def _integers(doc: dict, field: str, default=None, depth: int = 0):
    """doc[field] or the default, which must be JSON integers nested depth
    lists deep: floats, bools and strings are refused, not truncated."""
    def ok(v, d):
        if d:
            return isinstance(v, list) and all(ok(x, d - 1) for x in v)
        return isinstance(v, int) and not isinstance(v, bool)

    value = doc.get(field, default)
    if not ok(value, depth):
        shape = ("an integer", "a list of integers", "a list of integer lists")
        raise ParamSchemaError(f"{field!r} must be {shape[depth]}, got {value!r}")
    return value


def _only(doc: dict, *fields: str) -> None:
    """Refuse a field the document's form does not read."""
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ParamSchemaError(
            f"unknown field {unknown[0]!r}; this form reads "
            + ", ".join(map(repr, fields)))


def _sign(doc: dict) -> str:
    sign = doc.get("sign", "+")
    if sign not in ("+", "-"):
        raise ParamSchemaError(f'sign must be "+" or "-", got {sign!r}')
    return sign


def sl2_discrete(g: RealGroupData, n: int, sign: str) -> TemperedParams:
    """The discrete series whose lowest K-type is sign (n + 1); n = 0 gives
    the limit of discrete series of that sign."""
    s = 1 if sign == "+" else -1
    return TemperedParams(
        lam=g.tm_weight([s * n]),
        rmplus=((2 * s,),),
        chi=(n - 1) % 2,
        nu=g.a_weight([]))


def sl2_principal(g: RealGroupData, chi: str, nu: int = 1) -> TemperedParams:
    # a tuple test, not a dict lookup: chi may be any JSON value
    if chi not in ("plus", "minus"):
        raise ParamSchemaError("chi must be 'plus' or 'minus'")
    return TemperedParams(lam=g.tm_weight([]), rmplus=(),
                          chi=("plus", "minus").index(chi),
                          nu=g.a_weight([nu]))


def su21_from_lambda(g: RealGroupData, coords,
                     rmplus: Optional[list] = None,
                     chi: int = 0) -> TemperedParams:
    """Parameters from a Harish-Chandra parameter on the rank-3 torus.

    For regular coords the positive system is derived from the sign of the
    pairings; singular parameters (limits) must supply rmplus explicitly.
    Its roots, given or derived, are kept as coordinate tuples.
    """
    lam = g.tm_weight(coords)
    if rmplus is not None:
        pos = tuple(map(tuple, rmplus))
    else:
        pos = []
        for r in g.m_roots.positives:
            d = sum(map(mul, lam.coords, r))
            if d == 0:
                raise ParamSchemaError(
                    f"parameter is orthogonal to root {r}; supply "
                    "rmplus explicitly for limits")
            pos.append(r if d > 0 else tuple([-x for x in r]))
        pos = tuple(pos)
    return TemperedParams(lam=lam, rmplus=pos, chi=chi, nu=g.a_weight([]))


def raw_params(g: RealGroupData, doc: dict) -> TemperedParams:
    """Parameters from the raw form, rmplus as coordinate tuples."""
    _only(doc, "lambda", "lambda_denom", "rmplus", "chi", "nu")
    try:
        lam = g.tm_weight(_integers(doc, "lambda", depth=1),
                          denom=_integers(doc, "lambda_denom", 1))
        rmplus = tuple(map(tuple, _integers(doc, "rmplus", [], 2)))
        chi = _integers(doc, "chi", 0)
        nu = g.a_weight(_integers(doc, "nu", [0] * g.a_lattice.rank, 1))
    except (KeyError, TypeError, ValueError) as e:
        raise ParamSchemaError(f"bad raw parameter document: {e}") from e
    return TemperedParams(lam=lam, rmplus=rmplus, chi=chi, nu=nu)


def resolve_params(g: RealGroupData, doc: dict) -> TemperedParams:
    """Map a parameter document to a TemperedParams for this group."""
    if not isinstance(doc, dict):
        raise ParamSchemaError("parameter document must be a JSON object")
    if "lambda" in doc and g.name != "su21":
        return raw_params(g, doc)
    if g.name == "sl2r-compact":
        series = doc.get("series")
        if series == "discrete":
            _only(doc, "series", "n", "sign")
            n, sign = _integers(doc, "n", 0), _sign(doc)
            if n < 1:
                raise ParamSchemaError("discrete series need n >= 1")
            return sl2_discrete(g, n, sign)
        if series == "limit":
            _only(doc, "series", "sign")
            return sl2_discrete(g, 0, _sign(doc))
        raise ParamSchemaError(
            'expected {"series": "discrete"|"limit", ...} or raw parameters')
    if g.name == "sl2r-split":
        if "chi" in doc:
            _only(doc, "chi", "nu")
            return sl2_principal(g, doc["chi"], _integers(doc, "nu", 1))
        raise ParamSchemaError(
            'expected {"chi": "plus"|"minus"} or raw parameters')
    if g.name == "su21":
        if "lambda" in doc:
            _only(doc, "lambda", "rmplus", "chi")
            lam = _integers(doc, "lambda", depth=1)
            if len(lam) != g.hm.rank:
                raise ParamSchemaError(f"'lambda' needs {g.hm.rank} entries")
            rmplus = (None if "rmplus" not in doc
                      else _integers(doc, "rmplus", depth=2))
            return su21_from_lambda(g, lam, rmplus, _integers(doc, "chi", 0))
        raise ParamSchemaError('expected {"lambda": [a, b, c], ...}')
    return raw_params(g, doc)
