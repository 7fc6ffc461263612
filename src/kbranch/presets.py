"""The parameter documents of the CLI.

Every group reads one raw form (lambda, lambda_denom, rmplus, chi, nu),
rmplus optional for a regular lambda; the two SL(2,R) builtins also read
a small series vocabulary in their own chi and root conventions.  Every
form refuses a field it does not read, never defaulting it.
"""

from __future__ import annotations

from operator import mul

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


def raw_params(g: RealGroupData, doc: dict) -> TemperedParams:
    """Parameters from the raw form, rmplus as coordinate tuples.  With no
    rmplus, the positive system a regular lambda makes dominant, each Levi
    positive r or -r in turn; a singular one (a limit) must supply it."""
    _only(doc, "lambda", "lambda_denom", "rmplus", "chi", "nu")
    try:
        coords = _integers(doc, "lambda", depth=1)
        if len(coords) != g.hm.rank:
            raise ParamSchemaError(f"'lambda' needs {g.hm.rank} entries")
        if (denom := _integers(doc, "lambda_denom", 1)) not in (1, 2):
            raise ParamSchemaError(f"'lambda_denom' must be 1 or 2, got {denom}")
        lam = g.tm_weight(coords, denom=denom)
        if "rmplus" in doc:
            rmplus = tuple(map(tuple, _integers(doc, "rmplus", depth=2)))
        else:
            rmplus = []
            for r in g.m_roots.positives:
                d = sum(map(mul, coords, r))
                if not d:
                    raise ParamSchemaError(
                        f"parameter is orthogonal to root {r}; supply "
                        "rmplus explicitly for limits")
                rmplus.append(r if d > 0 else tuple([-x for x in r]))
            rmplus = tuple(rmplus)
        chi = _integers(doc, "chi", 0)
        nu = g.a_weight(_integers(doc, "nu", [0] * g.a_lattice.rank, 1))
    except ValueError as e:
        raise ParamSchemaError(f"bad raw parameter document: {e}") from e
    return TemperedParams(lam=lam, rmplus=rmplus, chi=chi, nu=nu)


def resolve_params(g: RealGroupData, doc: dict) -> TemperedParams:
    """Map a parameter document to a TemperedParams for this group."""
    if not isinstance(doc, dict):
        raise ParamSchemaError("parameter document must be a JSON object")
    if "lambda" in doc:
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
    return raw_params(g, doc)
