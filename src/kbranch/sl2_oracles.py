"""Closed-form SL(2,R) branching tables, hand-coded as ground truth.

The six tempered families restrict to the circle subgroup as:

    discrete(n, +):  weights n+1, n+3, n+5, ...      each once
    discrete(n, -):  weights -(n+1), -(n+3), ...     each once
    principal spherical:     all even weights        each once
    principal nonspherical:  all odd weights         each once

with n >= 1 for the discrete series and n = 0 for the limits of discrete
series, limit_plus and limit_minus.

These tables are written down directly from the classical decompositions,
never computed by the engine, so they can serve as an independent oracle.
The sign field mirrors the index-theoretic sign: -1 on the compact Cartan
(discrete series and limits), +1 on the split Cartan (principal series).
"""

from __future__ import annotations

from typing import NamedTuple

from .branching import KTypeTable, _check_window

KINDS = ("discrete_plus", "discrete_minus", "limit_plus", "limit_minus",
         "principal_spherical", "principal_nonspherical")


class _SL2SeriesFields(NamedTuple):
    kind: str
    n: int = 0


class SL2Series(_SL2SeriesFields):
    __slots__ = ()

    def __new__(cls, kind, n=0):
        if kind not in KINDS:
            raise ValueError(f"unknown series kind {kind!r}")
        if kind.startswith("discrete") and n < 1:
            raise ValueError("discrete series need n >= 1")
        if not kind.startswith("discrete") and n != 0:
            raise ValueError(f"{kind} takes no integer parameter")
        return tuple.__new__(cls, (kind, n))


def sl2_branching(s: SL2Series, window: int) -> KTypeTable:
    """Exact closed-form table of all K-weights with |weight| <= window."""
    _check_window(window)
    if s.kind.startswith("principal"):  # every weight of its parity
        odd = s.kind == "principal_nonspherical"
        return KTypeTable({(k,): 1 for k in range(-window, window + 1)
                           if k % 2 == odd}, window, 1)
    out = 1 if s.kind.endswith("plus") else -1  # every other weight outwards
    return KTypeTable({(k,): 1 for k in range(
        out * (s.n + 1), out * (window + 1), 2 * out)}, window, -1)


class MatchReport(NamedTuple):
    diffs: tuple[tuple[tuple[int, ...], int, int], ...]  # (ktype, got, want)
    sign: tuple[int, ...] = ()  # (got, want) when the signs differ

    @property
    def ok(self) -> bool:
        return not self.diffs and not self.sign


def oracle_match(table: KTypeTable, s: SL2Series) -> MatchReport:
    """Per-K-type diff of an engine table against the closed form, and its
    sign against the closed form's."""
    wide = [k for k in table.entries if len(k) != 1]
    if wide:
        raise ValueError(f"K-type {wide[0]} is not a 1-tuple of SL(2,R)'s K")
    out_of_window = [k for k, in table.entries if abs(k) > table.window]
    if out_of_window:
        raise ValueError(
            f"window mismatch: entries {out_of_window} lie outside the "
            f"declared window {table.window}")
    expected = sl2_branching(s, table.window)
    got, want = table.entries, expected.entries
    diffs = tuple((k, got.get(k, 0), want.get(k, 0))
                  for k in sorted(got.keys() | want.keys())
                  if got.get(k, 0) != want.get(k, 0))
    sign = (table.sign, expected.sign) if table.sign != expected.sign else ()
    return MatchReport(diffs, sign)
