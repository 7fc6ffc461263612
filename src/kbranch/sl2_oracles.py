"""Closed-form SL(2,R) branching tables, hand-coded as ground truth.

The six tempered families restrict to the circle subgroup as:

    discrete(n, +):  weights n+1, n+3, n+5, ...      each once
    discrete(n, -):  weights -(n+1), -(n+3), ...     each once
    limit(+):        weights 1, 3, 5, ...            each once
    limit(-):        weights -1, -3, -5, ...         each once
    principal spherical:     all even weights        each once
    principal nonspherical:  all odd weights         each once

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
    if s.kind == "discrete_plus":
        support = range(s.n + 1, window + 1, 2)
        sign = -1
    elif s.kind == "discrete_minus":
        support = range(-(s.n + 1), -(window + 1), -2)
        sign = -1
    elif s.kind == "limit_plus":
        support = range(1, window + 1, 2)
        sign = -1
    elif s.kind == "limit_minus":
        support = range(-1, -(window + 1), -2)
        sign = -1
    elif s.kind == "principal_spherical":
        support = (k for k in range(-window, window + 1) if k % 2 == 0)
        sign = 1
    else:
        support = (k for k in range(-window, window + 1) if k % 2 != 0)
        sign = 1
    return KTypeTable({(k,): 1 for k in support}, window, sign)


class MatchReport(NamedTuple):
    window: int
    diffs: tuple[tuple[tuple[int, ...], int, int], ...]  # (ktype, got, want)

    @property
    def ok(self) -> bool:
        return not self.diffs


def oracle_match(table: KTypeTable, s: SL2Series) -> MatchReport:
    """Per-K-type diff of an engine table against the closed form."""
    out_of_window = [k for k, in table.entries if abs(k) > table.window]
    if out_of_window:
        raise ValueError(
            f"window mismatch: entries {out_of_window} lie outside the "
            f"declared window {table.window}")
    expected = sl2_branching(s, table.window)
    diffs = []
    for key in sorted(set(table.entries) | set(expected.entries)):
        got = table.entries.get(key, 0)
        want = expected.entries.get(key, 0)
        if got != want:
            diffs.append((key, got, want))
    return MatchReport(table.window, tuple(diffs))
