"""K-type multiplicities of standard representations.

The engine realises the branching rule

    multiplicity of a K-type  =  dimension of the H-invariants in
    (dual K-type restricted to H) x (inverse exterior series of the
    noncompact Levi roots) x (graded exterior of the compact Levi roots)
    x (line with weight lambda - rho_c + rho_n, tagged by the finite
    component character)

in two steps.  Preparation validates the parameters once and derives
what every K-type shares.  That work comes in three tiers:

  - load: what the group alone determines (rho_K, compactness, the fibres
    of the torus restriction, one record per W_K element with its
    Blattner walk data), derived in groups and read here;
  - chamber: what the parameters' positive system Phi alone determines, a
    Chamber record built once per (group, Phi) and kept in a cache of 64:
    whether Phi is a positive system at all (no duplicates or non-roots,
    a half of the roots, pointed), the lattice graded by Phi, its positives
    split by type, its compact simple roots, 2rho_n, the signed
    compact-subset sums, the keys' top covector, Blattner's eps and terms,
    one per W_K record (det, shift, walk columns, state map), and the
    oracles' tables, each rebuilt only at the higher bound a call needs.
    A nonzero verdict carries the record, and every table of Phi reads it;
  - call: what lambda and chi fix, checked in integers (dominance, the lift
    of lambda - rho, the component values) into one record, the nonzero
    verdict with the base key lambda - rho + 2rho_n; and the window's bounds.
    A verdict records the group and parameters it judged, and a table
    refuses it with any others.

ktype_table evaluates Blattner's formula (Hecht-Schmid)

    mult(mu) = eps * sum_{w in W_K} det(w) * P_n(R w(mu + rho_K) - base
                                                  - rho_Phi)

with R the torus restriction, P_n the partition count over the noncompact
positives, rho_Phi the compact half-sum of the parameters' positive system
Phi and eps = det(w_Phi), where R w_Phi rho_K = rho_Phi.  It holds when R
maps the K roots one-to-one onto the compact Levi roots, which gives eps
and each term's shift in closed form, and every K root has a trivial Z'
character.  Each W_K term w reads its K-types through the fibres' one
integer map carried by w^T, affine in the partition counts over the
noncompact positives and the free coordinates of the torus fibres.  A walk
over those carries the map as running sums and takes, one line of the last
variable at a time, the integer interval that keeps mu in the window and
the dominant chamber, so neither a box of K-types nor a table of partition
counts is built.

Two oracles stay independent of it and of each other: signed sums over the
compact offsets of the chamber's Kostant partition counts, and the
chamber's truncated series product, each read at key - base in height
order up to the call's own bound, every series read checked against the
product's certificate.  Each gives one value per H-key and scatters it
through ktypes.key_index, an inverted index of restricted K-types, into
the rows the key touches.  Every table over the window's box (box_table,
and ktype_table outside Blattner's formula) reads the window's, kept by
ktypes.ktype_box once per window, and costs the oracle's values and the
rows they touch; the spot check and ktype_multiplicity index their own.
ktype_table spot-checks its lowest rows with an oracle its table did not
come from: the partition counts a Blattner table, the series a box one.
Tables carry the global sign (-1)^(dim s_M / 2) as metadata; the entries
are the restricted representation and always nonnegative.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .characters import (CutoffError, HMLattice, Weight, geometric_series,
                         graded_exterior, partition_counts)
from .groups import (GroupDataError, RealGroupData, WeylTerm, matvec,
                     simple_roots)
from .ktypes import KType, check_ktype, key_index, ktype_box


class InvalidParamsError(ValueError):
    """Parameters failed validation (verdict carried along)."""

    def __init__(self, verdict: "ParamVerdict"):
        self.verdict = verdict
        super().__init__(str(verdict))


class ForeignVerdictError(ValueError):
    """A verdict passed along with a group and parameters it did not judge."""


class TemperedParams(NamedTuple):
    """Parameter tuple of a basic representation.

    lam: Harish-Chandra-style parameter on the compact Cartan of the Levi
         factor (half-integral allowed in the doubled lattice);
    rmplus: explicit positive system for the Levi roots;
    chi: index into the character table of the finite component group;
    nu: continuous parameter on the split part -- carried but never used by
        the restriction arithmetic.
    """

    lam: Weight
    rmplus: tuple[Weight, ...]
    chi: int
    nu: Weight


class _ChamberFields(NamedTuple):
    hm: HMLattice                        # the Levi lattice graded by Phi
    compact: tuple[tuple[int, ...], ...]
    noncompact: tuple[tuple[int, ...], ...]
    compact_simples: tuple[tuple[int, ...], ...]
    rho2_n: tuple[int, ...]              # 2rho_n, the noncompact sum
    # ((-1)^|S|, sum of S as coordinates) for every compact subset S
    subsets: tuple[tuple[int, tuple[int, ...]], ...]
    top: tuple[int, ...]                 # _top_covector
    eps: int
    # (det w, R(w rho_K) - rho_c, walk columns, walk state map) per W_K term
    terms: tuple[tuple[int, tuple, tuple, tuple], ...]
    heights: tuple[int, ...]


class Chamber(_ChamberFields):
    """What a positive system Phi of the Levi roots fixes for every
    parameter tuple that names it (the chamber tier above), built once per
    (group, Phi) by _chamber.  The last three fields are Blattner's, its
    terms read off the group's W_K records; where it does not apply eps is
    1 and the rest are empty.  No __slots__: the oracles' tables
    (_table) live in __dict__, outside the fields that compare and hash."""


class ParamVerdict(NamedTuple):
    verdict: str                 # "nonzero" | "zero" | "invalid"
    reason: Optional[str] = None
    # nonzero verdicts: the record of p.rmplus, which tables reuse
    chamber: Optional[Chamber] = None
    base: Optional[tuple] = None  # the key (lambda - rho + 2rho_n, chi)
    judged: Optional[tuple] = None  # (g, p), what validate_params judged

    def __str__(self):
        return self.verdict if not self.reason else f"{self.verdict}: {self.reason}"


class KTypeTable(NamedTuple):
    """Multiplicity table over a finite window of K-types.

    entries maps highest-weight coordinate tuples to positive multiplicities;
    K-types inside the window that are absent have multiplicity zero.  sign
    is the index-theoretic sign relating the table to the geometric side.
    """

    entries: dict[tuple[int, ...], int]
    window: int
    sign: int

    def rows(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.entries.items())


def sign_factor(g: RealGroupData) -> int:
    """(-1)^(dim s_M / 2); the dimension is even for valid data."""
    if g.dim_s_m % 2 != 0:
        raise GroupDataError("sign factor parity",
                             f"s_M dimension {g.dim_s_m} is odd")
    return -1 if (g.dim_s_m // 2) % 2 else 1


def validate_params(g: RealGroupData, p: TemperedParams) -> ParamVerdict:
    """Classify parameters: invalid, zero (the induced representation
    vanishes), or nonzero; their Weights are checked here, once."""
    def invalid(reason):
        return ParamVerdict("invalid", reason, judged=(g, p))

    lattice = g.hm.lattice
    if p.lam.lattice != lattice or p.lam.rank != g.hm.rank:
        return invalid("parameter is not a weight of the Levi Cartan")
    if p.nu.lattice != f"{g.name}:a" or p.nu.rank != g.dim_a:
        return invalid("continuous parameter is not a weight of the split part")
    if type(p.chi) is not int or not 0 <= p.chi < g.hm.ztable.order:
        return invalid(f"no component character with index {p.chi}")

    # a root's coordinates on another lattice, or halved, are no root (None)
    rmplus = tuple(a.coords if isinstance(a, Weight) and a.denom == 1
                   and a.lattice == lattice else None for a in p.rmplus)
    chamber = _chamber(g, rmplus)
    if isinstance(chamber, str):
        return invalid(chamber)

    # dot signs: both sides lie on the Levi lattice
    lam = p.lam.coords
    for a in rmplus:
        if sum(map(mul, lam, a)) < 0:
            return invalid(f"parameter is not dominant for the root {a}")

    # 2 lambda - 2 rho, with 2 rho the positive system's height covector
    shifted = [2 // p.lam.denom * x - h
               for x, h in zip(lam, chamber.hm.height_vec)]
    if any(x % 2 for x in shifted):
        return invalid("parameter minus rho does not lift to the torus")
    shifted = [x // 2 for x in shifted]

    # component character must agree with the shifted parameter on the
    # overlap of the torus with the finite group
    ztable = g.hm.ztable
    for j, w in enumerate(g.zgen_w):
        if w is None:
            continue  # generator lies outside the small torus
        d, row = w
        val = sum(map(mul, shifted, row))
        if val % d:
            return invalid("shifted parameter has no exact value at a "
                           "component generator")
        if val // d % ztable.order != ztable.rows[p.chi][j]:
            return invalid("component character disagrees with the shifted "
                           "parameter on the torus overlap")

    for a in chamber.compact_simples:
        if not sum(map(mul, lam, a)):
            return ParamVerdict(
                "zero", f"parameter orthogonal to simple compact root {a}",
                judged=(g, p))
    return ParamVerdict("nonzero", chamber=chamber, base=(
        tuple(map(add, shifted, chamber.rho2_n)), p.chi), judged=(g, p))


@lru_cache(maxsize=64)
def _chamber(g: RealGroupData, rmplus: tuple) -> Union[Chamber, str]:
    """The record of the positive system rmplus, coordinate tuples of the
    Levi lattice, or the reason it is none.  Built once per (group,
    rmplus): the group compares by every field, so two groups of one name
    keep records of their own."""
    m_roots, rm = set(g.m_roots.roots), set(rmplus)
    if len(rm) != len(rmplus) or not rm <= m_roots:
        return "positive system contains non-roots or duplicates"
    if 2 * len(rm) != len(m_roots) or any(
            tuple(-x for x in c) in rm for c in rm):
        return "positive system does not split the roots into halves"

    # a genuine positive system is separated by its own root sum
    hm = HMLattice.graded(g.hm.rank, g.hm.lattice, rmplus, g.hm.ztable)
    for a in rmplus:
        if sum(map(mul, hm.height_vec, a)) <= 0:
            return f"chosen positive system is not pointed at {a}"

    compact = tuple(g.compact_positives(rmplus))
    noncompact = tuple(g.noncompact_positives(rmplus))
    subsets = tuple(((-1) ** r, tuple(sum(c[i] for c in s)
                                      for i in range(hm.rank)))
                    for r in range(len(compact) + 1)
                    for s in itertools.combinations(compact, r))
    eps, terms, heights = 1, (), ()
    if g.blattner_applies:
        eps, shifts = _blattner_shifts(g, compact)
        terms = tuple((w.det, shift, w.dirs + tuple(w.roots[b] for b in
                                                    noncompact), w.walk)
                      for w, shift in shifts)
        heights = tuple(sum(map(mul, hm.height_vec, b)) for b in noncompact)
    return Chamber(hm, compact, noncompact,
                   tuple(a for a in simple_roots(rmplus) if g.is_compact(a)),
                   tuple(sum(b[i] for b in noncompact)
                         for i in range(hm.rank)), subsets,
                   _top_covector(g, hm.height_vec), eps, terms, heights)


# ------------------------------------------------------------------ engine

def _prepare(g: RealGroupData, p: TemperedParams, zero_ok: bool = False,
             verdict: Optional[ParamVerdict] = None) -> Optional[ParamVerdict]:
    """verdict, by default validate_params(g, p), if nonzero: it carries
    what every K-type shares.  Raises ForeignVerdictError, before any work,
    if verdict judged another group or other parameters, and
    InvalidParamsError unless it is nonzero; with zero_ok, zero gives None.

    Heights are measured against the parameters' own positive system, which
    need not be the one declared in the group file: the infinite series
    live in the cone it spans.
    """
    if verdict is None:
        verdict = validate_params(g, p)
    elif verdict.judged != (g, p):
        raise ForeignVerdictError(
            f"the verdict was not validate_params' for {g.name!r} and these "
            "parameters")
    if verdict.verdict == "zero" and zero_ok:
        return None
    if verdict.verdict != "nonzero":
        raise InvalidParamsError(verdict)
    return verdict


_Row = tuple[tuple[int, ...], int]  # (highest-weight coordinates, m)


def _table(chamber: Chamber, name: str, build, bound: int):
    """The chamber's table name, build(chamber, bound), rebuilt at exactly
    its own bound by a call that needs more."""
    kept = vars(chamber).get(name)
    if kept is None or kept[0] < bound:
        kept = vars(chamber)[name] = bound, build(chamber, bound)
    return kept[1]


def _series(chamber: Chamber, cutoff: int) -> tuple[Optional[int], list]:
    """graded_exterior(compact) x prod_beta geometric_series(beta, cutoff):
    its certificate, and its terms (doubled height, key, m) lowest first."""
    acc = graded_exterior(chamber.hm, chamber.compact)
    for beta in chamber.noncompact:
        acc = acc * geometric_series(chamber.hm, beta, cutoff)
    return acc.cutoff, acc.by_height()


def _partition_values(prep: ParamVerdict, top2: int) -> Iterable[tuple]:
    """Signed Kostant partition counts: at each H-key with the base's Z'
    character, the sum over the compact subsets S of (-1)^|S| P_n(coordinates
    - base - S), read in height order off the chamber's partition_counts."""
    chamber, (coords, z) = prep.chamber, prep.base
    hv = chamber.hm.height_vec
    offsets = [(sign, tuple(map(add, coords, s)))
               for sign, s in chamber.subsets]
    heights = [sum(map(mul, offset, hv)) for _, offset in offsets]
    counts = _table(chamber, "partition", lambda chamber, bound2: sorted(
        (sum(map(mul, t, hv)), t, n) for t, n in partition_counts(
            chamber.noncompact, chamber.hm, bound2).items()), top2 - min(heights))
    for (sign, offset), h2 in zip(offsets, heights):
        for h, t, n in counts:
            if h > top2 - h2:
                break
            yield (tuple(map(add, t, offset)), z), sign * n


def _series_values(prep: ParamVerdict, top2: int) -> Iterable[tuple]:
    """The terms of e^base times the chamber's series up to the doubled
    height top2, the Z' index combined with chi.  No term lies below the
    base height h_b, so they are exact up to the series' cutoff plus
    floor(h_b / 2): the least cutoff covering top2 builds or grows the
    chamber's series, and each read is checked against its certificate."""
    (coords, z), hm = prep.base, prep.chamber.hm
    h2_base = hm.key_height2(prep.base)
    need = -(-max(top2, h2_base) // 2) - h2_base // 2
    cutoff, terms = _table(prep.chamber, "series", _series, need)
    if cutoff is not None and cutoff < need:
        raise CutoffError(f"doubled height {top2} beyond certified cutoff "
                          f"{cutoff + h2_base // 2}")
    zs = [hm.ztable.mul(z, i) for i in range(hm.ztable.order)]
    for h, (c, zc), m in terms:
        if h > top2 - h2_base:
            break
        yield (tuple(map(add, coords, c)), zs[zc]), m


_EVALUATORS = {"partition": _partition_values, "series": _series_values}


def _top_covector(g: RealGroupData, hv: tuple[int, ...]) -> tuple[int, ...]:
    """v, the K-dominant conjugate of R^T hv: under hv the keys of the K-type
    mu reach (mu, v), its weights lying in the hull of W_K mu, and those of
    the window window * |v|_1, as W_K acts by signed permutations and every
    point of the window's cube is a weight of a K-type in the window."""
    # the dominant one is highest: (u^T R^T hv, 2rho_K) = (hv, R u 2rho_K)
    u = max(g.k_weyl, key=lambda u: sum(map(mul, u.top, hv)))
    return matvec(u.rw_t, hv)


def _evaluate(prep: ParamVerdict, mode: str, index: Mapping[tuple, list],
              top2: int) -> dict[int, int]:
    """One oracle's value at each H-key up to the doubled height top2,
    scattered through an index of restricted K-types into {row: m}."""
    acc: dict[int, int] = {}
    for key, v in _EVALUATORS[mode](prep, top2):
        for row, m in index.get(key, ()):
            acc[row] = acc.get(row, 0) + v * m
    return acc


def _evaluate_ktypes(g: RealGroupData, prep: ParamVerdict, mode: str,
                     hws: Sequence[tuple[int, ...]]) -> list[int]:
    """One oracle on a few K-types, restricted through key_index."""
    acc = _evaluate(prep, mode, key_index(g, hws),
                    max((sum(map(mul, hw, prep.chamber.top)) for hw in hws),
                        default=-1))
    return [acc.get(row, 0) for row in range(len(hws))]


def _blattner_shifts(g: RealGroupData, compact: Sequence[tuple]
                     ) -> tuple[int, tuple[tuple[WeylTerm, tuple], ...]]:
    """Blattner's eps = det(w_Phi) and, per W_K record w, the pair (w,
    R(w rho_K) - rho_c), for the compact positives Phi_c of a positive
    system Phi.

    w_Phi takes the positive K roots to those R maps onto Phi_c, and R maps
    the K roots one-to-one onto the compact roots: so R w_Phi rho_K = rho_c,
    Phi_c's half-sum, det(w_Phi) = (-1)^(the number of Phi_c outside R K^+),
    and R(w rho_K) - rho_c = (R w 2rho_K - 2rho_c) / 2 (ArithmeticError if
    the numerator is odd).  R K^+ and each R w 2rho_K are the group's,
    derived at load.
    """
    eps = (-1) ** sum(c not in g.r_k_positives for c in compact)
    rho2_c = [sum(c[i] for c in compact) for i in range(g.hm.rank)]
    # one parity for every w: R w 2rho_K - R 2rho_K = 2 R(w rho_K - rho_K)
    c2 = list(map(sub, g.k_weyl[0].top, rho2_c))
    if any(x % 2 for x in c2):
        raise ArithmeticError(f"2 (R w rho_K - rho_c) = {c2} is odd")
    return eps, tuple((w, tuple((x - y) // 2 for x, y in zip(w.top, rho2_c)))
                      for w in g.k_weyl)


def _blattner_table(g: RealGroupData, prep: ParamVerdict, window: int
                    ) -> list[_Row]:
    """The K-types of the window that Blattner's formula can make nonzero,
    as (highest-weight coordinates, multiplicity) in lexical order.

    P_n(t) is the number of count vectors n in N^k with t = sum_j n_j beta_j
    over the k noncompact positives, so the formula is eps times the sum of
    det(w) over the pairs (n, w) for which R w mu + shift_w = t has a
    solution mu in the window, shift_w the chamber's R(w rho_K) - rho_c
    less the base.  As w^-1 = w^T, the fibres' one integer map reads it,
    carried by w^T: the consistency rows vanish on t - shift_w, and d mu =
    A_w (t - shift_w) + sum_f x_f w^T dirs_f with A_w = w^T a, over the
    free coordinates x_f of w mu, which lie in [-window, window] since w is
    a signed permutation; the chamber holds each term's columns, read off
    the group's W_K record of w.  So d mu is affine in the walk variables,
    the free coordinates and then the counts, each count at most the
    largest target height in the window over its own height.
    The walk carries d mu, its pairings with the simple K roots, its Z' rows
    and the consistency residues as running sums.  The window, dominance and
    consistency conditions are linear, so each variable runs over one
    integer interval, cut by what the later variables can still add; on the
    last one the interval is exact.  Divisibility by d and the Z' character
    have period d * |Z'| along it and are tested once per residue, so every
    (n, w) the walk reaches adds det(w) at its mu.
    """
    chamber, fibres, d = prep.chamber, g.fibres, g.fibres.d
    (base, zbase), ztable = prep.base, chamber.hm.ztable
    order, rank = ztable.order, g.k_roots.rank
    terms = [(det, tuple(map(sub, shift, base)), columns, walk)
             for det, shift, columns, walk in chamber.terms]
    # R w mu runs over the window's keys, as w permutes the window's weights
    bound2 = window * sum(map(abs, chamber.top)) + max(
        sum(map(mul, chamber.hm.height_vec, shift)) for _, shift, *_ in terms)
    ranges = ([(-window, window)] * len(fibres.dirs)
              + [(0, bound2 // h) for h in chamber.heights])
    consistency, nsimple = fibres.consistency, len(g.k_roots.simples)
    width = len(terms[0][3])  # of the walk's state
    zs = slice(rank + nsimple, width - len(consistency))
    # each condition is sign * state[i] >= bound
    conditions = ([(i, s, -d * window) for i in range(rank) for s in (1, -1)]
                  + [(rank + j, 1, 0) for j in range(nsimple)]
                  + [(zs.stop + j, s, 0)
                     for j in range(len(consistency)) for s in (1, -1)])

    found: dict[tuple[int, ...], int] = {}
    for det, shift, columns, walk in terms:
        # (column, lo, hi): no count exceeds the cut over its own height;
        # with no variable at all, a zero column reads the start alone
        variables = ([(c, lo, hi) for c, (lo, hi) in zip(columns, ranges)]
                     or [((0,) * width, 0, 0)])
        col = variables[-1][0]
        dcol, zcol = col[:rank], col[zs]
        step = tuple(order * x for x in dcol)
        start = tuple(-x for x in matvec(walk, shift))
        for line, lo, hi in _walk(start, _levels(conditions, variables)):
            dmu0, z0 = line[:rank], line[zs]
            for n in range(lo, min(hi, lo + d * order - 1) + 1):
                dmu = [x + n * y for x, y in zip(dmu0, dcol)]
                if d > 1 and any(x % d for x in dmu):
                    continue
                if order > 1 and ztable.index_of[tuple(
                        (x + n * y) // d % order
                        for x, y in zip(z0, zcol))] != zbase:
                    continue
                mu = tuple(x // d for x in dmu)
                for _ in range((hi - n) // (d * order) + 1):
                    found[mu] = found.get(mu, 0) + det
                    mu = tuple(map(add, mu, step))
    return [(mu, chamber.eps * m) for mu, m in sorted(found.items())]


def _levels(conditions: Sequence[tuple[int, int, int]],
            variables: Sequence[tuple[tuple[int, ...], int, int]]
            ) -> list[tuple]:
    """Per walk variable (column, lo, hi), the conditions sign * state[i] >=
    bound as it reads them: (column, lo, hi, rows), each row (i, sign,
    bound, coefficient) with the bound lowered by the most that the later
    variables can add over their ranges."""
    levels = []
    reach = [0] * len(conditions)
    for col, lo, hi in reversed(variables):
        levels.append((col, lo, hi, [
            (i, s, bound - r, s * col[i])
            for (i, s, bound), r in zip(conditions, reach)]))
        reach = [r + max(s * col[i] * lo, s * col[i] * hi)
                 for (i, s, _), r in zip(conditions, reach)]
    return levels[::-1]


def _walk(state: tuple[int, ...], levels: Sequence[tuple]
          ) -> Iterable[tuple[tuple[int, ...], int, int]]:
    """The lines of a walk over the levels' variables: (state at the last
    variable 0, lo, hi), the last variable's values that meet its
    conditions.  Each earlier variable steps through the values that meet
    its own, adding its column to the state per unit step."""
    (col, lo, hi, rows), rest = levels[0], levels[1:]
    for i, s, bound, cc in rows:
        slack = s * state[i] - bound  # slack + n * cc >= 0
        if cc > 0:
            lo = max(lo, -(slack // cc))
        elif cc < 0:
            hi = min(hi, slack // -cc)
        elif slack < 0:
            return
    if lo > hi:
        return
    if not rest:
        yield state, lo, hi
        return
    state = tuple(x + lo * y for x, y in zip(state, col))
    for _ in range(lo, hi + 1):
        yield from _walk(state, rest)
        state = tuple(map(add, state, col))


def ktype_multiplicity(g: RealGroupData, p: TemperedParams, kt: KType,
                       mode: str = "partition") -> int:
    """Multiplicity of one K-type by one oracle, "series" or "partition";
    the two must agree.  The one conversion of a KType: its highest weight
    is checked (an integral weight of T by HMLattice.char, dominant by
    check_ktype) and passed on as coordinates."""
    _check_mode(mode)
    prep = _prepare(g, p)
    hw, _ = g.t_lattice.char(kt.highest)
    check_ktype(g, hw)
    return _evaluate_ktypes(g, prep, mode, [hw])[0]


def _nonzero(rows: Sequence[_Row]) -> list[_Row]:
    for mu, m in rows:
        if m < 0:
            raise ArithmeticError(
                f"negative multiplicity {m} at {mu}; "
                "representation tables must be nonnegative")
    return [(mu, m) for mu, m in rows if m]


def _box(g: RealGroupData, prep: ParamVerdict, window: int, mode: str
         ) -> list[_Row]:
    """The one path of every table over the window's box: one oracle's
    values scattered through the box's index, the nonzero rows kept."""
    ktypes, index = ktype_box(g, window)
    top2 = window * sum(map(abs, prep.chamber.top))
    acc = _evaluate(prep, mode, index, top2)
    return _nonzero([(ktypes[row], acc[row]) for row in sorted(acc)])


def _check_window(window: int) -> None:
    if type(window) is not int or window < 0:
        raise ValueError(f"window must be a nonnegative int, not {window!r}")


def _check_mode(mode: str) -> None:
    if mode not in _EVALUATORS:
        raise ValueError(f"unknown mode {mode!r}")


def box_table(g: RealGroupData, p: TemperedParams, window: int,
              mode: str) -> KTypeTable:
    """One oracle, "series" or "partition", over the window's box; empty
    for zero verdicts."""
    _check_window(window)
    _check_mode(mode)
    prep = _prepare(g, p, zero_ok=True)
    rows = [] if prep is None else _box(g, prep, window, mode)
    return KTypeTable(dict(rows), window, sign_factor(g))


_SPOT_CHECKS = 3


def ktype_table(g: RealGroupData, p: TemperedParams, window: int,
                verdict: Optional[ParamVerdict] = None) -> KTypeTable:
    """Multiplicities of every K-type in the window; empty for zero verdicts.

    Blattner's formula over the K-types the noncompact cone reaches where
    the group data allow it, else partition counts over the box; the
    partition oracle, or the series for a box table, checks the few nonzero
    entries whose keys reach the least height, where it is cheapest (ties in
    lexical order).  Entries are the restricted representation itself; the
    table's sign field records the index sign.  A caller holding
    validate_params(g, p) passes it as verdict; any other verdict raises
    ForeignVerdictError.
    """
    _check_window(window)
    prep = _prepare(g, p, zero_ok=True, verdict=verdict)
    if prep is None:
        return KTypeTable({}, window, sign_factor(g))
    evaluator, oracle = (("blattner", "partition") if g.blattner_applies
                         else ("partition", "series"))
    rows = (_nonzero(_blattner_table(g, prep, window)) if g.blattner_applies
            else _box(g, prep, window, "partition"))
    v = prep.chamber.top
    spot = sorted(rows, key=lambda r: sum(map(mul, r[0], v)))[:_SPOT_CHECKS]
    checked = _evaluate_ktypes(g, prep, oracle, [mu for mu, _ in spot])
    for (mu, m), c in zip(spot, checked):
        if c != m:
            raise ArithmeticError(f"evaluator disagreement at {mu}: "
                                  f"{oracle} {c} vs {evaluator} {m}")
    return KTypeTable(dict(rows), window, sign_factor(g))


def nu_independence_check(g: RealGroupData, p: TemperedParams,
                          nu1: Weight, nu2: Weight, window: int) -> bool:
    """True iff the table is unchanged when the continuous parameter moves."""
    t1 = ktype_table(g, p._replace(nu=nu1), window)
    t2 = ktype_table(g, p._replace(nu=nu2), window)
    return t1 == t2


def ktype_table_series(g: RealGroupData, p: TemperedParams, window: int,
                       restrictions: Optional[dict] = None) -> KTypeTable:
    """The series oracle's box table; restrictions is not used, as
    ktype_box keeps every window's restricted K-types.  Its one caller is
    perfbench/workloads.py."""
    return box_table(g, p, window, "series")
