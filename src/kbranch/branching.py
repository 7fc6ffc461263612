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
    split by type, its compact simple roots, 2rho_n, the keys' top
    covector, the plan of Blattner's walk (per W_K record eps det(w), its
    shift and its levels' columns, condition rows and reach), w_Phi^T's
    state map and the oracles' tables, each rebuilt only for a read past
    its certificate.  A nonzero verdict carries the record, and every
    table of Phi reads it;
  - call: what lambda and chi fix, checked in integers (dominance, the lift
    of lambda - rho, the component values) into one record, the nonzero
    verdict with the base key lambda - rho + 2rho_n; and what the base and
    window move: the walk's height bound, each walk's start and the levels'
    bounds.  A verdict records the group it judged, so a call is
    validate_params -> verdict -> table_of, as ktype_table(g, p, window).

table_of evaluates Blattner's formula (Hecht-Schmid)

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
over those takes, one line of the last variable at a time, the integer
interval that keeps mu in the window and the dominant chamber, so neither
a box of K-types nor a table of partition counts is built.

Two oracles stay independent of it and of each other, each a chamber table
(certificate, terms) of the kernel prod_c (1 - e^c) / prod_n (1 - e^n) over
the compact and noncompact positives, read once at the base by _evaluate:
the partition counts of the noncompact positives times each compact factor,
and the truncated series product.  Each read runs in height order up to the
call's own doubled height, never past the table's certificate, and is
scattered by K-type through an inverted index of restricted K-types: the
window's ktypes.KTypeBox for a table over the box, which restricts only the
keys read, else ktypes.key_index's.  table_of spot-checks its lowest rows
with an oracle its table did not come from, the partition counts a Blattner
table and the series a box one, and a Blattner table's lowest row against
Schmid's lowest K-type, limits included.  Tables carry the global sign
(-1)^(dim s_M / 2) as metadata; the entries are the restricted
representation and always nonnegative.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, mul, neg, sub
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .characters import (CutoffError, HMLattice, LatticeError, Weight,
                         char_mul, geometric_series, graded_exterior,
                         partition_counts)
from .groups import RealGroupData, matvec, simple_roots
from .ktypes import KType, key_index, ktype_box

# a table's caps: its window; the points (2w+1)^n of a box it scans, n the
# rank for a box of K-types, the free coordinates for a torus fibre of
# Blattner's walk (33^3 is the rank-3 box of window 16); its walk's lines
MAX_WINDOW = 64
MAX_BOX = 33 ** 3
MAX_WALK_LINES = 10 ** 6


class TableSizeError(ValueError):
    """A table's window or scan is above its cap, refused before the work."""


class InvalidParamsError(ValueError):
    """Parameters failed validation; the message is the verdict's text,
    "invalid: " and its reason."""


class TemperedParams(NamedTuple):
    """Parameter tuple of a basic representation.

    lam: Harish-Chandra-style parameter on the compact Cartan of the Levi
         factor (half-integral allowed in the doubled lattice);
    rmplus: explicit positive system of the Levi roots, as coordinate tuples;
    chi: index into the character table of the finite component group;
    nu: continuous parameter on the split part -- carried but never used by
        the restriction arithmetic.
    """

    lam: Weight
    rmplus: tuple[tuple[int, ...], ...]
    chi: int
    nu: Weight


class _Term(NamedTuple):
    """One element w of W_K in Blattner's walk, as the chamber fixes it."""

    det: int
    walk: tuple[tuple[int, ...], ...]   # the group's state map b -> state
    shift: tuple[int, ...]              # shift_w = R(w rho_K) - rho_c
    # per walk variable: (column, rows (i, s, s * col[i]), reach per unit hi)
    levels: tuple[tuple[tuple, tuple, tuple], ...]


class Chamber(NamedTuple):
    """What a positive system Phi of the Levi roots fixes for every
    parameter tuple that names it (the chamber tier above), built once per
    (group, Phi) by _chamber.  terms plan Blattner's walk, read off the
    group's W_K records, so that a call forms only what its base moves;
    where the formula does not apply terms is empty; w_Phi (R w_Phi K^+ =
    Phi_c) gives their eps and lowest.
    tables holds each oracle's kernel, which _evaluate reads at the base.
    A chamber compares and hashes by what Phi fixes."""

    hm: HMLattice                        # the Levi lattice graded by Phi
    compact: tuple[tuple[int, ...], ...]
    noncompact: tuple[tuple[int, ...], ...]
    compact_simples: tuple[tuple[int, ...], ...]
    rho2_n: tuple[int, ...]              # 2rho_n, the noncompact sum
    top: tuple[int, ...]                 # v, the _top_covector
    terms: tuple[_Term, ...]             # Blattner's walk, one per W_K element
    lowest: Optional[tuple]  # w_Phi^T where T_M = T, off W_K, not the terms
    tables: dict        # mode -> (certificate, terms), grown by _evaluate

    def __eq__(self, other):
        return isinstance(other, Chamber) and self[:-1] == other[:-1]

    __ne__ = object.__ne__  # not tuple's: the negation of __eq__

    def __hash__(self):
        return hash(self[:-1])


class ParamVerdict(NamedTuple):
    verdict: str                 # "nonzero" | "zero" | "invalid"
    group: RealGroupData         # the group validate_params judged
    reason: Optional[str] = None
    # nonzero verdicts: the record of p.rmplus, which tables reuse
    chamber: Optional[Chamber] = None
    base: Optional[tuple] = None  # the key (lambda - rho + 2rho_n, chi)

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
    """(-1)^(dim s_M / 2); the loader refuses an odd dimension."""
    return -1 if (g.dim_s_m // 2) % 2 else 1


def validate_params(g: RealGroupData, p: TemperedParams) -> ParamVerdict:
    """Classify parameters: invalid, zero (the induced representation
    vanishes), or nonzero; lam, nu and rmplus are checked here, once."""
    def invalid(reason):
        return ParamVerdict("invalid", g, reason)

    if not isinstance(p.lam, Weight) or (p.lam.lattice, p.lam.rank) != (
            g.hm.lattice, g.hm.rank):
        return invalid("parameter is not a weight of the Levi Cartan")
    if not isinstance(p.nu, Weight) or (p.nu.lattice, p.nu.rank) != (
            g.a_lattice.lattice, g.a_lattice.rank):
        return invalid("continuous parameter is not a weight of the split part")
    if type(p.chi) is not int or not 0 <= p.chi < g.hm.ztable.order:
        return invalid(f"no component character with index {p.chi}")

    # an entry not a tuple of ints is no root (None): (1.0, -1, 0) and
    # (True, -1, 0) compare and hash equal to (1, -1, 0); a Weight is refused
    rmplus = p.rmplus if type(p.rmplus) is tuple else (None,)
    rmplus = tuple(a if type(a) is tuple and {int}.issuperset(map(type, a))
                   else None for a in rmplus)
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
                "zero", g, f"parameter orthogonal to simple compact root {a}")
    return ParamVerdict("nonzero", g, chamber=chamber, base=(
        tuple(map(add, shifted, chamber.rho2_n)), p.chi))


@lru_cache(maxsize=64)
def _chamber(g: RealGroupData, rmplus: tuple) -> Union[Chamber, str]:
    """The record of the positive system rmplus, coordinate tuples of the
    Levi lattice, or the reason it is none.  Built once per (group,
    rmplus): the group compares by every field, so two groups of one name
    keep records of their own."""
    compact_of, rm = g.compact_of, set(rmplus)  # compact_of: every root
    if len(rm) != len(rmplus) or not rm <= compact_of.keys():
        return "positive system contains non-roots or duplicates"
    if 2 * len(rm) != len(compact_of) or not rm.isdisjoint(
            [tuple(map(neg, c)) for c in rm]):
        return "positive system does not split the roots into halves"

    # a genuine positive system is separated by its own root sum
    hm = HMLattice.graded(g.hm.rank, g.hm.lattice, rmplus, g.hm.ztable)
    hv, compact, noncompact = hm.height_vec, [], []
    for a in rmplus:
        if sum(map(mul, hv, a)) <= 0:
            return f"chosen positive system is not pointed at {a}"
        if compact_of[a]:
            compact.append(a)
        else:
            noncompact.append(a)
    rho2_c = tuple(map(sum, zip((0,) * hm.rank, *compact)))  # 0 if none
    top = _top_covector(g, hv)
    w_phi = (next(w for w in g.k_weyl if w.top == rho2_c)  # R w K^+ = Phi_c
             if g.blattner_applies else None)
    terms = _walk_plan(g, noncompact, rho2_c, w_phi.det) if w_phi else ()
    lowest = (w_phi.walk[:hm.rank] if w_phi and not g.fibres.dirs
              and g.fibres.d == 1 else None)
    return Chamber(hm, tuple(compact), tuple(noncompact),
                   tuple(a for a in simple_roots(rmplus) if compact_of[a]),
                   tuple(map(sub, hv, rho2_c)), top, terms, lowest, {})


# ------------------------------------------------------------------ engine

def _prepare(verdict: ParamVerdict) -> Optional[ParamVerdict]:
    """The one gate of every evaluator: verdict if nonzero, None if zero
    (the zero representation), InvalidParamsError if invalid."""
    if verdict.verdict == "invalid":
        raise InvalidParamsError(str(verdict))
    return verdict if verdict.verdict == "nonzero" else None


_Row = tuple[tuple[int, ...], int]  # (highest-weight coordinates, m)


def _series(chamber: Chamber, bound2: int) -> tuple[Optional[int], list]:
    """graded_exterior(compact) x prod_beta geometric_series(beta, cutoff),
    cut at the least cutoff whose doubled height covers bound2: char_mul's
    pair of its certificate, a doubled height or None if exact, and its
    terms (doubled height, key, m) lowest first."""
    cutoff, hm = max(-(-bound2 // 2), 0), chamber.hm
    acc = graded_exterior(hm, chamber.compact)
    for beta in chamber.noncompact:
        acc = char_mul(hm, acc, geometric_series(hm, beta, cutoff))
    return acc


def _partition_table(chamber: Chamber, bound2: int) -> tuple[int, list]:
    """The branching kernel, prod_alpha (1 - e^alpha) / prod_beta (1 - e^beta)
    over the compact positives alpha and the noncompact beta, up to the
    doubled height bound2, which certifies it: the partition counts of the
    beta times each 1 - e^alpha, none of the series' arithmetic, cut at
    bound2, as (doubled height, key, m) lowest first, zeros dropped."""
    hv, z = chamber.hm.height_vec, chamber.hm.ztable.identity
    kernel = partition_counts(chamber.noncompact, chamber.hm, bound2)
    for alpha in chamber.compact:
        room = bound2 - sum(map(mul, alpha, hv))
        for t, n in list(kernel.items()):  # the counts before this factor
            if sum(map(mul, t, hv)) <= room:
                moved = tuple(map(add, t, alpha))
                kernel[moved] = kernel.get(moved, 0) - n
    return bound2, sorted([(sum(map(mul, t, hv)), (t, z), n)
                           for t, n in kernel.items() if n])


def _top_covector(g: RealGroupData, hv: tuple[int, ...]) -> tuple[int, ...]:
    """v, the K-dominant conjugate of R^T hv: under hv the keys of the K-type
    mu reach (mu, v), its weights lying in the hull of W_K mu, and those of
    the window window * |v|_1, as W_K acts by signed permutations and every
    point of the window's cube is a weight of a K-type in the window."""
    # the dominant one is highest: (u^T R^T hv, 2rho_K) = (hv, R u 2rho_K)
    u = max(g.k_weyl, key=lambda u: sum(map(mul, u.top, hv)))
    return matvec(zip(*u.matrix), matvec(zip(*g.tm_in_t), hv))  # (R u)^T hv


def _evaluate(prep: ParamVerdict, mode: str, index: Mapping[tuple, Sequence],
              top2: int) -> dict[tuple[int, ...], int]:
    """One oracle's value at each H-key up to the doubled height top2,
    scattered by K-type through an index of restricted K-types: the chamber
    table of terms (doubled height, key, m) of the branching kernel, which
    either builder returns, read once at the base.  The read moves a key
    (c, i) to (c + base, i + z_base) up to its room, top2 less the base's
    doubled height.  The chamber keeps the builder's pair, rebuilt at the
    room past its certificate, which the room may not pass."""
    chamber, (coords, z) = prep.chamber, prep.base
    build = _partition_table if mode == "partition" else _series
    room = top2 - sum(map(mul, coords, chamber.hm.height_vec))
    kept = chamber.tables.get(mode)
    if kept is None or kept[0] is not None and kept[0] < room:
        kept = chamber.tables[mode] = build(chamber, room)
    cert, terms = kept
    if cert is not None and room > cert:
        raise CutoffError(f"a {mode} read to doubled height {room} beyond "
                          f"the table's certificate {cert}")
    zs, acc = chamber.hm.ztable.products[z], {}
    for h, (c, zc), m in terms:
        if h > room:
            break
        key = tuple(map(add, coords, c)), zs[zc]
        for kt, mi in index.get(key, ()):
            acc[kt] = acc.get(kt, 0) + m * mi
    return acc


def _walk_plan(g: RealGroupData, noncompact: Sequence[tuple],
               rho2_c: tuple[int, ...], eps: int) -> tuple[_Term, ...]:
    """One _Term per W_K record w, its det eps det(w), for a positive system
    Phi, its compact positives Phi_c summing to rho2_c.  R maps the K roots
    one-to-one onto the compact roots, so R w_Phi rho_K = rho_c for the one
    w_Phi with R w_Phi K^+ = Phi_c, Blattner's eps = det(w_Phi) and
    shift_w = R(w rho_K) - rho_c = (R w 2rho_K - 2rho_c) / 2.  Each walk
    variable (w^T dirs_f, then the noncompact positives; a zero column if
    none) has a level: its column's state, the rows (i, s, s col[i]) of the
    conditions s state[i] >= bound, and its reach per unit of its hi:
    |s col[i]| on a free coordinate, max(s col[i], 0) on a count.
    """
    rank, width = g.k_roots.rank, len(g.k_weyl[0].walk)
    # the conditions' (i, s): both signs of each entry of d mu, then each
    # pairing with a simple K root
    conditions = [(i, s) for i in range(width) for s in (1, -1)
                  if i < rank or s == 1]
    terms = []
    for w in g.k_weyl:
        # exact: R w 2rho_K - R 2rho_K = 2 R(w rho_K - rho_K), and R 2rho_K
        # and 2rho_c sum R K^+ and Phi_c, each one root of every compact
        # pair +-a, so differ by twice the sum of R K^+ outside Phi_c
        shift = tuple([(x - y) // 2 for x, y in zip(w.top, rho2_c)])
        columns = w.dirs + tuple([matvec(w.walk, b) for b in noncompact])
        levels = tuple((col, rows, tuple(
            [abs(c) for _, _, c in rows] if k < len(w.dirs)
            else [c if c > 0 else 0 for _, _, c in rows]))
            for k, col in enumerate(columns or ((0,) * width,))
            for rows in [tuple([(i, s, s * col[i]) for i, s in conditions])])
        terms.append(_Term(eps * w.det, w.walk, shift, levels))
    return tuple(terms)


def _blattner_table(g: RealGroupData, prep: ParamVerdict, window: int
                    ) -> list[_Row]:
    """The K-types of the window that Blattner's formula can make nonzero,
    as (highest-weight coordinates, multiplicity) in lexical order.

    P_n(t) counts the n in N^k with t = sum_j n_j beta_j over the k
    noncompact positives, so the formula is the sum of the terms' det,
    eps det(w), over the (n, w) with R w mu + shift_w - base = t for a mu
    in the window.  As w^-1 = w^T, the fibres' one integer map reads it,
    carried by w^T (R has full row rank but need not be onto, so t lies
    over a rational mu, integral where d divides d mu):
    d mu = A_w (t - shift_w + base) + sum_f x_f w^T dirs_f, A_w = w^T a,
    over the free coordinates x_f of w mu, in [-window, window] as w is a
    signed permutation.  The walk carries d mu and its pairings with the
    simple K roots as running sums, from walk . (base - shift_w), over the
    free coordinates and then the counts, each at most the largest target
    height, bound2, over its own; the conditions are linear, so each variable
    runs over one interval, cut by what the later ones can still add, exact
    on the last.  Divisibility by d and the Z' character of mu have period
    d * |Z'| along it and are tested once per residue, so every (n, w)
    reached adds its term's det at its mu.
    """
    _check_scan(g, window, len(g.fibres.dirs), "fibre points per cone point")
    chamber, d = prep.chamber, g.fibres.d
    (base, zbase), order = prep.base, chamber.hm.ztable.order
    rank, hv = g.k_roots.rank, chamber.hm.height_vec
    # R w mu runs over the window's keys, as w permutes the window's weights
    bound2 = (window * sum(map(abs, chamber.top)) - sum(map(mul, hv, base))
              + max(sum(map(mul, hv, t.shift)) for t in chamber.terms))
    ranges = ([(-window, window)] * len(g.fibres.dirs) + [
        (0, bound2 // sum(map(mul, hv, b))) for b in chamber.noncompact]
        or [(0, 0)])[::-1]
    nrows = len(chamber.terms[0].levels[0][1])
    # the last variable's bounds: the window's on d mu, 0 for the rest
    last = [-d * window] * (2 * rank) + [0] * (nrows - 2 * rank)
    period = d * order  # of divisibility and the Z' character along a line

    found: dict[tuple[int, ...], int] = {}
    walked = 0  # the table's lines so far, over every term's walk
    for det, walk, shift, plan in chamber.terms:
        # each earlier level's bounds are lowered by what the later variable
        # adds at most, its reach times its hi (an empty range walks none)
        levels, bounds = [], last
        for (col, rows, reach), (lo, hi) in zip(reversed(plan), ranges):
            if levels:
                bounds = list(map(sub, bounds, lowered))
            levels.append((col, rows, lo, hi, bounds))
            lowered = map(mul, reach, repeat(hi))
        levels.reverse()
        dcol = plan[-1][0][:rank]
        step = tuple([order * x for x in dcol])
        for line, lo, hi in _walk(matvec(walk, list(map(sub, base, shift))),
                                  levels):
            walked += 1
            if walked > MAX_WALK_LINES:
                raise TableSizeError(
                    f"{g.name}: window {window} would walk more than "
                    f"{MAX_WALK_LINES} lines of Blattner's formula")
            dmu0 = line[:rank]
            for n in range(lo, min(hi, lo + period - 1) + 1):
                dmu = list(map(add, dmu0, map(mul, dcol, repeat(n))))
                if d > 1 and any(x % d for x in dmu):
                    continue
                mu = tuple([x // d for x in dmu]) if d > 1 else tuple(dmu)
                if order > 1 and g.zchar(mu) != zbase:
                    continue
                for _ in range((hi - n) // period + 1):
                    found[mu] = found.get(mu, 0) + det
                    mu = tuple(map(add, mu, step))
    return sorted(found.items())


def _walk(state: Sequence[int], levels: Sequence[tuple]
          ) -> Iterator[tuple[list[int], int, int]]:
    """The lines (state at the last variable 0, lo, hi) of a walk over the
    levels (column, rows (i, s, c), lo, hi, bounds): lo..hi are the values n
    of the last variable with s * state[i] + n * c >= bound for every row.
    Each earlier variable steps through the values that meet its own rows,
    adding its column to the state per unit step.  Lazy: a caller that
    stops reading stops the walk."""
    last = len(levels) - 1

    def visit(k: int, state: list[int]) -> Iterator[tuple]:
        col, rows, lo, hi, bounds = levels[k]
        for (i, s, c), bound in zip(rows, bounds):
            slack = s * state[i] - bound  # slack + n * c >= 0
            if c > 0:
                n = -(slack // c)
                if n > lo:
                    lo = n
            elif c < 0:
                n = slack // -c
                if n < hi:
                    hi = n
            elif slack < 0:
                return
        if lo > hi:
            return
        if k == last:
            yield state, lo, hi
            return
        state = [x + lo * y for x, y in zip(state, col)]
        for _ in range(lo, hi + 1):
            yield from visit(k + 1, state)
            state = list(map(add, state, col))

    return visit(0, state)


def ktype_multiplicity(g: RealGroupData, p: TemperedParams, kt: KType,
                       mode: str = "partition") -> int:
    """Multiplicity of one K-type by one oracle, "series" or "partition";
    the two must agree; 0 for a zero verdict.  The one conversion of a
    KType: its highest weight is checked (an integral weight of T by
    HMLattice.char, then dominant) and passed on as coordinates."""
    _check_mode(mode)
    prep = _prepare(validate_params(g, p))
    hw, _ = g.t_lattice.char(kt.highest)
    if any(sum(map(mul, hw, s)) < 0 for s in g.k_roots.simples):
        raise LatticeError(f"{hw!r} is not a dominant integral weight of "
                           f"rank {g.k_roots.rank}")
    if prep is None:
        return 0
    return _evaluate(prep, mode, key_index(g, [hw]),
                     sum(map(mul, hw, prep.chamber.top))).get(hw, 0)


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
    values scattered through its KTypeBox, the nonzero rows in lexical order."""
    _check_scan(g, window, g.k_roots.rank, "K-types of the window's box")
    acc = _evaluate(prep, mode, ktype_box(g, window),
                    window * sum(map(abs, prep.chamber.top)))
    return _nonzero(sorted(acc.items()))


def _check_window(window: int) -> None:
    if type(window) is not int or window < 0:
        raise ValueError(f"window must be a nonnegative int, not {window!r}")
    if window > MAX_WINDOW:
        raise TableSizeError(f"window {window} is above the cap of {MAX_WINDOW}")


def _check_scan(g: RealGroupData, window: int, n: int, what: str) -> None:
    if (scanned := (2 * window + 1) ** n) > MAX_BOX:
        raise TableSizeError(f"{g.name}: window {window} would scan {scanned} "
                             f"{what}; at most {MAX_BOX} are allowed")


_MODES = ("partition", "series")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")


def box_table(g: RealGroupData, p: TemperedParams, window: int,
              mode: str) -> KTypeTable:
    """One oracle, "series" or "partition", over the window's box; empty
    for zero verdicts."""
    _check_window(window)
    _check_mode(mode)
    prep = _prepare(validate_params(g, p))
    rows = [] if prep is None else _box(g, prep, window, mode)
    return KTypeTable(dict(rows), window, sign_factor(g))


_SPOT_CHECKS = 3


def table_of(verdict: ParamVerdict, window: int) -> KTypeTable:
    """Multiplicities of every K-type in the window of what a
    validate_params verdict judged; empty for a zero verdict,
    InvalidParamsError for an invalid one, TableSizeError above a cap.

    Blattner's formula over the K-types the noncompact cone reaches where
    the group data allow it, else partition counts over the box.  The
    partition oracle, or the series for a box table, checks the few nonzero
    entries of least height, where it is cheapest (ties in lexical order);
    an empty table reads neither.  Where T_M = T, a Blattner table of a
    nonzero verdict, limits too (Knapp-Zuckerman), holds Schmid's lowest
    K-type once, alone at its least height, if it is in the window: w_Phi^T
    Lambda, as Lambda = lambda + rho_n - rho_c is dominant for Phi_c.
    """
    _check_window(window)
    g, prep = verdict.group, _prepare(verdict)
    if prep is None:
        return KTypeTable({}, window, sign_factor(g))
    evaluator, oracle = (("blattner", "partition") if g.blattner_applies
                         else ("partition", "series"))
    rows = (_nonzero(_blattner_table(g, prep, window)) if g.blattner_applies
            else _box(g, prep, window, "partition"))
    v, lowest = prep.chamber.top, prep.chamber.lowest
    spot = sorted([(sum(map(mul, mu, v)), mu, m) for mu, m in rows])
    if lowest:  # Schmid's lowest K-type u Lambda
        low = matvec(lowest, prep.base[0])
        h = sum(map(mul, low, v))  # the rows this high: it alone, once
        if max(map(abs, low)) <= window and [
                s for s in spot[:2] if s[0] <= h] != [(h, low, 1)]:
            raise ArithmeticError(f"lowest K-type {low} is not the one row of "
                                  "least height, with multiplicity 1")
    spot = spot[:_SPOT_CHECKS]
    checked = spot and _evaluate(  # an empty table reads no oracle
        prep, oracle, key_index(g, [mu for _, mu, _ in spot]), spot[-1][0])
    for _, mu, m in spot:
        c = checked.get(mu, 0)
        if c != m:
            raise ArithmeticError(f"evaluator disagreement at {mu}: "
                                  f"{oracle} {c} vs {evaluator} {m}")
    return KTypeTable(dict(rows), window, sign_factor(g))


def ktype_table(g: RealGroupData, p: TemperedParams, window: int
                ) -> KTypeTable:
    """table_of(validate_params(g, p), window)."""
    return table_of(validate_params(g, p), window)


def ktype_table_series(g: RealGroupData, p: TemperedParams, window: int,
                       restrictions: Optional[dict] = None) -> KTypeTable:
    """The series oracle's box table; restrictions is not used, as the
    window's KTypeBox keeps what its tables read.  Its one caller is
    perfbench/workloads.py."""
    return box_table(g, p, window, "series")
