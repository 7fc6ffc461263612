"""K-type multiplicities of standard representations.

The engine realises the branching rule

    multiplicity of a K-type  =  dimension of the H-invariants in
    (dual K-type restricted to H) x (inverse exterior series of the
    noncompact Levi roots) x (graded exterior of the compact Levi roots)
    x (line with weight lambda - rho_c + rho_n, tagged by the finite
    component character)

in two steps.  Preparation validates the parameters once and derives
what every K-type shares: the lattice graded by the parameters' positive
system, whose rho gives the base character lambda - rho_c + rho_n as
lambda - rho + (sum of the noncompact positives), the noncompact
positives, the signed compact-subset offsets and the keys' top covector.
What the group alone determines (W_K, rho_K, compactness, the fibres of
the torus restriction) is derived once when the group is loaded, and read
here.

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

Two oracles stay independent of it and of each other: signed sums of
Kostant partition counts over the compact offsets, and the coefficients of
one truncated series product.  Each gives one value per H-key and scatters
it through ktypes.key_index, an inverted index of restricted K-types, into
the rows the key touches.  Every table over the window's box (box_table,
and ktype_table outside Blattner's formula) reads the window's, kept by
ktypes.ktype_box once per window, and costs the oracle's values and the
rows they touch; the spot check and ktype_multiplicity index their own.
Tables carry the global sign (-1)^(dim s_M / 2) as metadata; the entries
are the restricted representation and always nonnegative.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .characters import (FormalCharacter, HMLattice, Weight, dot,
                         geometric_series, graded_exterior, partition_counts)
from .groups import (GroupDataError, RealGroupData, WeylElement, matvec,
                     simple_roots)
from .ktypes import KType, check_ktype, key_index, ktype_box


class InvalidParamsError(ValueError):
    """Parameters failed validation (verdict carried along)."""

    def __init__(self, verdict: "ParamVerdict"):
        self.verdict = verdict
        super().__init__(str(verdict))


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


class ParamVerdict(NamedTuple):
    verdict: str                 # "nonzero" | "zero" | "invalid"
    reason: Optional[str] = None
    # nonzero verdicts: the lattice graded by p.rmplus, which tables reuse
    hm: Optional[HMLattice] = None

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
    vanishes), or nonzero."""
    def invalid(reason):
        return ParamVerdict("invalid", reason)

    if p.lam.lattice != g.hm.lattice or p.lam.rank != g.hm.rank:
        return invalid("parameter is not a weight of the Levi Cartan")
    if p.nu.lattice != f"{g.name}:a" or p.nu.rank != g.dim_a:
        return invalid("continuous parameter is not a weight of the split part")
    if not (0 <= p.chi < g.hm.ztable.order):
        return invalid(f"no component character with index {p.chi}")

    # whole Weights: a root's coordinates on another lattice are no root
    m_roots, rm = set(g.m_roots.roots), set(p.rmplus)
    if len(rm) != len(p.rmplus) or not rm <= m_roots:
        return invalid("positive system contains non-roots or duplicates")
    if 2 * len(rm) != len(m_roots) or rm & {-r for r in rm}:
        return invalid("positive system does not split the roots into halves")

    # a genuine positive system is separated by its own root sum
    hm = HMLattice.graded(g.hm.rank, g.hm.lattice, p.rmplus, g.hm.ztable)
    for a in p.rmplus:
        if hm.height2(a) <= 0:
            return invalid(
                f"chosen positive system is not pointed at {a.coords}")

    for a in p.rmplus:
        if dot(p.lam, a) < 0:
            return invalid(
                f"parameter is not dominant for the root {a.coords}")

    shifted = p.lam - hm.rho
    if not shifted.is_integral():
        return invalid("parameter minus rho does not lift to the torus")

    # component character must agree with the shifted parameter on the
    # overlap of the torus with the finite group
    order = g.hm.ztable.order
    for j, w in enumerate(g.zgen_w):
        if w is None:
            continue  # generator lies outside the small torus
        val = order * sum(Fraction(c) * x for c, x in zip(shifted.coords, w))
        if val.denominator != 1:
            return invalid("shifted parameter has no exact value at a "
                           "component generator")
        if int(val) % order != g.hm.ztable.rows[p.chi][j]:
            return invalid("component character disagrees with the shifted "
                           "parameter on the torus overlap")

    for a in simple_roots(p.rmplus):
        if g.is_compact(a) and dot(p.lam, a) == 0:
            return ParamVerdict(
                "zero", f"parameter orthogonal to simple compact root {a.coords}")
    return ParamVerdict("nonzero", hm=hm)



# ------------------------------------------------------------------ engine

class _Prepared(NamedTuple):
    """What every K-type shares for one validated parameter tuple: the
    lattice graded by the parameters' positive system, the base key
    (lambda - rho_c + rho_n, chi), the positives split by type,
    ((-1)^|S|, base + sum of S as coordinates) for every compact subset S,
    and the top covector v of the K-types' keys (_top_covector)."""

    hm: HMLattice
    base: tuple[tuple[int, ...], int]
    compact: tuple[Weight, ...]
    noncompact: tuple[Weight, ...]
    offsets: tuple[tuple[int, tuple[int, ...]], ...]
    top: tuple[int, ...]


def _prepare(g: RealGroupData, p: TemperedParams, zero_ok: bool = False,
             verdict: Optional[ParamVerdict] = None) -> Optional[_Prepared]:
    """Derive the shared data from verdict, else from validate_params(g, p).
    Raises InvalidParamsError unless nonzero; with zero_ok, zero gives None.

    Heights are measured against the parameters' own positive system, which
    need not be the one declared in the group file: the infinite series
    live in the cone it spans.
    """
    verdict = verdict or validate_params(g, p)
    if verdict.verdict == "zero" and zero_ok:
        return None
    if verdict.verdict != "nonzero":
        raise InvalidParamsError(verdict)
    hm = verdict.hm
    compact = tuple(g.compact_positives(p.rmplus))
    noncompact = tuple(g.noncompact_positives(p.rmplus))
    # lambda - rho + (sum of noncompact positives) = lambda - rho_c + rho_n,
    # integral since validation checked lambda - rho
    base = sum(noncompact, p.lam - hm.rho)
    offsets = tuple(((-1) ** r, sum(sub, base).coords)
                    for r in range(len(compact) + 1)
                    for sub in itertools.combinations(compact, r))
    return _Prepared(hm, hm.char(base, p.chi), compact, noncompact, offsets,
                     _top_covector(g, hm.height_vec))


def _virtual_character(prep: _Prepared, cutoff: int) -> FormalCharacter:
    acc = FormalCharacter(prep.hm, {prep.base: 1})
    acc = acc * graded_exterior(prep.hm, prep.compact)
    for beta in prep.noncompact:
        acc = acc * geometric_series(prep.hm, beta, cutoff)
    return acc


_Row = tuple[tuple[int, ...], int]  # (highest-weight coordinates, m)


def _partition_values(prep: _Prepared, top2: int) -> Iterable[tuple]:
    """Signed Kostant partition counts: at each H-key with the base's Z'
    character, the sum over the compact offsets of sign * P_n(coordinates -
    offset), from one partition_counts table reaching doubled height top2."""
    hv = prep.hm.height_vec
    counts = partition_counts(prep.noncompact, prep.hm, top2 - min(
        sum(map(mul, offset, hv)) for _, offset in prep.offsets))
    return (((tuple(map(add, t, offset)), prep.base[1]), sign * n)
            for sign, offset in prep.offsets for t, n in counts.items())


def _series_values(prep: _Prepared, top2: int) -> Iterable[tuple]:
    """The terms of one truncated virtual character, exact up to the
    doubled height top2.

    No term of it lies below the base height h_b, so its char_mul
    certificate is at least cutoff + floor(h_b / 2).  The least cutoff that
    covers top2 is checked once against the certificate (CutoffError should
    it fall short).
    """
    h2_base = prep.hm.key_height2(prep.base)
    top2 = max(top2, h2_base)
    virt = _virtual_character(prep, -(-top2 // 2) - h2_base // 2)
    return virt.coefficients(top2).items()


_EVALUATORS = {"partition": _partition_values, "series": _series_values}


def _top_covector(g: RealGroupData, hv: tuple[int, ...]) -> tuple[int, ...]:
    """v, the K-dominant conjugate of R^T hv: under hv the keys of the K-type
    mu reach (mu, v), its weights lying in the hull of W_K mu, and those of
    the window window * |v|_1, as W_K acts by signed permutations and every
    point of the window's cube is a weight of a K-type in the window."""
    v = matvec(tuple(zip(*g.tm_in_t)), hv)
    # of the conjugates, the dominant one is the highest under rho_K
    return max((matvec(w.matrix, v) for w in g.k_weyl),
               key=lambda u: sum(map(mul, u, g.t_lattice.height_vec)))


def _evaluate(prep: _Prepared, mode: str, index: Mapping[tuple, list],
              top2: int) -> dict[int, int]:
    """One oracle's value at each H-key up to the doubled height top2,
    scattered through an index of restricted K-types into {row: m}."""
    acc: dict[int, int] = {}
    for key, v in _EVALUATORS[mode](prep, top2):
        for row, m in index.get(key, ()):
            acc[row] = acc.get(row, 0) + v * m
    return acc


def _evaluate_ktypes(g: RealGroupData, prep: _Prepared, mode: str,
                     hws: Sequence[tuple[int, ...]]) -> list[int]:
    """One oracle on a few K-types, restricted through key_index."""
    acc = _evaluate(prep, mode, key_index(g, hws),
                    max((sum(map(mul, hw, prep.top)) for hw in hws),
                        default=-1))
    return [acc.get(row, 0) for row in range(len(hws))]


def _blattner_terms(g: RealGroupData, prep: _Prepared
                    ) -> tuple[int, list[tuple[WeylElement, tuple[int, ...]]]]:
    """Blattner's formula for one parameter tuple, as eps = det(w_Phi) and
    terms (w, shift_w) with shift_w = R(w rho_K - w_Phi rho_K) - base:

        mult(mu) = eps * sum_w det(w) * P_n(R w mu + shift_w).

    w_Phi takes the positive K roots to those R maps onto Phi's compact
    positives Phi_c, and R maps the K roots one-to-one onto the compact
    roots: so R w_Phi rho_K = rho_c, Phi_c's half-sum, det(w_Phi) = (-1)^(the
    number of Phi_c outside R K^+), and shift_w = R(w rho_K - rho_K) + C
    with C = R rho_K - rho_c - base (ArithmeticError if 2C is odd).
    """
    r = g.tm_in_t
    positives = {matvec(r, a.coords) for a in g.k_roots.positives}
    eps = (-1) ** sum(c.coords not in positives for c in prep.compact)
    # twice C, with 2 rho_K the height covector of T
    c2 = [x - 2 * b - sum(c.coords[i] for c in prep.compact) for i, (x, b)
          in enumerate(zip(matvec(r, g.t_lattice.height_vec), prep.base[0]))]
    if any(x % 2 for x in c2):
        raise ArithmeticError(f"2 (R rho_K - rho_c - base) = {c2} is odd")
    return eps, [(w, tuple(x + y // 2 for x, y in zip(matvec(r, s), c2)))
                 for w, s in zip(g.k_weyl, g.k_rho_shifts)]


def _blattner_table(g: RealGroupData, prep: _Prepared, window: int
                    ) -> list[_Row]:
    """The K-types of the window that Blattner's formula can make nonzero,
    as (highest-weight coordinates, multiplicity) in lexical order.

    P_n(t) is the number of count vectors n in N^k with t = sum_j n_j beta_j
    over the k noncompact positives, so the formula sums det(w) over the
    pairs (n, w) for which R w mu + shift_w = t has a solution mu in the
    window.  As w^-1 = w^T, the fibres' one integer map reads it, carried
    by w^T: the consistency rows vanish on t - shift_w, and d mu = A_w (t -
    shift_w) + sum_f x_f w^T dirs_f with A_w = w^T a, over the free
    coordinates x_f of w mu, which lie in [-window, window] since w is a
    signed permutation; a beta is taken once per table.  So d mu is affine
    in the walk variables, the free coordinates and then the counts, each
    count at most the largest target height in the window over its own
    height.
    The walk carries d mu, its pairings with the simple K roots, its Z' rows
    and the consistency residues as running sums.  The window, dominance and
    consistency conditions are linear, so each variable runs over one
    integer interval, cut by what the later variables can still add; on the
    last one the interval is exact.  Divisibility by d and the Z' character
    have period d * |Z'| along it and are tested once per residue, so every
    (n, w) the walk reaches adds det(w) at its mu.
    """
    eps, terms = _blattner_terms(g, prep)
    hm, fibres, d = prep.hm, g.fibres, g.fibres.d
    ztable, zbase, order = hm.ztable, prep.base[1], hm.ztable.order
    rank = g.k_roots.rank
    # R w mu runs over the window's keys, as w permutes the window's weights
    hv = hm.height_vec
    bound2 = window * sum(map(abs, prep.top)) + max(
        sum(map(mul, hv, shift)) for _, shift in terms)
    betas = [b.coords for b in prep.noncompact]
    heights = [sum(map(mul, hv, b)) for b in betas]
    consistency = fibres.consistency
    residues = [matvec(consistency, b) for b in betas]
    a_betas = [matvec(fibres.a, b) for b in betas]
    # state: d mu, its pairings with the simple K roots and its Z' rows,
    # then the consistency residues
    simples = [s.coords for s in g.k_roots.simples]
    probes = simples + (list(g.zchar_rows) if order > 1 else [])
    zs = slice(rank + len(simples), rank + len(probes))
    # each condition is sign * state[i] >= bound
    conditions = ([(i, s, -d * window) for i in range(rank) for s in (1, -1)]
                  + [(rank + j, 1, 0) for j in range(len(simples))]
                  + [(zs.stop + j, s, 0)
                     for j in range(len(consistency)) for s in (1, -1)])

    def lift(dmu, residue):
        return (*dmu, *matvec(probes, dmu), *residue)

    found: dict[tuple[int, ...], int] = {}
    for w, shift in terms:
        wt = tuple(zip(*w.matrix))
        # (column, lo, hi): no count exceeds the cut over its own height;
        # with no variable at all, a zero column reads the start alone
        variables = ([(lift(matvec(wt, v), (0,) * len(consistency)),
                       -window, window) for v in fibres.dirs]
                     + [(lift(matvec(wt, ab), r), 0, bound2 // h)
                        for ab, h, r in zip(a_betas, heights, residues)]
                     or [((0,) * (zs.stop + len(consistency)), 0, 0)])
        col = variables[-1][0]
        dcol, zcol = col[:rank], col[zs]
        step, det = tuple(order * x for x in dcol), w.det
        start = lift([-x for x in matvec(wt, matvec(fibres.a, shift))],
                     [-x for x in matvec(consistency, shift)])
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
    return [(mu, eps * m) for mu, m in sorted(found.items())]


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
    is checked (lattice of T, check_ktype) and passed on as coordinates."""
    _check_mode(mode)
    prep = _prepare(g, p)
    g.t_lattice.height2(kt.highest)
    check_ktype(g, kt.highest.coords)
    return _evaluate_ktypes(g, prep, mode, [kt.highest.coords])[0]


def _nonzero(rows: Sequence[_Row]) -> list[_Row]:
    for mu, m in rows:
        if m < 0:
            raise ArithmeticError(
                f"negative multiplicity {m} at {mu}; "
                "representation tables must be nonnegative")
    return [(mu, m) for mu, m in rows if m]


def _box(g: RealGroupData, prep: _Prepared, window: int, mode: str
         ) -> list[_Row]:
    """The one path of every table over the window's box: one oracle's
    values scattered through the box's index, the nonzero rows kept."""
    ktypes, index = ktype_box(g, window)
    top2 = window * sum(map(abs, prep.top))
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
    the group data allow it, else partition counts over the box; the series
    oracle checks the few nonzero entries whose keys reach the least height,
    where it is cheapest (ties in lexical order).  Entries are the restricted
    representation itself; the table's sign field records the index sign.
    A caller holding validate_params(g, p) passes it as verdict.
    """
    _check_window(window)
    prep = _prepare(g, p, zero_ok=True, verdict=verdict)
    if prep is None:
        return KTypeTable({}, window, sign_factor(g))
    evaluator = "blattner" if g.blattner_applies else "partition"
    rows = (_nonzero(_blattner_table(g, prep, window)) if g.blattner_applies
            else _box(g, prep, window, "partition"))
    v = prep.top
    spot = sorted(rows, key=lambda r: sum(map(mul, r[0], v)))[:_SPOT_CHECKS]
    series = _evaluate_ktypes(g, prep, "series", [mu for mu, _ in spot])
    for (mu, m), s in zip(spot, series):
        if s != m:
            raise ArithmeticError(
                f"evaluator disagreement at {mu}: "
                f"series {s} vs {evaluator} {m}")
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
    ktype_box keeps every window's restricted K-types."""
    return box_table(g, p, window, "series")
