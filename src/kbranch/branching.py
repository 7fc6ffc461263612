"""K-type multiplicities of standard representations.

The engine realises the branching rule

    multiplicity of a K-type  =  dimension of the H-invariants in
    (dual K-type restricted to H) x (inverse exterior series of the
    noncompact Levi roots) x (graded exterior of the compact Levi roots)
    x (line with weight lambda - rho_c + rho_n, tagged by the finite
    component character)

in two steps.  Preparation validates the parameters once and derives
what every K-type shares: the lattice graded by the parameters' positive
system, the base character lambda - rho_c + rho_n, the noncompact
positives and the signed compact-subset offsets.  What the group alone
determines (W_K, rho_K, compactness, the fibres of the torus restriction)
is derived once when the group is loaded, and read here.

ktype_table evaluates Blattner's formula (Hecht-Schmid)

    mult(mu) = eps * sum_{w in W_K} det(w) * P_n(R w(mu + rho_K) - base
                                                  - rho_Phi)

with R the torus restriction, P_n the partition count over the noncompact
positives, rho_Phi the compact half-sum of the parameters' positive system
Phi and eps = det(w_Phi).  It holds when R maps the K roots one-to-one
onto the compact Levi roots and every K root has a trivial Z' character,
and it runs only on the K-types the noncompact cone reaches, so its cost
follows the rows of the table and not the box of K-types.

Two oracles stay independent of it and of each other: signed sums of
Kostant partition counts over the weights of each restricted K-type, and
the coefficients of one truncated series product.  Each takes a batch of
restricted K-types, the integer maps of restrict_to_hm, and works on
coordinate tuples and dict lookups; the series checks its truncation
certificate once, against the batch's highest term.  Every table that
scans the window's box runs one path: the series table, the partition
table of verify and ktype_table on groups outside Blattner's formula.
Tables carry the global sign (-1)^(dim s_M / 2) as metadata; the entries
are the restricted representation and always nonnegative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .characters import (CutoffError, FormalCharacter, HMCharacter,
                         HMLattice, LatticeError, Weight, dot,
                         geometric_series, graded_exterior, partition_counts,
                         weight)
from .groups import (GroupDataError, RealGroupData, WeylElement, matvec,
                     rho_half_sum, root_sum, simple_roots)
from .ktypes import KType, enumerate_ktypes, is_dominant, restrict_to_hm


class InvalidParamsError(ValueError):
    """Parameters failed validation (verdict carried along)."""

    def __init__(self, verdict: "ParamVerdict"):
        self.verdict = verdict
        super().__init__(str(verdict))


@dataclass(frozen=True)
class TemperedParams:
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


@dataclass(frozen=True)
class ParamVerdict:
    verdict: str                 # "nonzero" | "zero" | "invalid"
    reason: Optional[str] = None

    def __str__(self):
        return self.verdict if not self.reason else f"{self.verdict}: {self.reason}"


@dataclass
class KTypeTable:
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

    m_roots = {r.coords for r in g.m_roots.roots}
    rm = {r.coords for r in p.rmplus}
    if len(rm) != len(p.rmplus) or not rm <= m_roots:
        return invalid("positive system contains non-roots or duplicates")
    if 2 * len(rm) != len(m_roots) or rm & {tuple(-c for c in r) for r in rm}:
        return invalid("positive system does not split the roots into halves")

    # a genuine positive system is separated by its own root sum
    two_rho = weight(root_sum(p.rmplus, g.hm.rank), g.hm.lattice)
    for a in p.rmplus:
        if dot(a, two_rho) <= 0:
            return invalid(
                f"chosen positive system is not pointed at {a.coords}")

    for a in p.rmplus:
        if dot(p.lam, a) < 0:
            return invalid(
                f"parameter is not dominant for the root {a.coords}")

    rho = rho_half_sum(p.rmplus, rank=g.hm.rank, lattice=g.hm.lattice)
    shifted = p.lam - rho
    if not shifted.is_integral():
        return invalid("parameter minus rho does not lift to the torus")

    # component character must agree with the shifted parameter on the
    # overlap of the torus with the finite group
    order = g.hm.ztable.order
    for j, gen in enumerate(g.zgens):
        if gen.w is None:
            continue  # generator lies outside the small torus
        val = order * sum(Fraction(c) * x
                          for c, x in zip(shifted.coords, gen.w))
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
    return ParamVerdict("nonzero")



# ------------------------------------------------------------------ engine

def _apply_transpose(mat: Sequence[Sequence[int]], v: Sequence[int],
                     ncols: int) -> tuple[int, ...]:
    return tuple(sum(row[j] * x for row, x in zip(mat, v))
                 for j in range(ncols))


@dataclass(frozen=True)
class _Prepared:
    """What every K-type shares for one validated parameter tuple: the
    lattice graded by the parameters' positive system, the base character
    lambda - rho_c + rho_n tagged by chi, the positives split by type, and
    ((-1)^|S|, base + sum of S as coordinates) for every compact subset S."""

    hm: HMLattice
    base: HMCharacter
    compact: tuple[Weight, ...]
    noncompact: tuple[Weight, ...]
    offsets: tuple[tuple[int, tuple[int, ...]], ...]


def _prepare(g: RealGroupData, p: TemperedParams,
             zero_ok: bool = False) -> Optional[_Prepared]:
    """Validate once and derive the shared data.  Raises InvalidParamsError
    unless the verdict is nonzero; with zero_ok a zero verdict gives None.

    Heights are measured against the parameters' own positive system, which
    need not be the one declared in the group file: the infinite series
    live in the cone it spans.
    """
    verdict = validate_params(g, p)
    if verdict.verdict == "zero" and zero_ok:
        return None
    if verdict.verdict != "nonzero":
        raise InvalidParamsError(verdict)
    rank, lattice = g.hm.rank, g.hm.lattice
    hm = HMLattice(rank, lattice, root_sum(p.rmplus, rank), g.hm.ztable)
    compact = tuple(g.compact_positives(p.rmplus))
    noncompact = tuple(g.noncompact_positives(p.rmplus))
    base = (p.lam - rho_half_sum(compact, rank=rank, lattice=lattice)
            + rho_half_sum(noncompact, rank=rank, lattice=lattice))
    if not base.is_integral():
        raise LatticeError("shifted parameter is not a lattice weight")
    offsets = tuple(((-1) ** r, root_sum((base, *sub), rank))
                    for r in range(len(compact) + 1)
                    for sub in itertools.combinations(compact, r))
    return _Prepared(hm, hm.char(base, p.chi), compact, noncompact, offsets)


def _virtual_character(prep: _Prepared, cutoff: int) -> FormalCharacter:
    acc = FormalCharacter(prep.hm, {prep.base: 1})
    acc = acc * graded_exterior(prep.hm, prep.compact)
    for beta in prep.noncompact:
        acc = acc * geometric_series(prep.hm, beta, cutoff)
    return acc


_Restricted = Mapping[tuple[tuple[int, ...], int], int]  # of restrict_to_hm


def _partition_multiplicities(prep: _Prepared,
                              restricted: Sequence[_Restricted]) -> list[int]:
    """Signed Kostant partition counts: every weight of a restricted K-type
    that carries the base's Z' character, less every compact offset, read
    from one partition_counts table cut at the batch's highest target."""
    hv = prep.hm.height_vec
    terms = [[(sign * m, tuple(x - y for x, y in zip(coords, offset)))
              for (coords, z), m in res.items() if z == prep.base.zchar
              for sign, offset in prep.offsets]
             for res in restricted]
    counts = partition_counts(prep.noncompact, prep.hm, max(
        (sum(x * y for x, y in zip(t, hv)) for ts in terms for _, t in ts),
        default=-1))
    return [sum(s * counts.get(t, 0) for s, t in ts) for ts in terms]


def _series_multiplicities(prep: _Prepared,
                           restricted: Sequence[_Restricted]) -> list[int]:
    """Coefficients of one truncated virtual character built for the batch.

    No term of it lies below the base height h_b, so its char_mul
    certificate is at least cutoff + floor(h_b / 2).  The least cutoff that
    covers the batch's highest term is checked once against the certificate
    (CutoffError should it fall short); then coefficients are read by key.
    """
    hv = prep.hm.height_vec
    h2_base = prep.hm.height2(prep.base.tweight)
    h2_top = max([h2_base] + [sum(x * y for x, y in zip(coords, hv))
                              for res in restricted for coords, _ in res])
    virt = _virtual_character(prep, -(-h2_top // 2) - h2_base // 2)
    coeff = {(c.tweight.coords, c.zchar): m
             for c, m in virt.coefficients(h2_top).items()}
    return [sum(m * coeff.get(key, 0) for key, m in res.items())
            for res in restricted]


def _blattner_terms(g: RealGroupData, prep: _Prepared
                    ) -> tuple[int, list[tuple[WeylElement, tuple[int, ...]]]]:
    """Blattner's formula for one parameter tuple, as eps = det(w_Phi) and
    terms (w, shift_w) with shift_w = R(w rho_K - w_Phi rho_K) - base, an
    integer vector read from the load-time shifts w rho_K - rho_K:

        mult(mu) = eps * sum_w det(w) * P_n(R w mu + shift_w).

    R maps the K roots one-to-one onto the compact Levi roots, so w_Phi is
    the w whose positive K roots R maps onto Phi's compact positives.
    """
    target = {c.coords for c in prep.compact}
    w_phi, phi_shift = next(
        ((w, s) for w, s in zip(g.k_weyl, g.k_rho_shifts)
         if {matvec(g.tm_in_t, matvec(w.matrix, a.coords))
             for a in g.k_roots.positives} == target), (None, None))
    if w_phi is None:
        raise ArithmeticError("no w in W_K takes the positive K roots onto "
                              "the compact positives")
    base = prep.base.tweight.coords
    return w_phi.det, [
        (w, tuple(a - b for a, b in zip(
            matvec(g.tm_in_t, [x - y for x, y in zip(s, phi_shift)]), base)))
        for w, s in zip(g.k_weyl, g.k_rho_shifts)]


def _blattner_table(g: RealGroupData, prep: _Prepared, window: int
                    ) -> list[tuple[KType, int]]:
    """The K-types of the window that Blattner's formula can make nonzero,
    in lexical order, with their multiplicities.

    P_n vanishes off the noncompact cone, so mu can be nonzero only if some
    target R w mu + shift_w is a cone point t; then w mu is a solution x of
    R x = t - shift_w.  The cone points are cut at the largest target height
    in the window, and since w is a signed permutation, |x| and |mu| share
    the max-norm bound.  Each (mu, w) found this way contributes
    det(w) P_n(t); every other term vanishes.
    """
    eps, terms = _blattner_terms(g, prep)
    hm = prep.hm
    rank, lattice = g.k_roots.rank, g.t_lattice.lattice
    simples = [s.coords for s in g.k_roots.simples]
    # (R w mu, h) = (mu, w^T R^T h), and |w^T v|_1 = |v|_1
    rt_h = _apply_transpose(g.tm_in_t, hm.height_vec, rank)
    bound2 = window * sum(map(abs, rt_h)) + max(
        sum(a * b for a, b in zip(hm.height_vec, shift))
        for _, shift in terms)
    points = partition_counts(prep.noncompact, hm, bound2)
    found: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for w, shift in terms:
        for t in points:
            b = [x - y for x, y in zip(t, shift)]
            for x in g.fibres.solutions(b, window):
                mu = _apply_transpose(w.matrix, x, rank)
                if (max(map(abs, mu), default=0) <= window
                        and is_dominant(mu, simples)
                        and g.zchar(mu) == prep.base.zchar):
                    found.setdefault(mu, []).append((w.det, t))
    return [(KType(Weight(mu, lattice)),
             eps * sum(det * points[t] for det, t in found[mu]))
            for mu in sorted(found)]


_EVALUATORS = {"partition": _partition_multiplicities,
               "series": _series_multiplicities}


def hm_virtual_character(g: RealGroupData, p: TemperedParams,
                         cutoff: int) -> FormalCharacter:
    """The virtual character paired against K-types, truncated at a height.

    Product of: geometric series over the noncompact positive roots, the
    graded exterior algebra over the compact positive roots, and the single
    shifted-parameter term carrying the component character.  Heights are
    measured against the parameters' positive system.
    """
    prep = _prepare(g, p)
    if prep.hm.height2(prep.base.tweight) > 2 * cutoff:
        raise CutoffError("cutoff too small to contain the base weight")
    return _virtual_character(prep, cutoff)


def ktype_multiplicity(g: RealGroupData, p: TemperedParams, kt: KType,
                       mode: str = "partition") -> int:
    """Multiplicity of one K-type by one oracle, "series" or "partition";
    the two must agree."""
    prep = _prepare(g, p)
    if mode not in _EVALUATORS:
        raise ValueError(f"unknown mode {mode!r}")
    return _EVALUATORS[mode](prep, [restrict_to_hm(g, kt)])[0]


def _nonzero(rows: Sequence[tuple[KType, int]]) -> list[tuple[KType, int]]:
    for kt, m in rows:
        if m < 0:
            raise ArithmeticError(
                f"negative multiplicity {m} at {kt.highest.coords}; "
                "representation tables must be nonnegative")
    return [(kt, m) for kt, m in rows if m]


def _box(g: RealGroupData, prep: _Prepared, window: int, evaluate
         ) -> list[tuple[KType, int]]:
    """The one path of every table that scans the window's box: enumerate
    its K-types, restrict each, evaluate them as one batch, keep the
    nonzero rows."""
    ktypes = enumerate_ktypes(g, window)
    mults = evaluate(prep, [restrict_to_hm(g, kt) for kt in ktypes])
    return _nonzero(list(zip(ktypes, mults)))


def box_table(g: RealGroupData, p: TemperedParams, window: int,
              mode: str) -> KTypeTable:
    """One oracle, "series" or "partition", over the window's box; empty
    for zero verdicts."""
    prep = _prepare(g, p, zero_ok=True)
    rows = [] if prep is None else _box(g, prep, window, _EVALUATORS[mode])
    return KTypeTable({kt.highest.coords: m for kt, m in rows}, window,
                      sign_factor(g))


_SPOT_CHECKS = 3


def ktype_table(g: RealGroupData, p: TemperedParams, window: int) -> KTypeTable:
    """Multiplicities of every K-type in the window; empty for zero verdicts.

    Blattner's formula over the K-types the noncompact cone reaches where
    the group data allow it, else partition counts over the box; the series
    oracle checks the first few nonzero entries.  Entries are the restricted
    representation itself; the table's sign field records the index sign.
    """
    prep = _prepare(g, p, zero_ok=True)
    if prep is None:
        return KTypeTable({}, window, sign_factor(g))
    evaluator = "blattner" if g.blattner_applies else "partition"
    rows = (_nonzero(_blattner_table(g, prep, window)) if g.blattner_applies
            else _box(g, prep, window, _partition_multiplicities))
    spot = rows[:_SPOT_CHECKS]
    series = _series_multiplicities(
        prep, [restrict_to_hm(g, kt) for kt, _ in spot])
    for (kt, m), s in zip(spot, series):
        if s != m:
            raise ArithmeticError(
                f"evaluator disagreement at {kt.highest.coords}: "
                f"series {s} vs {evaluator} {m}")
    return KTypeTable({kt.highest.coords: m for kt, m in rows}, window,
                      sign_factor(g))


def nu_independence_check(g: RealGroupData, p: TemperedParams,
                          nu1: Weight, nu2: Weight, window: int) -> bool:
    """True iff the table is unchanged when the continuous parameter moves."""
    t1 = ktype_table(g, replace(p, nu=nu1), window)
    t2 = ktype_table(g, replace(p, nu=nu2), window)
    return t1 == t2


def ktype_table_series(g: RealGroupData, p: TemperedParams, window: int,
                       restrictions: Optional[dict] = None) -> KTypeTable:
    """The series oracle's box table; restrictions is not used, as
    restrict_to_hm caches every restricted K-type."""
    return box_table(g, p, window, "series")
