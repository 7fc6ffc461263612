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
positives and the signed compact-subset offsets.  Evaluation then maps a
batch of restricted K-types to multiplicities, in one of two modes that
stay independent oracles for each other: signed sums of Kostant partition
counts, and coefficients of one truncated series product built per batch.
ktype_multiplicity, ktype_table (partition entries with series spot
checks) and ktype_table_series are thin callers of these two steps.
Tables carry the global sign (-1)^(dim s_M / 2) as metadata; the entries
themselves are the restricted representation and are always nonnegative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .characters import (CutoffError, FormalCharacter, HMCharacter,
                         HMLattice, LatticeError, Weight, dot,
                         geometric_series, graded_exterior, kostant_partition,
                         weight)
from .groups import (GroupDataError, RealGroupData, rho_half_sum, root_sum,
                     simple_roots)
from .ktypes import KType, enumerate_ktypes, restrict_to_hm


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

@dataclass(frozen=True)
class _Prepared:
    """What every K-type shares for one validated parameter tuple: the
    lattice graded by the parameters' positive system, the base character
    lambda - rho_c + rho_n tagged by chi, the positives split by type, and
    ((-1)^|S|, base + sum of S) for every set S of compact positives."""

    hm: HMLattice
    base: HMCharacter
    compact: tuple[Weight, ...]
    noncompact: tuple[Weight, ...]
    offsets: tuple[tuple[int, Weight], ...]


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
    offsets = tuple(((-1) ** r, base + weight(root_sum(sub, rank), lattice))
                    for r in range(len(compact) + 1)
                    for sub in itertools.combinations(compact, r))
    return _Prepared(hm, hm.char(base, p.chi), compact, noncompact, offsets)


def _virtual_character(prep: _Prepared, cutoff: int) -> FormalCharacter:
    acc = FormalCharacter(prep.hm, {prep.base: 1})
    acc = acc * graded_exterior(prep.hm, prep.compact)
    for beta in prep.noncompact:
        acc = acc * geometric_series(prep.hm, beta, cutoff)
    return acc


def _partition_multiplicities(prep: _Prepared,
                              restricted: Sequence[FormalCharacter]
                              ) -> list[int]:
    """Signed Kostant partition counts: every weight of a restricted K-type
    that carries the base's Z' character, less every compact offset."""
    out = []
    for res in restricted:
        total = 0
        for c, m in res.items():
            if c.zchar == prep.base.zchar:
                for sign, offset in prep.offsets:
                    total += sign * m * kostant_partition(
                        c.tweight - offset, prep.noncompact, prep.hm)
        out.append(total)
    return out


def _series_multiplicities(prep: _Prepared,
                           restricted: Sequence[FormalCharacter]
                           ) -> list[int]:
    """Coefficients of one truncated virtual character built for the batch.

    No term of the character lies below the base height h_b, so the
    char_mul certificate of the product is cutoff + floor(h_b / 2); the
    cutoff is the least one whose certificate covers the whole batch.
    FormalCharacter.coefficient raises CutoffError should it fall short.
    """
    h2_base = prep.hm.height2(prep.base.tweight)
    h2_top = max([h2_base] + [prep.hm.height2(c.tweight)
                              for res in restricted for c in res.support()])
    virt = _virtual_character(prep, -(-h2_top // 2) - h2_base // 2)
    return [sum(m * virt.coefficient(c) for c, m in res.items())
            for res in restricted]


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
    """Multiplicity of one K-type, by series or by partition counts.

    Both modes pair the restricted K-type against the virtual character;
    they must agree.
    """
    prep = _prepare(g, p)
    if mode not in _EVALUATORS:
        raise ValueError(f"unknown mode {mode!r}")
    return _EVALUATORS[mode](prep, [restrict_to_hm(g, kt)])[0]


_SPOT_CHECKS = 3


def _table(g: RealGroupData, p: TemperedParams, window: int, mode: str,
           check_mode: Optional[str] = None,
           restrictions: Optional[dict] = None) -> KTypeTable:
    """Validate once, evaluate every K-type of the window in one batch, and
    recompute the first few nonzero entries in check_mode if given."""
    prep = _prepare(g, p, zero_ok=True)
    table = KTypeTable({}, window, sign_factor(g))
    if prep is None:
        return table
    if restrictions is None:
        restrictions = {}
    ktypes = enumerate_ktypes(g, window)
    for kt in ktypes:
        if kt.highest not in restrictions:
            restrictions[kt.highest] = restrict_to_hm(g, kt)
    restricted = [restrictions[kt.highest] for kt in ktypes]
    rows = []
    for kt, res, m in zip(ktypes, restricted,
                          _EVALUATORS[mode](prep, restricted)):
        if m < 0:
            raise ArithmeticError(
                f"negative multiplicity {m} at {kt.highest.coords}; "
                "representation tables must be nonnegative")
        if m:
            table.entries[kt.highest.coords] = m
            rows.append((kt.highest.coords, res, m))

    if check_mode:
        spot = rows[:_SPOT_CHECKS]
        checked = _EVALUATORS[check_mode](prep, [res for _, res, _ in spot])
        for (coords, _, m), s in zip(spot, checked):
            if s != m:
                raise ArithmeticError(f"mode disagreement at {coords}: "
                                      f"{check_mode} {s} vs {mode} {m}")
    return table


def ktype_table(g: RealGroupData, p: TemperedParams, window: int) -> KTypeTable:
    """Multiplicities of every K-type in the window; empty for zero verdicts.

    Partition mode throughout, with series-mode spot checks on a few
    entries.  Entries are the restricted representation itself (sign
    already reconciled); the table's sign field records the index sign.
    """
    return _table(g, p, window, "partition", check_mode="series")


def nu_independence_check(g: RealGroupData, p: TemperedParams,
                          nu1: Weight, nu2: Weight, window: int) -> bool:
    """True iff the table is unchanged when the continuous parameter moves."""
    t1 = ktype_table(g, replace(p, nu=nu1), window)
    t2 = ktype_table(g, replace(p, nu=nu2), window)
    return t1 == t2


def ktype_table_series(g: RealGroupData, p: TemperedParams, window: int,
                       restrictions: Optional[dict] = None) -> KTypeTable:
    """Whole-window table in pure series mode, one shared character build.

    Used to cross-check the partition-mode tables; restrictions may carry
    precomputed restrictions keyed by highest weight, and is filled in.
    """
    return _table(g, p, window, "series", restrictions=restrictions)
