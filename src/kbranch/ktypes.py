"""Irreducible representations of the maximal compact subgroup.

Enumeration of dominant weights, exact Weyl dimensions, full weight
multiplicities by the Freudenthal recursion, and restriction of a K-type
to the compact Cartan component group H = T x Z'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import FormalCharacter, HMCharacter, LatticeError, Weight, dot
from .groups import RealGroupData, rho_half_sum, validate_dominant


@dataclass(frozen=True)
class KType:
    """Highest weight of an irreducible representation of the compact group."""

    highest: Weight


def is_dominant(coords: tuple[int, ...],
                simples: list[tuple[int, ...]]) -> bool:
    """Dominance of an integral weight: its coroot pairings have the signs
    of its integer dot products with the simple roots."""
    return all(sum(x * y for x, y in zip(coords, s)) >= 0 for s in simples)


def enumerate_ktypes(g: RealGroupData, norm_cutoff: int) -> list[KType]:
    """All dominant weights with max-coordinate norm <= norm_cutoff, in
    lexicographic order."""
    simples = [s.coords for s in g.k_roots.simples]
    lattice = g.t_lattice.lattice
    return [KType(Weight(coords, lattice))
            for coords in itertools.product(
                range(-norm_cutoff, norm_cutoff + 1), repeat=g.k_roots.rank)
            if is_dominant(coords, simples)]


def weyl_dimension(g: RealGroupData, kt: KType) -> int:
    """Product over positive roots of <hw+rho, alpha>/<rho, alpha>, exact."""
    pos = g.k_roots.positives
    if not pos:
        return 1
    rho = rho_half_sum(pos)
    top = kt.highest + rho
    dim = Fraction(1)
    for a in pos:
        dim *= dot(top, a) / dot(rho, a)
    if dim.denominator != 1 or dim <= 0:
        raise LatticeError(f"highest weight {kt.highest.coords} is not dominant")
    return int(dim)


def weight_multiplicities(g: RealGroupData, kt: KType) -> FormalCharacter:
    """Full weight character of the irreducible with this highest weight.

    Freudenthal recursion in pure integer arithmetic: with N(mu) denoting
    the integer |2*mu + 2*rho|^2, the recursion reads

        (N(hw) - N(mu)) * m(mu) = 8 * sum_{alpha>0, j>=1}
                                      m(mu + j*alpha) * (mu + j*alpha, alpha).
    """
    rs = g.k_roots
    hw = kt.highest
    if not hw.is_integral() or not validate_dominant(rs, hw):
        raise LatticeError(f"{hw.coords} is not a dominant lattice weight")
    lat = g.t_lattice
    if not rs.positives:
        return FormalCharacter(lat, {lat.char(hw): 1})

    rho2 = lat.height_vec  # twice rho_K

    def nsq(coords):
        v = [2 * c + r for c, r in zip(coords, rho2)]
        return sum(x * x for x in v)

    n_top = nsq(hw.coords)
    simples = rs.simples

    # candidates: hw minus nonnegative simple combinations inside the ball
    # |mu + rho| <= |hw + rho|; every weight of the representation is one
    levels: dict[tuple[int, ...], tuple[int, ...]] = {
        hw.coords: (0,) * len(simples)}
    frontier = [hw.coords]
    while frontier:
        nxt = []
        for cur in frontier:
            ns = levels[cur]
            for si, s in enumerate(simples):
                cand = tuple(a - b for a, b in zip(cur, s.coords))
                if cand in levels or nsq(cand) > n_top:
                    continue
                levels[cand] = tuple(n + (1 if i == si else 0)
                                     for i, n in enumerate(ns))
                nxt.append(cand)
        frontier = nxt

    by_depth = sorted(levels, key=lambda c: (sum(levels[c]), c))
    mult: dict[tuple[int, ...], int] = {hw.coords: 1}
    for coords in by_depth[1:]:
        ns = levels[coords]
        denom = n_top - nsq(coords)
        if denom == 0:
            continue  # on the sphere |mu+rho| = |hw+rho|: never a weight
        s = 0
        for a, acoords in zip(rs.positives, g.k_simple_coords):
            jmax = min(n // c for n, c in zip(ns, acoords) if c > 0)
            cur = coords
            for j in range(1, jmax + 1):
                cur = tuple(x + y for x, y in zip(cur, a.coords))
                m = mult.get(cur, 0)
                if m:
                    s += m * sum(x * y for x, y in zip(cur, a.coords))
        val, rem = divmod(8 * s, denom)
        if rem:
            raise ArithmeticError(
                f"Freudenthal recursion produced a non-integer at {coords}")
        if val:
            mult[coords] = val

    return FormalCharacter(lat, {
        lat.char(Weight(c, lat.lattice)): m for c, m in mult.items()})


@lru_cache(maxsize=65536)
def restrict_to_hm(g: RealGroupData, kt: KType) -> FormalCharacter:
    """Restriction of a K-type to H = T_M Z': push weights through the torus
    restriction and attach the Z'-character each weight induces.

    Cached per (group, K-type), the one cache of restricted K-types; the
    returned character is shared and must be treated as immutable.
    """
    full = weight_multiplicities(g, kt)
    acc: dict[HMCharacter, int] = {}
    for c, m in full.items():
        w = c.tweight
        key = g.hm.char(g.restrict_weight(w), g.zchar_of_t_weight(w))
        acc[key] = acc.get(key, 0) + m
    return FormalCharacter(g.hm, acc)
