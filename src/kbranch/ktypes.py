"""Irreducible representations of the maximal compact subgroup.

Enumeration of dominant weights, exact Weyl dimensions, full weight
multiplicities by Kostant's multiplicity formula (one partition_counts
table per K-type, summed over the W_K derived at load), and restriction of
a K-type to the compact Cartan component group H = T_M x Z'.  Both are
plain integer maps, {coords: m} and {(coords on T_M, Z' index): m}, built
after weight_multiplicities checks the K-type once (lattice, rank,
integrality, dominance); no truncation certificate is involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .characters import LatticeError, Weight, dot, partition_counts
from .groups import RealGroupData, matvec, rho_half_sum


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


def weight_multiplicities(g: RealGroupData, kt: KType
                          ) -> dict[tuple[int, ...], int]:
    """Full weight character of the irreducible with this highest weight,
    as {weight coordinates: multiplicity}.

    Kostant's multiplicity formula, with P_K the partition count over the
    positive K roots and w(hw + rho_K) - rho_K = w hw + (w rho_K - rho_K):

        m(mu) = sum_{w in W_K} det(w) * P_K(w(hw + rho_K) - rho_K - mu).

    Every weight lies below hw by a cone point no higher than hw - w_0 hw,
    and so does every argument of P_K, so one partition_counts table cut
    there covers them all; each of its points t gives the candidate
    mu = hw - t.
    """
    lat = g.t_lattice
    hw = kt.highest
    h2 = lat.height2(hw)  # LatticeError off the lattice or non-integral
    if not is_dominant(hw.coords, [s.coords for s in g.k_roots.simples]):
        raise LatticeError(f"{hw.coords} is not a dominant lattice weight")
    images = [w.apply(hw) for w in g.k_weyl]
    counts = partition_counts(g.k_roots.positives, lat,
                              h2 - min(map(lat.height2, images)))
    # P_K's argument at mu = hw - t is t + (w hw + shift_w - hw)
    terms = [(w.det, tuple(a + b - c for a, b, c in
                           zip(image.coords, shift, hw.coords)))
             for w, image, shift in zip(g.k_weyl, images, g.k_rho_shifts)]
    acc: dict[tuple[int, ...], int] = {}
    for t in counts:
        m = sum(det * counts.get(tuple(x + y for x, y in zip(t, off)), 0)
                for det, off in terms)
        if m < 0:
            raise ArithmeticError(
                f"Kostant's formula gave multiplicity {m} at {hw.coords} - {t}")
        if m:
            acc[tuple(a - b for a, b in zip(hw.coords, t))] = m
    return acc


@lru_cache(maxsize=65536)
def restrict_to_hm(g: RealGroupData, kt: KType
                   ) -> Mapping[tuple[tuple[int, ...], int], int]:
    """Restriction of a K-type to H = T_M Z', as a read-only map
    {(coordinates on T_M, Z' index): multiplicity}: each weight pushed
    through the torus restriction, with the Z' character it induces.

    Cached per (group, K-type), the one cache of restricted K-types.
    """
    acc: dict[tuple[tuple[int, ...], int], int] = {}
    for mu, m in weight_multiplicities(g, kt).items():
        key = (matvec(g.tm_in_t, mu), g.zchar(mu))
        acc[key] = acc.get(key, 0) + m
    return MappingProxyType(acc)
