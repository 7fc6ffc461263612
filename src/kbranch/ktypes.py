"""Irreducible representations of the maximal compact subgroup.

K-types are the coordinate tuples of their highest weights: enumeration,
exact Weyl dimensions, full weight multiplicities by Kostant's multiplicity
formula (one partition_counts table per K-type, summed over the W_K derived
at load), and restriction to the compact Cartan component group
H = T_M x Z'.  Both are plain integer maps, {coords: m} and
{(coords on T_M, Z' index): m}, built after weight_multiplicities checks
the tuple once (integer entries, rank, dominance); no truncation
certificate is involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Mapping

from .characters import LatticeError, Weight, partition_counts
from .groups import RealGroupData, matvec


@dataclass(frozen=True)
class KType:
    """Highest weight of an irreducible representation of the compact group."""

    highest: Weight


def is_dominant(coords: tuple[int, ...],
                simples: list[tuple[int, ...]]) -> bool:
    """Dominance of an integral weight: its coroot pairings have the signs
    of its integer dot products with the simple roots."""
    return all(sum(x * y for x, y in zip(coords, s)) >= 0 for s in simples)


def _check(g: RealGroupData, hw: tuple[int, ...]) -> None:
    """LatticeError unless hw is a dominant integer tuple of K's rank."""
    if (type(hw) is not tuple or len(hw) != g.k_roots.rank
            or not {int}.issuperset(map(type, hw))
            or not is_dominant(hw, [s.coords for s in g.k_roots.simples])):
        raise LatticeError(f"{hw!r} is not a dominant integral weight of "
                           f"rank {g.k_roots.rank}")


def enumerate_ktypes(g: RealGroupData, norm_cutoff: int
                     ) -> list[tuple[int, ...]]:
    """The highest weights with max-coordinate norm <= norm_cutoff, as
    coordinate tuples in lexicographic order."""
    simples = [s.coords for s in g.k_roots.simples]
    return [coords for coords in itertools.product(
                range(-norm_cutoff, norm_cutoff + 1), repeat=g.k_roots.rank)
            if is_dominant(coords, simples)]


def weyl_dimension(g: RealGroupData, hw: tuple[int, ...]) -> int:
    """Product over positive roots of <hw+rho, alpha>/<rho, alpha>, exact:
    with 2 rho the height covector, of <2 hw + 2 rho, alpha>/<2 rho, alpha>."""
    _check(g, hw)
    rho2 = g.t_lattice.height_vec
    pos = [alpha.coords for alpha in g.k_roots.positives]
    return (prod(sum((2 * x + r) * a for x, r, a in zip(hw, rho2, alpha))
                 for alpha in pos)
            // prod(sum(r * a for r, a in zip(rho2, alpha)) for alpha in pos))


def weight_multiplicities(g: RealGroupData, hw: tuple[int, ...]
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
    _check(g, hw)
    hv = g.t_lattice.height_vec
    images = [matvec(w.matrix, hw) for w in g.k_weyl]
    counts = partition_counts(
        g.k_roots.positives, g.t_lattice,
        max(sum((x - y) * h for x, y, h in zip(hw, image, hv))
            for image in images))
    # P_K's argument at mu = hw - t is t + (w hw + shift_w - hw)
    terms = [(w.det, tuple(a + b - c for a, b, c in zip(image, shift, hw)))
             for w, image, shift in zip(g.k_weyl, images, g.k_rho_shifts)]
    acc: dict[tuple[int, ...], int] = {}
    for t in counts:
        m = sum(det * counts.get(tuple(x + y for x, y in zip(t, off)), 0)
                for det, off in terms)
        if m < 0:
            raise ArithmeticError(
                f"Kostant's formula gave multiplicity {m} at {hw} - {t}")
        if m:
            acc[tuple(a - b for a, b in zip(hw, t))] = m
    return acc


@lru_cache(maxsize=65536)
def restrict_to_hm(g: RealGroupData, hw: tuple[int, ...]
                   ) -> Mapping[tuple[tuple[int, ...], int], int]:
    """Restriction of a K-type to H = T_M Z', as a read-only map
    {(coordinates on T_M, Z' index): multiplicity}: each weight pushed
    through the torus restriction, with the Z' character it induces.

    Cached per (group, highest-weight tuple), the one cache of restricted
    K-types; a miss checks the tuple in weight_multiplicities.
    """
    acc: dict[tuple[tuple[int, ...], int], int] = {}
    for mu, m in weight_multiplicities(g, hw).items():
        key = (matvec(g.tm_in_t, mu), g.zchar(mu))
        acc[key] = acc.get(key, 0) + m
    return MappingProxyType(acc)
