"""Irreducible representations of the maximal compact subgroup.

K-types are the coordinate tuples of their highest weights: enumeration
inside the dominant chamber, exact Weyl dimensions, weight multiplicities by
Kostant's multiplicity formula (summed over the W_K derived at load) and
restriction to the compact Cartan component group H = T_M x Z', as integer
maps {coords: m} and {(coords on T_M, Z' index): m}, after one check of
each tuple (integer entries, rank, dominance).  Restriction works in
batches, one partition_counts table each: restrict_to_hm is the cached
batch of one, and ktype_box the batch of a window, built once per (group,
window) and kept as one inverted index from each H-key to its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import add, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


def _check(g: RealGroupData, hw: tuple[int, ...]) -> tuple[int, ...]:
    """hw, if it is a dominant integer tuple of K's rank; else LatticeError."""
    if (type(hw) is not tuple or len(hw) != g.k_roots.rank
            or not {int}.issuperset(map(type, hw))
            or not is_dominant(hw, [s.coords for s in g.k_roots.simples])):
        raise LatticeError(f"{hw!r} is not a dominant integral weight of "
                           f"rank {g.k_roots.rank}")
    return hw


def enumerate_ktypes(g: RealGroupData, norm_cutoff: int
                     ) -> list[tuple[int, ...]]:
    """The highest weights with max-coordinate norm <= norm_cutoff, in
    lexicographic order, walked inside the dominant chamber: a prefix grows
    only where the later coordinates can still make it dominant."""
    simples, out = [s.coords for s in g.k_roots.simples], [()]
    for j in range(g.k_roots.rank):
        # the most the coordinates after j can add to each pairing
        room = [norm_cutoff * sum(map(abs, s[j + 1:])) for s in simples]
        out = [c + (x,) for c in out for x in range(-norm_cutoff, norm_cutoff + 1)
               if all(sum(map(mul, c + (x,), s)) + r >= 0
                      for s, r in zip(simples, room))]
    return out


def weyl_dimension(g: RealGroupData, hw: tuple[int, ...]) -> int:
    """Product over positive roots of <hw+rho, alpha>/<rho, alpha>, exact:
    with 2 rho the height covector, of <2 hw + 2 rho, alpha>/<2 rho, alpha>."""
    _check(g, hw)
    rho2 = g.t_lattice.height_vec
    pos = [alpha.coords for alpha in g.k_roots.positives]
    return (prod(sum((2 * x + r) * a for x, r, a in zip(hw, rho2, alpha))
                 for alpha in pos)
            // prod(sum(r * a for r, a in zip(rho2, alpha)) for alpha in pos))


def _kostant(g: RealGroupData, hws: Sequence[tuple[int, ...]],
             image: Callable = lambda t: t) -> Iterator[list[tuple]]:
    """Kostant's multiplicity formula on a batch of highest weights: for
    each, the pairs (image(t), m), m the multiplicity of the weight hw - t:

        m(hw - t) = sum_{w in W_K} det(w) * P_K(t + w hw + shift_w - hw),

    P_K the partition count over the positive K roots.  Every weight, and
    every argument of P_K, lies below hw by a cone point no higher than
    hw - w_0 hw: one partition_counts table cut at the batch's highest such
    height serves it, each hw reading its points in order of height.  The
    identity's term is P_K(t); one whose argument has negative height is 0.
    """
    hv = g.t_lattice.height_vec
    images = [[matvec(w.matrix, _check(g, hw)) for w in g.k_weyl]
              for hw in hws]
    tops = [max(sum(map(mul, map(sub, hw, im), hv)) for im in ims)
            for hw, ims in zip(hws, images)]
    counts = partition_counts(g.k_roots.positives, g.t_lattice,
                              max(tops, default=-1))
    points = sorted((sum(map(mul, t, hv)), t, n, image(t))
                    for t, n in counts.items())
    for hw, ims, top in zip(hws, images, tops):
        terms = [(w.det, off, sum(map(mul, off, hv)))
                 for w, im, shift in zip(g.k_weyl, ims, g.k_rho_shifts)
                 for off in [tuple(a + b - c for a, b, c in zip(im, shift, hw))]
                 if any(off)]  # all but the identity
        weights = []
        for h, t, n, im in points:
            if h > top:
                break
            m = n + sum(det * counts.get(tuple(map(add, t, off)), 0)
                        for det, off, h_off in terms if h + h_off >= 0)
            if m < 0:
                raise ArithmeticError(
                    f"Kostant's formula gave multiplicity {m} at {hw} - {t}")
            if m:
                weights.append((im, m))
        yield weights


def weight_multiplicities(g: RealGroupData, hw: tuple[int, ...]
                          ) -> dict[tuple[int, ...], int]:
    """Full weight character of the irreducible with this highest weight,
    as {weight coordinates: multiplicity}, by Kostant's formula."""
    return {tuple(map(sub, hw, t)): m for t, m in next(_kostant(g, [hw]))}


def _restrict(g: RealGroupData, hws: Sequence[tuple[int, ...]]
              ) -> Iterator[dict]:
    """The restriction of each K-type of a batch to H = T_M Z'.  R and the
    Z' rows are linear, so the key of the weight hw - t is (R;Z) hw -
    (R;Z) t, and each cone point t is mapped once per batch."""
    r, z = g.tm_in_t, g.zchar_rows
    order, index_of = g.hm.ztable.order, g.hm.ztable.index_of
    for hw, weights in zip(hws, _kostant(
            g, hws, lambda t: (matvec(r, t), matvec(z, t)))):
        r_hw, z_hw = matvec(r, hw), matvec(z, hw)
        acc: dict = {}
        for (r_t, z_t), m in weights:
            key = (tuple(map(sub, r_hw, r_t)), index_of[
                tuple((a - b) % order for a, b in zip(z_hw, z_t))])
            acc[key] = acc.get(key, 0) + m
        yield acc


@lru_cache(maxsize=65536)
def restrict_to_hm(g: RealGroupData, hw: tuple[int, ...]) -> Mapping:
    """The restriction of a K-type to H = T_M Z', as a read-only map
    {(coordinates on T_M, Z' index): multiplicity}: the batch of one,
    cached per (group, highest-weight tuple); a miss checks the tuple."""
    return MappingProxyType(next(_restrict(g, [hw])))


def key_index(restricted: Iterable[Mapping]) -> dict[tuple, list]:
    """The inverted index of a batch of restricted K-types: each H-key to
    its (row, multiplicity) entries, rows numbered in batch order."""
    index: dict[tuple, list] = {}
    for row, res in enumerate(restricted):
        for key, m in res.items():
            index.setdefault(key, []).append((row, m))
    return index


@lru_cache(maxsize=4)
def ktype_box(g: RealGroupData, window: int) -> tuple[tuple, dict]:
    """The box of a window, built once per (group, window) from one batch:
    its dominant K-types in lexicographic order and the inverted index of
    their restrictions (no restricted map is kept)."""
    ktypes = enumerate_ktypes(g, window)
    return tuple(ktypes), key_index(_restrict(g, ktypes))
