"""Irreducible representations of the maximal compact subgroup.

K-types are the coordinate tuples of their highest weights: enumeration
inside the dominant chamber, the check of a tuple from outside (integer
entries, rank, dominance), and restriction to the compact Cartan component
group H = T_M x Z' of the weights that Kostant's multiplicity formula
(summed over the W_K derived at load) gives.  Kostant's formula reads a
highest weight only through its dot products with the simple K roots, so
restriction runs it once per class of K-types modulo the centre of K,
cached with the class's weights mapped to H, and a K-type's restriction is
that class's translate by its own H-key.
key_index restricts a batch of K-types into one inverted index from each
H-key to its rows; ktype_box keeps the window's, once per (group, window).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .characters import LatticeError, Weight, partition_counts
from .groups import RealGroupData, matvec


class KType(NamedTuple):
    """Highest weight of an irreducible representation of the compact group."""

    highest: Weight


def check_ktype(g: RealGroupData, hw: tuple[int, ...]) -> None:
    """LatticeError unless hw is a dominant integer tuple of K's rank."""
    if not (type(hw) is tuple and len(hw) == g.k_roots.rank
            and {int}.issuperset(map(type, hw))
            and all(sum(map(mul, hw, s)) >= 0 for s in g.k_roots.simples)):
        raise LatticeError(f"{hw!r} is not a dominant integral weight of "
                           f"rank {g.k_roots.rank}")


def enumerate_ktypes(g: RealGroupData, norm_cutoff: int
                     ) -> list[tuple[int, ...]]:
    """The highest weights with max-coordinate norm <= norm_cutoff, in
    lexicographic order, walked inside the dominant chamber: a prefix grows
    only where the later coordinates can still make it dominant."""
    simples, out = g.k_roots.simples, [()]
    for j in range(g.k_roots.rank):
        # the most the coordinates after j can add to each pairing
        room = [norm_cutoff * sum(map(abs, s[j + 1:])) for s in simples]
        out = [c + (x,) for c in out for x in range(-norm_cutoff, norm_cutoff + 1)
               if all(sum(map(mul, c + (x,), s)) + r >= 0
                      for s, r in zip(simples, room))]
    return out


def _kostant(g: RealGroupData, x: Sequence[int], d: int = 1
             ) -> list[tuple]:
    """Kostant's multiplicity formula for a highest weight hw: the pairs
    (t, m), m the multiplicity of the weight hw - t,

        m(hw - t) = sum_{w in W_K} det(w) * P_K(t + shift_w - (I - w) hw),

    P_K the partition count over the positive K roots.  W_K fixes what is
    orthogonal to the K roots, so (I - w) hw = (I - w) x / d for any integer
    x with d times hw's dot products with the simple roots.  Every weight,
    and every argument of P_K, lies below hw by a cone point no higher than
    (I - w_0) hw: one partition_counts table cut there serves them all.  The
    identity's term is P_K(t); one whose argument has negative height is 0.
    """
    hv = g.t_lattice.height_vec
    drops = [(w, [(a - b) // d for a, b in zip(x, matvec(w.matrix, x))])
             for w in g.k_weyl]
    counts = partition_counts(g.k_roots.positives, g.t_lattice,
                              max([sum(map(mul, dr, hv)) for _, dr in drops]))
    terms = [(w.det, off, sum(map(mul, off, hv)))
             for w, dr in drops for off in [tuple(map(sub, w.rho_shift, dr))]
             if any(off)]  # all but the identity
    weights = []
    for t, m in counts.items():
        h = sum(map(mul, t, hv))
        for det, off, h_off in terms:
            if h + h_off >= 0:
                m += det * counts.get(tuple(map(add, t, off)), 0)
        if m < 0:
            raise ArithmeticError(
                f"Kostant's formula gave multiplicity {m} at {x}/{d} - {t}")
        if m:
            weights.append((t, m))
    return weights


@lru_cache(maxsize=1024)
def _class_keys(g: RealGroupData, pairings: tuple[int, ...]) -> tuple:
    """The restriction to H = T_M Z' of the class of K-types with these dot
    products with the simple K roots, up to its translate: the triples (Z'
    rows of t mod |Z'|, (R t, ...), (m, ...)) over the cone points t below
    the highest weight, m summed over the t of equal (R t, Z' rows mod |Z'|),
    all 0 where |Z'| = 1.
    Kostant's formula runs once, on d x = a p, x the point with these
    pairings p whose free coordinates are 0, read through the fibres of the
    simple K roots, g.k_pairings."""
    dx = matvec(g.k_pairings.a, pairings)
    r, z, order = g.tm_in_t, g.zchar_rows, g.hm.ztable.order
    zero, groups = (0,) * len(z), {}
    for t, m in _kostant(g, dx, g.k_pairings.d):
        acc = groups.setdefault(zero if order == 1 else tuple(
            [e % order for e in matvec(z, t)]), {})
        r_t = matvec(r, t)
        acc[r_t] = acc.get(r_t, 0) + m
    return tuple((z_t, tuple(acc), tuple(acc.values()))
                 for z_t, acc in groups.items())


def _translate(g: RealGroupData, hw: tuple[int, ...],
               pairings: tuple[int, ...]) -> list[tuple]:
    """The restriction of the K-type hw, with these dot products with the
    simple K roots, to H = T_M Z': for each Z' class of its class's keys,
    the pair of the list of their translates and the tuple of their
    multiplicities.  R and the Z' rows are linear, so the key of the weight
    hw - t is (R;Z) hw - (R;Z) t: the translate of its class's keys by hw's
    own, distinct for distinct (R t, Z' rows of t mod |Z'|)."""
    index = g.hm.ztable.index
    r_hw, z_hw = matvec(g.tm_in_t, hw), matvec(g.zchar_rows, hw)
    return [([(tuple(map(sub, r_hw, r_t)), i) for r_t in r_ts], ms)
            for z_t, r_ts, ms in _class_keys(g, pairings)
            for i in [index(map(sub, z_hw, z_t))]]


def key_index(g: RealGroupData, hws: Iterable[tuple[int, ...]]
              ) -> dict[tuple, list]:
    """The restriction of a batch of dominant integer tuples to H = T_M Z',
    as one inverted index: each H-key to its (row, multiplicity) entries,
    rows numbered in batch order, filled as each tuple's keys are
    translated.  The tuples are not checked again: a K-type from outside the
    engine passes check_ktype first."""
    simples = g.k_roots.simples
    index: dict[tuple, list] = {}
    for row, hw in enumerate(hws):
        pairings = tuple([sum(map(mul, hw, s)) for s in simples])
        for keys, ms in _translate(g, hw, pairings):
            for key, m in zip(keys, ms):
                index.setdefault(key, []).append((row, m))
    return index


@lru_cache(maxsize=4)
def ktype_box(g: RealGroupData, window: int) -> tuple[tuple, Mapping]:
    """The box of a window, built once per (group, window): its dominant
    K-types in lexicographic order and their key_index, read-only with
    tuple entries, as every later call shares it."""
    ktypes = tuple(enumerate_ktypes(g, window))
    return ktypes, MappingProxyType(
        {key: tuple(rows) for key, rows in key_index(g, ktypes).items()})
