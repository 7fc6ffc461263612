"""Irreducible representations of the maximal compact subgroup.

K-types are the coordinate tuples of their highest weights: enumeration
inside the dominant chamber, and restriction to the compact Cartan
component group H = T_M x Z' of the weights that Kostant's multiplicity
formula (summed over the W_K derived at load) gives.  Kostant's formula reads a
highest weight only through its dot products with the simple K roots, so
restriction runs it once per class of K-types modulo the centre of K,
cached with the class's weights mapped to H, and a K-type's restriction is
that class's translate by its own H-key.
key_index restricts a batch of K-types into one inverted index from each
H-key to its rows; a window's KTypeBox lifts that index one key at a time.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, repeat
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .characters import Weight, partition_counts
from .groups import RealGroupData, matvec


class KType(NamedTuple):
    """Highest weight of an irreducible representation of the compact group."""

    highest: Weight


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
    products with the simple K roots, up to its translate: the pairs (Z'
    rows of t mod |Z'|, {R t: m}) over the cone points t below the highest
    weight, m summed over the t of equal (R t, Z' rows mod |Z'|), all 0
    where |Z'| = 1.
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
    return tuple(groups.items())


def key_index(g: RealGroupData, hws: Iterable[tuple[int, ...]]
              ) -> dict[tuple, list]:
    """The restriction of a batch of distinct dominant integer tuples to
    H = T_M Z', as one inverted index: each H-key to its (K-type, m)
    entries, as a KTypeBox holds them.  R and the Z' rows are linear, so the
    key of the weight hw - t is (R;Z) hw - (R;Z) t: a tuple's keys are its
    class's, translated by its own.  The tuples are not checked again: a
    K-type from outside the engine is checked by ktype_multiplicity."""
    index: dict[tuple, list] = {}
    for hw in hws:
        r_hw, z_hw = matvec(g.tm_in_t, hw), matvec(g.zchar_rows, hw)
        for z_t, acc in _class_keys(g, matvec(g.k_roots.simples, hw)):
            i = g.hm.ztable.index(map(sub, z_hw, z_t))
            for r_t, m in acc.items():
                index.setdefault((tuple(map(sub, r_hw, r_t)), i), []
                                 ).append((hw, m))
    return index


class KTypeBox:
    """The key_index of a window's K-types, rows keyed by K-type, built one
    H-key at a time: get lifts a key on its first read and keeps it if a
    K-type of the window holds it, so a box holds at most its window's keys.
    W_K acts by signed permutations, the integer orthogonal matrices, so the
    K-types of the window that hold a key (c, i) are those at or above the
    dominant conjugate of a T-weight t in the window's cube with R t = c
    (t = (a c + sum_f x_f dirs_f) / d over the fibres' free x_f) and Z' row
    i: its sums with cone points of the positive K roots.  A key with no
    such t reads empty before any cone point is visited."""

    __slots__ = ("_g", "_window", "_cone", "_lifted")

    def __init__(self, g: RealGroupData, window: int):
        self._g, self._window, self._lifted = g, window, {}
        hv = g.t_lattice.height_vec
        top2 = window * sum(map(abs, hv))  # the window's highest doubled height
        # the cone points below it, with the room each leaves, lowest first
        self._cone = sorted([(top2 - sum(map(mul, s, hv)), s) for s in
                             partition_counts(g.k_roots.positives,
                                              g.t_lattice, top2)], reverse=True)

    def get(self, key: tuple, default: tuple = ()) -> tuple:
        """The (K-type, m) entries of the H-key (c, i), K-types in lexical
        order; default if no K-type of the window holds it."""
        rows = self._lifted.get(key)
        if rows is None and (rows := self._lift(key)):  # a key of the window
            self._lifted[key] = rows
        return rows or default

    def _lift(self, key: tuple) -> tuple:
        """The key's entries, each K-type's read off its class's keys."""
        (c, i), g, w = key, self._g, self._window
        f, simples, tops, rows = g.fibres, g.k_roots.simples, set(), {}
        base, cols = matvec(f.a, c), tuple(zip(*f.dirs)) or repeat(())
        for x in product(range(-w, w + 1), repeat=len(f.dirs)):
            t = tuple([(b + sum(map(mul, x, col))) // f.d
                       for b, col in zip(base, cols)])
            if (max(map(abs, t), default=0) <= w and matvec(g.tm_in_t, t) == c
                    and g.zchar(t) == i):
                tops.add(next(u for u in (matvec(v.matrix, t) for v in g.k_weyl)
                              if min(matvec(simples, u), default=0) >= 0))
        for top in tops:
            h = sum(map(mul, top, g.t_lattice.height_vec))
            for room, s in self._cone:
                if room < h:
                    break
                hw = tuple(map(add, top, s))
                if hw in rows or max(map(abs, hw), default=0) > w or min(
                        pairings := matvec(simples, hw), default=0) < 0:
                    continue
                r_t = tuple(map(sub, matvec(g.tm_in_t, hw), c))
                z_hw = matvec(g.zchar_rows, hw)
                rows[hw] = sum([acc.get(r_t, 0) for z_t, acc in _class_keys(
                    g, pairings) if g.hm.ztable.index(map(sub, z_hw, z_t)) == i])
        return tuple(sorted(rows.items()))


ktype_box = lru_cache(maxsize=4)(KTypeBox)  # one box per (group, window)
