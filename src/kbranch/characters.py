"""Exact arithmetic on lattice weights and formal characters of H = T x Z.

Weights are integer (or half-integer) vectors in a fixed lattice basis.
Formal characters are finitely supported integer combinations of characters
of a compact abelian group H = (torus T) x (finite abelian Z), keyed by
(torus coordinates, Z index), possibly truncated to a height window with an
exactness certificate, and read by key or in height order (by_height).
Every Kostant partition count is read from one partition_counts table; no
state outlives a call.  All arithmetic is exact; coefficients are
arbitrary-precision integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, inf
from operator import add, mul
from typing import (Iterable, Iterator, Mapping, NamedTuple, Optional,
                    Sequence)


class LatticeError(ValueError):
    """Mixing weights from different lattices, or wrong rank."""


class ConeError(ValueError):
    """Roots fail the positive-cone condition needed for termination."""


class CutoffError(ValueError):
    """Coefficient query beyond a character's exactness certificate."""


_Key = tuple[tuple[int, ...], int]  # (torus coordinates, Z index)


class _WeightFields(NamedTuple):
    coords: tuple[int, ...]
    lattice: str = "t"
    denom: int = 1


class Weight(_WeightFields):
    """Integer vector in a lattice basis; value is coords/denom.

    denom is 1 or 2: half-integer weights (rho-shifts) live in the doubled
    lattice.  Construct via weight() to keep denom reduced.
    """

    __slots__ = ()

    def __new__(cls, coords, lattice="t", denom=1):
        if type(denom) is not int or denom not in (1, 2):
            raise LatticeError(f"denom must be 1 or 2, got {denom!r}")
        if not {int}.issuperset(map(type, coords)):  # no bools
            raise LatticeError(f"coordinates {coords!r} are not integers")
        return tuple.__new__(cls, (coords, lattice, denom))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_integral(self) -> bool:
        return self.denom == 1

    def _check(self, other: "Weight") -> None:
        if self.lattice != other.lattice:
            raise LatticeError(
                f"lattice mismatch: {self.lattice!r} vs {other.lattice!r}")
        if len(self.coords) != len(other.coords):
            raise LatticeError("rank mismatch")

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        d = self.denom * other.denom // gcd(self.denom, other.denom)
        a, b = d // self.denom, d // other.denom
        return weight(
            tuple(a * x + b * y for x, y in zip(self.coords, other.coords)),
            self.lattice, d)

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-c for c in self.coords), self.lattice, self.denom)

    def __mul__(self, n: int) -> "Weight":
        return weight(tuple(n * c for c in self.coords), self.lattice, self.denom)

    __rmul__ = __mul__


def weight(coords: Iterable[int], lattice: str = "t", denom: int = 1) -> Weight:
    """Build a Weight with the denominator reduced."""
    coords = tuple(coords)
    if denom == 2 and all(c % 2 == 0 for c in coords):
        coords = tuple(c // 2 for c in coords)
        denom = 1
    return Weight(coords, lattice, denom)


def dot(a: Weight, b: Weight) -> Fraction:
    """Exact inner product; coordinates are orthonormal by convention."""
    a._check(b)
    return Fraction(sum(x * y for x, y in zip(a.coords, b.coords)),
                    a.denom * b.denom)


class _ZCharTableFields(NamedTuple):
    order: int
    rows: tuple[tuple[int, ...], ...]


class ZCharTable(_ZCharTableFields):
    """Character table of a finite abelian group, one row per character.

    Row entries are exponents e_j with value exp(2*pi*i*e_j/order) at the
    j-th generator.  Rows form a group under componentwise addition mod
    order; row 0 need not be the trivial character, the identity index is
    looked up.  No __slots__: the cached properties live in __dict__.
    """

    def __new__(cls, order, rows):
        if order < 1:
            raise LatticeError("group order must be >= 1")
        if len(rows) != order:
            raise LatticeError(f"expected {order} characters, got {len(rows)}")
        if len(set(rows)) != len(rows):
            raise LatticeError("duplicate character rows")
        ngen = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ngen:
                raise LatticeError("ragged character table")
            if any(not (0 <= e < order) for e in r):
                raise LatticeError("character exponent out of range")
        return tuple.__new__(cls, (order, rows))

    @cached_property
    def index_of(self) -> dict[tuple[int, ...], int]:
        return {r: i for i, r in enumerate(self.rows)}

    @cached_property
    def identity(self) -> int:
        ngen = len(self.rows[0])
        return self.index_of[(0,) * ngen]

    def mul(self, i: int, j: int) -> int:
        row = tuple((a + b) % self.order
                    for a, b in zip(self.rows[i], self.rows[j]))
        try:
            return self.index_of[row]
        except KeyError:
            raise LatticeError("character table not closed under product")


TRIVIAL_Z = ZCharTable(order=1, rows=((),))


class _HMLatticeFields(NamedTuple):
    rank: int
    lattice: str
    height_vec: tuple[int, ...]
    ztable: ZCharTable = TRIVIAL_Z


class HMLattice(_HMLatticeFields):
    """Shared structure behind a family of formal characters.

    height_vec is the sum of the declared positive roots (an integer
    covector); the height of a weight mu is (mu, height_vec)/2, measured
    with the orthonormal coordinate convention.  All infinite series used
    here are supported in cones on which this height is positive, which is
    what makes truncation certificates sound.
    """

    __slots__ = ()

    def __new__(cls, rank, lattice, height_vec, ztable=TRIVIAL_Z):
        if len(height_vec) != rank:
            raise LatticeError("height covector has wrong rank")
        return tuple.__new__(cls, (rank, lattice, height_vec, ztable))

    @classmethod
    def graded(cls, rank: int, lattice: str, positives: Iterable[Weight],
               ztable: ZCharTable = TRIVIAL_Z) -> "HMLattice":
        """The lattice graded by a positive system: height_vec is the sum of
        its roots, twice its rho."""
        positives = tuple(positives)
        for r in positives:
            if r.lattice != lattice or r.rank != rank or not r.is_integral():
                raise LatticeError(f"{r.coords} is not an integral weight of "
                                   f"lattice {lattice!r} of rank {rank}")
        return cls(rank, lattice, tuple(sum(r.coords[i] for r in positives)
                                        for i in range(rank)), ztable)

    @property
    def rho(self) -> Weight:
        """Half the height covector: the rho of the grading positive system,
        exact in the doubled lattice."""
        return weight(self.height_vec, self.lattice, denom=2)

    def height2(self, w: Weight) -> int:
        """Doubled height (mu, height_vec); integer for integral weights."""
        if w.lattice != self.lattice or w.rank != self.rank:
            raise LatticeError(f"weight not on lattice {self.lattice!r}")
        if not w.is_integral():
            raise LatticeError("characters require integral weights")
        return sum(x * y for x, y in zip(w.coords, self.height_vec))

    def char(self, w: Weight, z: Optional[int] = None) -> _Key:
        """The key of the character e^w of T times the Z character z, by
        default the identity."""
        self.height2(w)  # validates lattice/rank/integrality
        key = w.coords, self.ztable.identity if z is None else z
        self.key_height2(key)
        return key

    def key_height2(self, key: _Key) -> int:
        """Doubled height of a key (coordinates, Z index); LatticeError
        unless it names a character of H."""
        coords, z = key
        if (type(coords) is not tuple or len(coords) != self.rank
                or not {int}.issuperset(map(type, coords))
                or type(z) is not int or not 0 <= z < self.ztable.order):
            raise LatticeError(f"{key!r} is not a character of H")
        return sum(x * y for x, y in zip(coords, self.height_vec))


class FormalCharacter:
    """Finitely supported Z-linear combination of characters of H, keyed
    by (torus coordinates, Z index).

    cutoff=None means the character is exact (finite support).  An integer
    cutoff certifies that every coefficient at height <= cutoff is exact,
    and no terms above the cutoff are stored.
    """

    __slots__ = ("hm", "_terms", "cutoff")

    def __init__(self, hm: HMLattice, terms: Mapping[_Key, int] = (),
                 cutoff: Optional[int] = None):
        if cutoff is not None and type(cutoff) is not int:
            raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
        self.hm = hm
        self.cutoff = cutoff
        clean: dict[_Key, int] = {}
        for key, m in dict(terms).items():
            if type(m) is not int:
                raise ValueError(f"coefficient {m!r} is not an integer")
            if m == 0:
                continue
            h2 = hm.key_height2(key)
            if cutoff is not None and h2 > 2 * cutoff:
                raise CutoffError("stored term above the cutoff certificate")
            clean[key] = m
        self._terms = clean

    @classmethod
    def one(cls, hm: HMLattice) -> "FormalCharacter":
        return cls(hm, {((0,) * hm.rank, hm.ztable.identity): 1})

    @classmethod
    def _trusted(cls, hm: HMLattice, terms: dict[_Key, int],
                 cutoff: Optional[int]) -> "FormalCharacter":
        """A character from terms that are already characters of H, nonzero
        and within the cutoff: built without the constructor's checks."""
        out = cls.__new__(cls)
        out.hm, out._terms, out.cutoff = hm, terms, cutoff
        return out

    def items(self) -> Iterator[tuple[_Key, int]]:
        return iter(sorted(self._terms.items()))

    def by_height(self) -> list[tuple[int, _Key, int]]:
        """(doubled height, key, coefficient) of each term, lowest first."""
        hv = self.hm.height_vec
        return sorted((sum(map(mul, c, hv)), (c, z), m)
                      for (c, z), m in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalCharacter)
                and self.hm == other.hm
                and self._terms == other._terms
                and self.cutoff == other.cutoff)

    def __repr__(self) -> str:
        parts = [f"{m}*e{c}@z{z}" for (c, z), m in self.items()]
        tail = "" if self.cutoff is None else f" (cutoff {self.cutoff})"
        return "FormalCharacter(" + " + ".join(parts or ["0"]) + tail + ")"

    def coefficient(self, at: _Key) -> int:
        """Coefficient at a character; raises CutoffError beyond certificate."""
        top2 = self.hm.key_height2(at)
        if self.cutoff is not None and top2 > 2 * self.cutoff:
            raise CutoffError(f"doubled height {top2} beyond certified cutoff "
                              f"{self.cutoff}")
        return self._terms.get(at, 0)

    def truncate(self, cutoff: int) -> "FormalCharacter":
        """Restrict to height <= cutoff; requires exactness there."""
        if self.cutoff is not None and cutoff > self.cutoff:
            raise CutoffError("cannot extend a certificate by truncation")
        kept = {k: m for k, m in self._terms.items()
                if self.hm.key_height2(k) <= 2 * cutoff}
        return FormalCharacter(self.hm, kept, cutoff)

    def __mul__(self, other: "FormalCharacter") -> "FormalCharacter":
        return char_mul(self, other)


def char_mul(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    """Convolution product with sound cutoff propagation.

    The result certificate H is chosen so that every pair of terms from the
    (possibly infinite) full supports that could land at height <= H was
    retained in the truncated inputs: H = min over truncated factors of
    (factor cutoff + least height of the other factor's support).  A pair
    above H is skipped before it is formed: b's terms go in height order.
    """
    if a.hm != b.hm:
        raise LatticeError("characters live over different lattices")
    hm = a.hm
    if (not a._terms and a.cutoff is None) or (not b._terms and b.cutoff is None):
        return FormalCharacter(hm)

    # each factor's terms, lowest first; the least height of a truncated
    # zero lies above its cutoff
    ga, gb = a.by_height(), b.by_height()
    bounds2 = []
    if a.cutoff is not None:
        bounds2.append(2 * a.cutoff + (gb[0][0] if gb else 2 * b.cutoff + 1))
    if b.cutoff is not None:
        bounds2.append(2 * b.cutoff + (ga[0][0] if ga else 2 * a.cutoff + 1))
    cutoff = min(bounds2) // 2 if bounds2 else None  # floor keeps it sound

    acc: dict[_Key, int] = {}
    zmul = hm.ztable.mul
    for ha, (ca, za), ma in ga:
        room = inf if cutoff is None else 2 * cutoff - ha
        for h, (cb, zb), mb in gb:
            if h > room:
                break
            key = tuple(map(add, ca, cb)), zmul(za, zb)
            acc[key] = acc.get(key, 0) + ma * mb
    # sums of checked keys, within the certificate
    return FormalCharacter._trusted(
        hm, {k: m for k, m in acc.items() if m}, cutoff)


def _step(hm: HMLattice, root: Weight) -> tuple[tuple[int, ...], int]:
    """The coordinates and doubled height of a series factor's root:
    LatticeError unless it is an integral weight of hm, ConeError unless its
    height is positive (a zero root's is not)."""
    h2 = hm.height2(root)
    if h2 <= 0:
        raise ConeError(f"root {root.coords} has nonpositive height; the "
                        "factor is not graded")
    return root.coords, h2


def geometric_series(hm: HMLattice, root: Weight, cutoff: int) -> FormalCharacter:
    """Sum of e^{n*root} over n >= 0 with height(n*root) <= cutoff.  The
    root is checked once (_step); its multiples are keys by construction."""
    if type(cutoff) is not int or cutoff < 0:
        raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")
    step, h2 = _step(hm, root)
    z, terms, point = hm.ztable.identity, {}, (0,) * hm.rank
    for _ in range(2 * cutoff // h2 + 1):
        terms[point, z] = 1
        point = tuple(map(add, point, step))
    return FormalCharacter._trusted(hm, terms, cutoff)


def graded_exterior(hm: HMLattice, weights: Sequence[Weight]) -> FormalCharacter:
    """Signed exterior-algebra character of positive roots: the product of
    (1 - e^{w}), each root checked once (_step)."""
    acc = {((0,) * hm.rank, hm.ztable.identity): 1}
    for w in weights:
        step, _ = _step(hm, w)
        nxt: dict[_Key, int] = {}
        for (c, z), m in acc.items():
            nxt[c, z] = nxt.get((c, z), 0) + m
            shifted = tuple(map(add, c, step)), z
            nxt[shifted] = nxt.get(shifted, 0) - m
        acc = {k: m for k, m in nxt.items() if m != 0}
    return FormalCharacter._trusted(hm, acc, None)


def partition_counts(roots: Sequence[Weight], hm: HMLattice,
                     bound2: int) -> dict[tuple[int, ...], int]:
    """Kostant partition counts of the cone the roots span, cut at a doubled
    height: each point maps to the number of ways it is a nonnegative
    integer sum of the roots (a multiset: repeated roots count apart).

    The roots must be strictly positive for the lattice height (pointed
    cone), so every partial sum of a point within the cut lies within it
    too and the cut loses no partition.  The counts are the coefficients
    of the product of the roots' geometric series up to that height.
    """
    counts = {(0,) * hm.rank: 1} if bound2 >= 0 else {}
    for beta in roots:
        h2 = hm.height2(beta)
        if h2 <= 0:
            raise ConeError(
                f"root {beta.coords} not in the declared positive cone")
        grown: dict[tuple[int, ...], int] = {}
        for pt, n in counts.items():
            pt_h2 = sum(x * y for x, y in zip(pt, hm.height_vec))
            for _ in range((bound2 - pt_h2) // h2 + 1):
                grown[pt] = grown.get(pt, 0) + n
                pt = tuple(x + b for x, b in zip(pt, beta.coords))
        counts = grown
    return counts


def kostant_partition(target: Weight, roots: Sequence[Weight],
                      hm: HMLattice) -> int:
    """Number of ways to write target as a nonnegative sum of the roots:
    its entry in the partition_counts table cut at its own height."""
    if not target.is_integral():
        return 0
    return partition_counts(roots, hm, hm.height2(target)).get(
        target.coords, 0)
