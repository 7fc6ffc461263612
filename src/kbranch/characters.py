"""Exact arithmetic on lattice weights and formal characters of H = T x Z.

Weights are integer (or half-integer) vectors in a fixed lattice basis.
Formal characters are finitely supported integer combinations of characters
of a compact abelian group H = (torus T) x (finite abelian Z), possibly
truncated to a height window with an exactness certificate, which a batch
of queries checks once (coefficients) before reading coefficients by key.
Every Kostant partition count is read from one partition_counts table; no
state outlives a call.  All arithmetic is exact; coefficients are
arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class LatticeError(ValueError):
    """Mixing weights from different lattices, or wrong rank."""


class ConeError(ValueError):
    """Roots fail the positive-cone condition needed for termination."""


class CutoffError(ValueError):
    """Coefficient query beyond a character's exactness certificate."""


@dataclass(frozen=True)
class Weight:
    """Integer vector in a lattice basis; value is coords/denom.

    denom is 1 or 2: half-integer weights (rho-shifts) live in the doubled
    lattice.  Construct via weight() to keep denom reduced.
    """

    coords: tuple[int, ...]
    lattice: str = "t"
    denom: int = 1

    def __post_init__(self):
        if self.denom not in (1, 2):
            raise LatticeError(f"denom must be 1 or 2, got {self.denom}")

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_integral(self) -> bool:
        return self.denom == 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

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
    coords = tuple(int(c) for c in coords)
    if denom == 2 and all(c % 2 == 0 for c in coords):
        coords = tuple(c // 2 for c in coords)
        denom = 1
    return Weight(coords, lattice, denom)


def dot(a: Weight, b: Weight) -> Fraction:
    """Exact inner product; coordinates are orthonormal by convention."""
    a._check(b)
    return Fraction(sum(x * y for x, y in zip(a.coords, b.coords)),
                    a.denom * b.denom)


def pairing(mu: Weight, alpha: Weight) -> Fraction:
    """Coroot pairing <mu, alpha^vee> = 2(mu, alpha)/(alpha, alpha)."""
    nn = dot(alpha, alpha)
    if nn == 0:
        raise ConeError("zero root has no coroot")
    return 2 * dot(mu, alpha) / nn


@dataclass(frozen=True)
class ZCharTable:
    """Character table of a finite abelian group, one row per character.

    Row entries are exponents e_j with value exp(2*pi*i*e_j/order) at the
    j-th generator.  Rows form a group under componentwise addition mod
    order; row 0 need not be the trivial character, the identity index is
    looked up.
    """

    order: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise LatticeError("group order must be >= 1")
        if len(self.rows) != self.order:
            raise LatticeError(
                f"expected {self.order} characters, got {len(self.rows)}")
        if len(set(self.rows)) != len(self.rows):
            raise LatticeError("duplicate character rows")
        ngen = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != ngen:
                raise LatticeError("ragged character table")
            if any(not (0 <= e < self.order) for e in r):
                raise LatticeError("character exponent out of range")

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


@dataclass(frozen=True)
class HMLattice:
    """Shared structure behind a family of formal characters.

    height_vec is the sum of the declared positive roots (an integer
    covector); the height of a weight mu is (mu, height_vec)/2, measured
    with the orthonormal coordinate convention.  All infinite series used
    here are supported in cones on which this height is positive, which is
    what makes truncation certificates sound.
    """

    rank: int
    lattice: str
    height_vec: tuple[int, ...]
    ztable: ZCharTable = TRIVIAL_Z

    def __post_init__(self):
        if len(self.height_vec) != self.rank:
            raise LatticeError("height covector has wrong rank")

    def height2(self, w: Weight) -> int:
        """Doubled height (mu, height_vec); integer for integral weights."""
        if w.lattice != self.lattice or w.rank != self.rank:
            raise LatticeError(f"weight not on lattice {self.lattice!r}")
        if not w.is_integral():
            raise LatticeError("characters require integral weights")
        return sum(x * y for x, y in zip(w.coords, self.height_vec))

    def char(self, tweight: Weight, zchar: int = -1) -> "HMCharacter":
        if zchar == -1:
            zchar = self.ztable.identity
        self.height2(tweight)  # validates lattice/rank/integrality
        if not (0 <= zchar < len(self.ztable.rows)):
            raise LatticeError(f"no character with index {zchar}")
        return HMCharacter(tweight, zchar)

    def zero_weight(self) -> Weight:
        return Weight((0,) * self.rank, self.lattice)


@dataclass(frozen=True)
class HMCharacter:
    """A character of H = T x Z: a torus weight plus a Z-character index."""

    tweight: Weight
    zchar: int


class FormalCharacter:
    """Finitely supported Z-linear combination of HMCharacters.

    cutoff=None means the character is exact (finite support).  An integer
    cutoff certifies that every coefficient at height <= cutoff is exact,
    and no terms above the cutoff are stored.
    """

    __slots__ = ("hm", "_terms", "cutoff")

    def __init__(self, hm: HMLattice,
                 terms: Mapping[HMCharacter, int] = (),
                 cutoff: Optional[int] = None):
        self.hm = hm
        self.cutoff = cutoff
        clean: dict[HMCharacter, int] = {}
        for c, m in dict(terms).items():
            if m == 0:
                continue
            h2 = hm.height2(c.tweight)  # validates lattice/rank/integrality
            if cutoff is not None and h2 > 2 * cutoff:
                raise CutoffError("stored term above the cutoff certificate")
            clean[c] = int(m)
        self._terms = clean

    @classmethod
    def one(cls, hm: HMLattice) -> "FormalCharacter":
        return cls(hm, {hm.char(hm.zero_weight()): 1})

    def items(self) -> Iterator[tuple[HMCharacter, int]]:
        return iter(sorted(
            self._terms.items(),
            key=lambda kv: (kv[0].tweight.coords, kv[0].zchar)))

    def support(self) -> list[HMCharacter]:
        return [c for c, _ in self.items()]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalCharacter)
                and self.hm == other.hm
                and self._terms == other._terms
                and self.cutoff == other.cutoff)

    def __repr__(self) -> str:
        parts = [f"{m}*e{c.tweight.coords}@z{c.zchar}" for c, m in self.items()]
        tail = "" if self.cutoff is None else f" (cutoff {self.cutoff})"
        return "FormalCharacter(" + " + ".join(parts or ["0"]) + tail + ")"

    def coefficients(self, top2: int) -> Mapping[HMCharacter, int]:
        """Read-only coefficients by key, exact up to the doubled height
        top2; raises CutoffError beyond the certificate."""
        if self.cutoff is not None and top2 > 2 * self.cutoff:
            raise CutoffError(f"doubled height {top2} beyond certified cutoff "
                              f"{self.cutoff}")
        return MappingProxyType(self._terms)

    def coefficient(self, at: HMCharacter) -> int:
        """Coefficient at a character; raises CutoffError beyond certificate."""
        return self.coefficients(self.hm.height2(at.tweight)).get(at, 0)

    def truncate(self, cutoff: int) -> "FormalCharacter":
        """Restrict to height <= cutoff; requires exactness there."""
        if self.cutoff is not None and cutoff > self.cutoff:
            raise CutoffError("cannot extend a certificate by truncation")
        kept = {c: m for c, m in self._terms.items()
                if self.hm.height2(c.tweight) <= 2 * cutoff}
        return FormalCharacter(self.hm, kept, cutoff)

    def _min_height2(self) -> Optional[int]:
        """Lower bound for the doubled height of the full support."""
        if self._terms:
            return min(self.hm.height2(c.tweight) for c in self._terms)
        if self.cutoff is not None:
            # certified zero up to the cutoff: support, if any, is above it
            return 2 * self.cutoff + 1
        return None  # exactly zero

    def __mul__(self, other: "FormalCharacter") -> "FormalCharacter":
        return char_mul(self, other)


def char_mul(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    """Convolution product with sound cutoff propagation.

    The result certificate H is chosen so that every pair of terms from the
    (possibly infinite) full supports that could land at height <= H was
    retained in the truncated inputs: H = min over truncated factors of
    (factor cutoff + least height of the other factor's support).
    """
    if a.hm != b.hm:
        raise LatticeError("characters live over different lattices")
    hm = a.hm
    if (not a._terms and a.cutoff is None) or (not b._terms and b.cutoff is None):
        return FormalCharacter(hm)

    bounds2 = []
    if a.cutoff is not None:
        bounds2.append(2 * a.cutoff + b._min_height2())
    if b.cutoff is not None:
        bounds2.append(2 * b.cutoff + a._min_height2())

    acc: dict[HMCharacter, int] = {}
    zt = hm.ztable
    for ca, ma in a._terms.items():
        for cb, mb in b._terms.items():
            key = HMCharacter(ca.tweight + cb.tweight, zt.mul(ca.zchar, cb.zchar))
            acc[key] = acc.get(key, 0) + ma * mb

    if not bounds2:
        return FormalCharacter(hm, acc)
    cutoff = min(bounds2) // 2  # floor keeps the certificate sound
    kept = {c: m for c, m in acc.items() if hm.height2(c.tweight) <= 2 * cutoff}
    return FormalCharacter(hm, kept, cutoff)


def geometric_series(hm: HMLattice, root: Weight, cutoff: int) -> FormalCharacter:
    """Sum of e^{n*root} over n >= 0 with height(n*root) <= cutoff."""
    if root.is_zero():
        raise ConeError("geometric series of the zero root")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    h2 = hm.height2(root)
    if h2 <= 0:
        raise ConeError("root has nonpositive height; series is not graded")
    terms = {}
    n = 0
    while n * h2 <= 2 * cutoff:
        terms[hm.char(n * root)] = 1
        n += 1
    return FormalCharacter(hm, terms, cutoff)


def graded_exterior(hm: HMLattice, weights: Sequence[Weight]) -> FormalCharacter:
    """Signed exterior-algebra character: product of (1 - e^{w})."""
    acc = {hm.char(hm.zero_weight()): 1}
    for w in weights:
        hm.height2(w)
        nxt: dict[HMCharacter, int] = {}
        for c, m in acc.items():
            nxt[c] = nxt.get(c, 0) + m
            shifted = HMCharacter(c.tweight + w, c.zchar)
            nxt[shifted] = nxt.get(shifted, 0) - m
        acc = {c: m for c, m in nxt.items() if m != 0}
    return FormalCharacter(hm, acc)


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
