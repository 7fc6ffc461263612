"""Exact arithmetic on lattice weights and series of characters of H = T x Z.

Roots and weights are integer coordinate tuples in a fixed lattice basis.
Weight, the public type of lambda, nu and K-types, labels a tuple with its
lattice and a denominator (1, or 2 for half-integer parameters, reduced
when it is built); its lattice and rank are checked once, where it comes
in, and it has no arithmetic: the engine adds coordinate tuples.  A
character of H = (torus T) x (finite abelian Z) is keyed by (torus
coordinates, Z index).  A series of them is a pair (certificate, terms),
as a chamber table holds it: terms (doubled height, key, m) lowest first,
none zero, exact up to the certificate, a doubled height, or everywhere
if it is None.  Every Kostant partition count is read from one
partition_counts table; no state outlives a call.  All arithmetic is
exact; coefficients are arbitrary-precision integers.
"""

from __future__ import annotations

from math import inf
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence


class LatticeError(ValueError):
    """Mixing weights from different lattices, or wrong rank."""


class ConeError(ValueError):
    """Roots fail the positive-cone condition needed for termination."""


class CutoffError(ValueError):
    """A read of a series beyond its exactness certificate."""


_Key = tuple[tuple[int, ...], int]  # (torus coordinates, Z index)
_Series = tuple[Optional[int], list[tuple[int, _Key, int]]]


class _WeightFields(NamedTuple):
    coords: tuple[int, ...]
    lattice: str = "t"
    denom: int = 1


class Weight(_WeightFields):
    """Integer vector in a lattice basis; value is coords/denom.

    denom is 1 or 2: half-integer weights (rho-shifts) live in the doubled
    lattice.  Construction keeps the invariants: coords become a tuple of
    integers, and a halved tuple of even coordinates is reduced to denom 1,
    so equal values compare and hash equal.
    """

    __slots__ = ()

    def __new__(cls, coords, lattice="t", denom=1):
        coords = tuple(coords)
        if type(denom) is not int or denom not in (1, 2):
            raise LatticeError(f"denom must be 1 or 2, got {denom!r}")
        if not {int}.issuperset(map(type, coords)):  # no bools
            raise LatticeError(f"coordinates {coords!r} are not integers")
        if denom == 2 and not any(c % 2 for c in coords):
            coords, denom = tuple([c // 2 for c in coords]), 1
        return tuple.__new__(cls, (coords, lattice, denom))

    @property
    def rank(self) -> int:
        return len(self.coords)


class _ZCharTableFields(NamedTuple):
    order: int
    rows: tuple[tuple[int, ...], ...]
    products: tuple[tuple[int, ...], ...]
    identity: int


class ZCharTable(_ZCharTableFields):
    """Character table of a finite abelian group, one row per character.

    Row entries are exponents e_j with value exp(2*pi*i*e_j/order) at the
    j-th generator.  Rows must form a group under componentwise addition
    mod order, checked once here, where the identity's index and the
    products (products[i][j], the index of row i + row j) are built from
    (order, rows); row 0 need not be the trivial character.
    """

    __slots__ = ()

    def __new__(cls, order, rows):
        if order < 1:
            raise LatticeError("group order must be >= 1")
        if len(rows) != order:
            raise LatticeError(f"expected {order} characters, got {len(rows)}")
        if len(set(rows)) != len(rows):
            raise LatticeError("duplicate character rows")
        ngen = len(rows[0])
        for r in rows:
            if len(r) != ngen:
                raise LatticeError("ragged character table")
            if any(not (0 <= e < order) for e in r):
                raise LatticeError("character exponent out of range")
        try:  # closed and finite, so a group: the zero row is a sum
            products = tuple(tuple(rows.index(tuple([
                (x + y) % order for x, y in zip(r, s)])) for s in rows)
                for r in rows)
        except ValueError:
            raise LatticeError("character table not closed under product"
                               ) from None
        return tuple.__new__(cls, (order, rows, products,
                                   rows.index((0,) * ngen)))

    def index(self, exponents: Iterable[int]) -> int:
        """The row of these exponents mod order; ValueError if none."""
        return self.rows.index(tuple([e % self.order for e in exponents]))


TRIVIAL_Z = ZCharTable(order=1, rows=((),))


class _HMLatticeFields(NamedTuple):
    rank: int
    lattice: str
    height_vec: tuple[int, ...]
    ztable: ZCharTable = TRIVIAL_Z


class HMLattice(_HMLatticeFields):
    """The grading shared by the characters of H in a family of series.

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
    def graded(cls, rank: int, lattice: str,
               positives: Iterable[tuple[int, ...]],
               ztable: ZCharTable = TRIVIAL_Z) -> "HMLattice":
        """The lattice graded by a positive system, integer tuples of its
        rank: height_vec is the sum of its roots, twice its rho."""
        sums = tuple(map(sum, zip(*positives)))
        return cls(rank, lattice, sums or (0,) * rank, ztable)

    def char(self, w: Weight, z: Optional[int] = None) -> _Key:
        """The key of the character e^w of T times the Z character z, by
        default the identity; LatticeError unless w is an integral weight
        of this lattice."""
        if w.lattice != self.lattice or w.rank != self.rank:
            raise LatticeError(f"weight not on lattice {self.lattice!r}")
        if w.denom != 1:
            raise LatticeError("characters require integral weights")
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


def _by_height(hm: HMLattice, acc: dict[_Key, int]
               ) -> list[tuple[int, _Key, int]]:
    """The nonzero terms of acc as (doubled height, key, m), lowest first."""
    hv = hm.height_vec
    return sorted([(sum(map(mul, c, hv)), (c, z), m)
                   for (c, z), m in acc.items() if m])


def char_mul(hm: HMLattice, a: _Series, b: _Series) -> _Series:
    """Convolution product of two series over hm with sound certificate
    propagation.

    The result certificate C is chosen so that every pair of terms from the
    (possibly infinite) full supports that could land at doubled height
    <= C was retained in the truncated inputs: C = min over truncated
    factors of (factor certificate + least doubled height of the other
    factor's support), floored to a whole height.  A pair above C is
    skipped before it is formed: b's terms go in height order.
    """
    (cert_a, ga), (cert_b, gb) = a, b
    if (not ga and cert_a is None) or (not gb and cert_b is None):
        return None, []
    # the least height of a truncated zero lies above its certificate
    bounds2 = []
    if cert_a is not None:
        bounds2.append(cert_a + (gb[0][0] if gb else cert_b + 1))
    if cert_b is not None:
        bounds2.append(cert_b + (ga[0][0] if ga else cert_a + 1))
    cert = min(bounds2) // 2 * 2 if bounds2 else None  # floor keeps it sound

    acc: dict[_Key, int] = {}
    products = hm.ztable.products
    for ha, (ca, za), ma in ga:
        room = inf if cert is None else cert - ha
        for h, (cb, zb), mb in gb:
            if h > room:
                break
            key = tuple(map(add, ca, cb)), products[za][zb]
            acc[key] = acc.get(key, 0) + ma * mb
    return cert, _by_height(hm, acc)


def _step(hm: HMLattice, root: tuple[int, ...]) -> int:
    """The doubled height of a series factor's root: LatticeError unless it
    is an integer tuple of hm's rank, ConeError unless its height is
    positive (a zero root's is not)."""
    h2 = hm.key_height2((root, hm.ztable.identity))
    if h2 <= 0:
        raise ConeError(f"root {root} has nonpositive height; the "
                        "factor is not graded")
    return h2


def geometric_series(hm: HMLattice, root: tuple[int, ...],
                     cutoff: int) -> _Series:
    """Sum of e^{n*root} over n >= 0 with height(n*root) <= cutoff,
    certified to the doubled height 2 * cutoff.  The root is checked once
    (_step); its multiples are keys by construction."""
    if type(cutoff) is not int or cutoff < 0:
        raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")
    h2 = _step(hm, root)
    z, terms, point = hm.ztable.identity, [], (0,) * hm.rank
    for n in range(2 * cutoff // h2 + 1):
        terms.append((n * h2, (point, z), 1))
        point = tuple(map(add, point, root))
    return 2 * cutoff, terms


def graded_exterior(hm: HMLattice, roots: Sequence[tuple[int, ...]]
                    ) -> _Series:
    """Signed exterior-algebra character of positive roots, exact: the
    product of (1 - e^{root}), each root checked once (_step)."""
    acc = {((0,) * hm.rank, hm.ztable.identity): 1}
    for root in roots:
        _step(hm, root)
        nxt: dict[_Key, int] = {}
        for (c, z), m in acc.items():
            nxt[c, z] = nxt.get((c, z), 0) + m
            shifted = tuple(map(add, c, root)), z
            nxt[shifted] = nxt.get(shifted, 0) - m
        acc = nxt
    return None, _by_height(hm, acc)


def partition_counts(roots: Sequence[tuple[int, ...]], hm: HMLattice,
                     bound2: int) -> dict[tuple[int, ...], int]:
    """Kostant partition counts of the cone the roots span, cut at a doubled
    height: each point maps to the number of ways it is a nonnegative
    integer sum of the roots (a multiset: repeated roots count apart).

    The roots must be strictly positive for the lattice height (pointed
    cone), so every partial sum of a point within the cut lies within it
    too and the cut loses no partition.  The counts are the coefficients
    of the product of the roots' geometric series up to that height.
    """
    hv = hm.height_vec
    counts = {(0,) * hm.rank: 1} if bound2 >= 0 else {}
    for beta in roots:
        h2 = sum(map(mul, beta, hv))
        if h2 <= 0:
            raise ConeError(f"root {beta} not in the declared positive cone")
        grown: dict[tuple[int, ...], int] = {}
        for pt, n in counts.items():
            for _ in range((bound2 - sum(map(mul, pt, hv))) // h2 + 1):
                grown[pt] = grown.get(pt, 0) + n
                pt = tuple(map(add, pt, beta))
        counts = grown
    return counts

