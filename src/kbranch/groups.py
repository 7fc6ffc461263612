"""Structural data of a real reductive group and one theta-stable Cartan class.

The group structure is data, not derivation: a JSON document carries the
root system of the maximal compact subgroup, the root system of the Levi
factor with compact/noncompact labels, the restricted roots, the torus
restriction matrix and the finite component group of the compact Cartan.
Loading runs one step per CHECKS entry, in order, and a refusal names the
entry of the step that raised it (or the size cap passed), then derives,
once per group, the root data the engine reads: the lattices of T, T_M
and A graded by the positive systems of K, of the Levi factor and of the
restricted roots (with their 2rho), the compactness of each Levi root,
the fibres of the torus restriction R (of full row rank, all that is
checked: R need not be onto, as tM_in_t [[2]] is not) and of the dot
products with K's simple roots, whether Blattner's formula applies, and
one record per W_K element w (WeylTerm): w, w rho_K - rho_K,
R w 2rho_K and its walk's maps to d mu and d mu's simple K pairings.
Roots are integer coordinate tuples from the parse on, and every
derivation is in integers: fibres by fraction-free elimination, v as
integer fractions.  Coordinates are, by convention, orthonormal for an
invariant inner product; this is what makes coroot pairings exact
integers and is enforced by the crystallographic checks below.  The Z'
character of a T-weight is one integer product with the rows order * v
of the generators, looked up in the character table.
"""

from __future__ import annotations

import json
import os
import re
from functools import partial
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import add, mul
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .characters import HMLattice, LatticeError, Weight, ZCharTable

DATA_ENV_VAR = "KTYPE_DATA_DIR"
_BUILTIN_DIR = Path(__file__).parent / "data"


class GroupDataError(ValueError):
    """Invalid group data; .invariant names the violated invariant."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


class _Fault(ValueError):
    """A helper's refusal inside a check step, read as the step's detail."""


class RootSystem(NamedTuple):
    rank: int
    roots: tuple[tuple[int, ...], ...]
    positives: tuple[tuple[int, ...], ...]
    simples: tuple[tuple[int, ...], ...]


def matvec(mat: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    """The integer matrix-vector product mat v."""
    return tuple([sum(map(mul, row, v)) for row in mat])


def simple_roots(positives: Sequence[tuple]) -> tuple[tuple, ...]:
    """The indecomposable positives: those not the sum of two positives,
    so that taking any positive from one leaves no positive."""
    sums = {tuple(map(add, p, q))
            for p, q in combinations_with_replacement(positives, 2)}
    return tuple([p for p in positives if p not in sums])


def _integral_pairing(b: Sequence[int], a: Sequence[int]) -> bool:
    """Whether the coroot pairing 2(b, a)/(a, a) is an integer."""
    return 2 * sum(map(mul, b, a)) % sum(map(mul, a, a)) == 0


def _reflect(gen: tuple, vectors: Sequence[Sequence[int]]) -> tuple:
    """s_a(v) = v - (v, a_vee) a for each v, gen the pair (a, a_vee) of a
    root and its coroot 2a/(a, a), an integer vector by the lattice check."""
    a, a_vee = gen
    return tuple(tuple(x - c * y for x, y in zip(v, a))
                 for v in vectors for c in [sum(map(mul, v, a_vee))])


# the largest Weyl group loaded, |W(A_6)|: on a 2-CPU x86 host U(7) loads
# in 1.4 s and SO(11) (|W(B_5)| = 3,840) in 0.6 s, building K's group alone
_WEYL_CAP = 5_040
# loading costs O(rank^2) and O(order^3) before any shape check can fail;
# the shipped groups use ranks 1-3 and order 2
_RANK_CAP, _ORDER_CAP = 8, 64
# and O(roots^2) in a declared root list: E8's 240 roots are the most of
# any root system of rank <= _RANK_CAP
_ROOTS_CAP = 240


def _simple_reflections(rs: RootSystem) -> list[tuple]:
    """The simple reflections, which generate the Weyl group, as _reflect's
    (a, a_vee) pairs, each checked to preserve the lattice and then to
    permute the roots; _Fault otherwise."""
    gens = []
    for a in rs.simples:  # e_j reflects to e_j - (2a_j/(a, a)) a
        aa = sum(map(mul, a, a))
        if any(2 * x % aa for x in a):
            raise _Fault(f"reflection in {a} does not preserve the lattice")
        gens.append((a, tuple(2 * x // aa for x in a)))
    root_set = set(rs.roots)
    for gen in gens:
        if set(_reflect(gen, rs.roots)) != root_set:
            raise _Fault(f"reflection in {gen[0]} does not permute the roots")
    return gens


def weyl_group(rs: RootSystem) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """All elements generated by the simple reflections, as (matrix, det)
    pairs sorted by matrix.

    Raises _Fault on non-crystallographic input (a simple reflection fails
    to preserve the lattice or to permute the roots); else the group is
    finite, and GroupDataError("size cap") once it passes _WEYL_CAP.
    """
    gens = _simple_reflections(rs)
    identity = tuple(tuple(int(i == j) for j in range(rs.rank))
                     for i in range(rs.rank))
    seen = {identity: 1}  # an element's columns -> its det
    frontier = [identity]
    while frontier:
        nxt = []
        for cols in frontier:
            for gen in gens:
                cand = _reflect(gen, cols)
                if cand not in seen:
                    seen[cand] = -seen[cols]
                    nxt.append(cand)
                    if len(seen) > _WEYL_CAP:
                        raise GroupDataError("size cap", (
                            f"Weyl group of {len(seen)} or more elements, "
                            f"above {_WEYL_CAP}"))
        frontier = nxt
    return sorted((tuple(zip(*cols)), det) for cols, det in seen.items())


def _weights(node: dict, field: str, rank: int) -> tuple[tuple[int, ...], ...]:
    out, entries = [], _require(node, field, list)
    if len(entries) > _ROOTS_CAP:
        raise GroupDataError("size cap", f"{field} lists {len(entries)} "
                             f"roots, above {_ROOTS_CAP}")
    for entry in entries:
        if (not isinstance(entry, list) or len(entry) != rank
                or not all(type(c) is int for c in entry)):  # no bools
            raise _Fault(f"expected integer arrays of length {rank}, got "
                         f"{entry!r}")
        out.append(tuple(entry))
    return tuple(out)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(v) -> tuple[int, int]:
    """(numerator, denominator) of an int, or of an ASCII string
    [+-]digits or [+-]digits/digits with a nonzero denominator."""
    if type(v) is int:
        return v, 1
    match = _RATIONAL.fullmatch(v) if isinstance(v, str) else None
    if match:
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # more digits than int() reads
            den = 0
        if den:
            return num, den
    raise _Fault("expected an integer or a fraction string with a nonzero "
                 f"denominator, got {v!r}")


class WeylTerm(NamedTuple):
    """One element w of K's Weyl group and what the sums over W_K read of
    it, derived at load by _k_weyl, Blattner's walk included: the walk's
    state at a Levi weight b is w^T a b (the fibres' map carried by w^T)
    and its pairings with the simple K roots."""

    matrix: tuple[tuple[int, ...], ...]
    det: int
    rho_shift: tuple[int, ...]           # w rho_K - rho_K
    top: tuple[int, ...]                 # R w 2rho_K
    walk: tuple[tuple[int, ...], ...]    # b -> its state, as rows
    dirs: tuple[tuple[int, ...], ...]    # the states of w^T dirs_f


class RealGroupData(NamedTuple):
    """Validated group data, with the root data derived from it once, at
    load.  Equality compares every field; the hash reads the name only, so
    the caches keyed on a group stay cheap to probe."""

    name: str
    k_roots: RootSystem
    m_roots: RootSystem
    a_lattice: HMLattice                     # graded by the restricted roots
    tm_in_t: tuple[tuple[int, ...], ...]     # (rank tM) x (rank t)
    # per Z' generator, (d, c) with value exp(2*pi*i*<mu, c>/(d*order)) at
    # a weight mu of T_M, or None where the generator lies outside T_M
    zgen_w: tuple[Optional[tuple[int, tuple[int, ...]]], ...]
    zchar_rows: tuple[tuple[int, ...], ...]  # order * v, per Z' generator
    hm: HMLattice                            # characters of H_M live here
    t_lattice: HMLattice                     # characters of T, graded by K
    dim_s_m: int
    # derived at load; 2rho_K is t_lattice.height_vec
    compact_of: Mapping[tuple[int, ...], bool]  # Levi root -> compact flag
    k_weyl: tuple[WeylTerm, ...]
    fibres: Fibres                           # R x = b, read by one integer map
    k_pairings: Fibres                       # S x = p, S the simple K roots
    blattner_applies: bool

    def __hash__(self) -> int:
        return hash(self.name)

    # -- weight constructors ------------------------------------------------
    def t_weight(self, coords, denom: int = 1) -> Weight:
        return Weight(coords, self.t_lattice.lattice, denom)

    def tm_weight(self, coords, denom: int = 1) -> Weight:
        return Weight(coords, self.hm.lattice, denom)

    def a_weight(self, coords) -> Weight:
        return Weight(coords, self.a_lattice.lattice)

    # -- structure queries --------------------------------------------------
    def compact_positives(self) -> list[tuple[int, ...]]:
        return [r for r in self.m_roots.positives if self.compact_of[r]]

    def noncompact_positives(self) -> list[tuple[int, ...]]:
        return [r for r in self.m_roots.positives if not self.compact_of[r]]

    def zchar(self, coords: Sequence[int]) -> int:
        """Z' character index of the integral T-weight with these coordinates,
        read through the table: ValueError if no row holds its values, which
        the loader refuses for each basis weight (zmprime compatibility)."""
        return self.hm.ztable.index(matvec(self.zchar_rows, coords))


class Fibres(NamedTuple):
    """Integral solutions x of R x = b, R an integer matrix, as one integer
    map built once.  Gauss-Jordan elimination of [R | I], each row an
    integer vector over one positive denominator reduced by their gcd,
    gives an integer T with T R = d * (the reduced row echelon form of R).
    R x = b exactly when the consistency rows, T's past the rank, vanish on
    b; then d x = a b + sum over free f of x_f dirs_f, a putting row i of T
    at the i-th pivot column and dirs_f holding d at f and -(T R)_if at the
    i-th pivot column.  So R x = t - s reads a t - a s, with no offset, and
    a matrix u carries the solutions as u a b + sum_f x_f u dirs_f."""

    a: tuple[tuple[int, ...], ...]
    dirs: tuple[tuple[int, ...], ...]
    consistency: tuple[tuple[int, ...], ...]
    d: int
    free: tuple[int, ...]

    @classmethod
    def of(cls, mat: Sequence[Sequence[int]], ncols: int) -> "Fibres":
        m = len(mat)
        rows = [([*row, *(int(i == j) for j in range(m))], 1)
                for i, row in enumerate(mat)]
        pivots: list[int] = []
        for c in range(ncols):
            r = len(pivots)
            piv = next((i for i in range(r, m) if rows[i][0][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            pv, pd = rows[r] = _reduced(rows[r][0], rows[r][0][c])
            for i, (v, e) in enumerate(rows):
                if i != r and v[c]:  # v/e - (v_c/e) pv/pd
                    rows[i] = _reduced([x * pd - v[c] * y
                                        for x, y in zip(v, pv)], e * pd)
            pivots.append(c)
        d = lcm(*(e for _, e in rows))
        scaled = [tuple(x * (d // e) for x in v) for v, e in rows]
        free = tuple(c for c in range(ncols) if c not in pivots)
        a = [(0,) * m] * ncols
        dirs = [[d * (c == f) for c in range(ncols)] for f in free]
        for i, c in enumerate(pivots):
            a[c] = scaled[i][ncols:]
            for f, z in zip(free, dirs):
                z[c] = -scaled[i][f]
        return cls(tuple(a), tuple(map(tuple, dirs)),
                   tuple(row[ncols:] for row in scaled[len(pivots):]), d, free)


def _reduced(v: list[int], e: int) -> tuple[list[int], int]:
    """The row v / e as an integer vector over a positive denominator, both
    divided by their gcd; a zero row has denominator 1."""
    g = gcd(*v, e) * (-1 if e < 0 else 1)
    return [x // g for x in v], e // g


def _k_weyl(closure, rho2, tm_in_t, fibres: Fibres, simples: Sequence[tuple]
            ) -> tuple[WeylTerm, ...]:
    """One WeylTerm per (w, det w) of W_K's closure, 2rho_K = rho2; a walk
    state is d mu and its pairings with the simple K roots."""
    rank, width = len(tm_in_t), len(rho2) + len(simples)
    unmoved = (*zip(*fibres.a), *fibres.dirs)  # a e_i per Levi i, dirs_f
    terms = []
    for w, det in closure:
        wt, w_rho2 = tuple(zip(*w)), matvec(w, rho2)
        states = [(*dmu, *matvec(simples, dmu))
                  for dmu in (matvec(wt, v) for v in unmoved)]
        walk = tuple(tuple(s[j] for s in states[:rank]) for j in range(width))
        # w 2rho_K - 2rho_K = 2 (the sum of w p over the positives p that w
        # makes negative), as the positives split the +- pairs and w permutes
        # the roots (checked at load as positive partition, Weyl closure)
        terms.append(WeylTerm(
            w, det, tuple((x - y) // 2 for x, y in zip(w_rho2, rho2)),
            matvec(tm_in_t, w_rho2), walk, tuple(states[rank:])))
    return tuple(terms)


def _negation_closure(label: str, p: SimpleNamespace) -> Optional[str]:
    rs = getattr(p, label)
    root_set = set(rs.roots)
    if len(root_set) != len(rs.roots):
        return "duplicate roots"
    for r in rs.roots:
        if not any(r):
            return "zero vector listed as a root"
        if tuple(-x for x in r) not in root_set:
            return f"root {r} has no negative"


def _positive_partition(label: str, p: SimpleNamespace) -> Optional[str]:
    rs = getattr(p, label)
    pos = set(rs.positives)
    if len(pos) != len(rs.positives):
        return "duplicate positives"
    neg = {tuple(-x for x in r) for r in pos}
    if pos & neg:
        return "a root and its negative both positive"
    if pos | neg != set(rs.roots):
        return "positives and their negatives do not exhaust the roots"


def _simple_decomposition(label: str, p: SimpleNamespace) -> Optional[str]:
    rs = getattr(p, label)
    pos = set(rs.positives)
    for s in rs.simples:
        if s not in pos:
            return f"simple {s} is not positive"
    # independence makes simple-root coordinates unique
    fibres = Fibres.of([[s[i] for s in rs.simples] for i in range(rs.rank)],
                       len(rs.simples))
    if fibres.free:
        return "simple roots are linearly dependent"
    for r in rs.positives:  # d times its simple coordinates, if any
        if any(matvec(fibres.consistency, r)) or any(
                c < 0 or c % fibres.d for c in matvec(fibres.a, r)):
            return (f"positive {r} is not a nonnegative integer combination "
                    "of the simples")


def _weyl_closure(label: str, p: SimpleNamespace) -> Optional[str]:
    rs = getattr(p, label)
    for a in rs.roots:
        for b in rs.roots:
            if not _integral_pairing(b, a):
                return f"pairing of {b} with {a} is not integral"
    if label == "k":  # K's Weyl group, closed once, for _k_weyl
        p.closure = weyl_group(rs)
    else:
        _simple_reflections(rs)


def _compact_partition_parity(p: SimpleNamespace) -> Optional[str]:
    p.compact_of = dict(zip(p.m.roots, p.flags))
    for r, f in p.compact_of.items():
        if p.compact_of[tuple(-x for x in r)] != f:
            return f"root {r} and its negative disagree on compactness"


def _restricted_pointed_cone(p: SimpleNamespace) -> Optional[str]:
    p.a_lattice = HMLattice.graded(p.dim_a, f"{p.name}:a", p.r_pos)
    for b in p.r_pos:
        if sum(map(mul, b, p.a_lattice.height_vec)) <= 0:
            return f"no linear functional separates {b}"


def _zmprime_table(p: SimpleNamespace) -> Optional[str]:
    rank, rows, p.vs = p.k.rank, [], []
    for g in p.gens:
        row, v = g["char_table_row"], g["v"]
        if not isinstance(row, list) or not all(type(e) is int for e in row):
            return f"char_table_row must list {p.order} integer exponents"
        if not isinstance(v, list) or len(v) != rank:
            return f"v must have {rank} rational entries"
        rows.append(row)
        p.vs.append(tuple(map(_parse_rational, v)))
    try:  # a row per character, an exponent per generator
        rows = tuple(zip(*rows, strict=True)) or ((),) * p.order
    except ValueError:
        return "generators' char_table_rows differ in length"
    try:  # the order and the row count are ZCharTable's to check
        p.ztable = ZCharTable(p.order, rows)
    except LatticeError as e:
        return str(e)


def _zmprime_integrality(p: SimpleNamespace) -> Optional[str]:
    """Generator values exact on the weight lattice: order * v integral."""
    for j, v in enumerate(p.vs):
        if any(p.order * n % d for n, d in v):
            return f"generator {j} gives lattice weights inexact values"
    p.zchar_rows = tuple(tuple(p.order * n // d for n, d in v) for v in p.vs)


def _sign_factor_parity(p: SimpleNamespace) -> Optional[str]:
    if p.s_m % 2:
        return f"s_M dimension {p.s_m} is odd"


def _dims_consistency(p: SimpleNamespace) -> Optional[str]:
    if p.s_m != (n := p.flags.count(False)):
        return f"s_M dimension {p.s_m} != {n} noncompact roots"
    if p.dims_a != p.dim_a:
        return "dims.a disagrees with restricted.dim_a"
    p.fibres = Fibres.of(p.tm_in_t, p.k.rank)  # rank only: R need not be onto
    if (r := p.k.rank - len(p.fibres.free)) < p.m.rank:
        return f"tM_in_t has rank {r} < {p.m.rank}: T_M is not a torus in T"


def _compact_partition(p: SimpleNamespace) -> Optional[str]:
    """Compact Levi roots are restrictions of roots of the compact group."""
    p.k_restr = [matvec(p.tm_in_t, r) for r in p.k.roots]
    p.compact = [r for r, f in p.compact_of.items() if f]
    for r in p.compact:
        if r not in p.k_restr:
            return (f"compact-flagged root {r} is not the restriction of any "
                    "compact-group root")


def _restriction_integrality(p: SimpleNamespace) -> Optional[str]:
    """Restriction sends lattice weights to weights pairing integrally with
    the compact Levi roots."""
    for i, re in enumerate(zip(*p.tm_in_t)):  # R e_i, the i-th column
        for r in p.compact:
            if not _integral_pairing(re, r):
                return (f"basis weight {i} restricts to {re}, pairing "
                        f"non-integrally with compact root {r}")


def _zmprime_compatibility(p: SimpleNamespace) -> Optional[str]:
    """The character table holds the Z' values of a spanning set, so zchar
    finds a row for every T-weight."""
    for i in range(p.k.rank):
        try:
            p.ztable.index([row[i] for row in p.zchar_rows])
        except ValueError:
            return f"basis weight {i} has Z' values in no table row"


_SCHEMA_FIELDS = {
    "name": str, "k": dict, "m": dict, "restricted": dict,
    "tM_in_t": list, "zmprime": dict, "dims": dict,
}


def _schema(p: SimpleNamespace) -> Optional[str]:
    """Read the document's text into the pieces the other steps read."""
    text = p.source
    try:
        doc = json.loads(text if isinstance(text, str) else text.decode())
    except UnicodeDecodeError as e:
        return f"not UTF-8 text: {e}"
    except (ValueError, RecursionError) as e:  # nesting, integer digits
        return f"not valid JSON: {e}"
    if not isinstance(doc, dict):
        return "top level must be an object"
    if extra := set(doc) - set(_SCHEMA_FIELDS):
        return f"unknown fields {sorted(extra)}"
    name, k, m, restr, tm, z, dims = (_require(doc, f, t)
                                      for f, t in _SCHEMA_FIELDS.items())
    rank = _require(k, "rank", int, _RANK_CAP)
    p.k = RootSystem(rank, *(_weights(k, f, rank)
                             for f in ("roots", "positives", "simples")))
    rank = _require(m, "rank", int, _RANK_CAP)
    m_all, m_pos = (_weights(m, f, rank) for f in ("roots", "positives"))
    p.flags = flags = _require(m, "compact_flags", list)
    if len(flags) != len(m_all) or not all(isinstance(f, bool) for f in flags):
        return "compact_flags must be booleans aligned with m.roots"
    p.m = RootSystem(rank, m_all, m_pos, simple_roots(m_pos))
    p.dim_a = _require(restr, "dim_a", int, _RANK_CAP)
    _weights(restr, "roots", p.dim_a)
    p.r_pos = _weights(restr, "positives", p.dim_a)
    if len(tm) != p.m.rank or any(
            not isinstance(row, list) or len(row) != p.k.rank
            or not all(type(x) is int for x in row) for row in tm):
        return f"tM_in_t must be a {p.m.rank}x{p.k.rank} integer matrix"
    p.order = _require(z, "order", int, _ORDER_CAP)
    p.gens = _require(z, "generators", list)
    if not all(isinstance(g, dict) and set(g) == {"v", "char_table_row"}
               for g in p.gens):
        return "each generator needs exactly v and char_table_row"
    p.name, p.tm_in_t = name, tuple(map(tuple, tm))
    p.s_m, p.dims_a = (_require(dims, f, int) for f in ("s_M", "a"))


# The loader's checks in the order they run, one step per entry: a step
# reads the pieces parsed or derived before it and returns its failure's
# detail or None (a helper may raise it as _Fault), and _build raises it
# under the step's entry.  `kbranch validate` prints the entries.
_STEPS = (
    ("schema", _schema),
    *((f"{label} {name}", partial(step, label)) for label in "km"
      for name, step in (("negation closure", _negation_closure),
                         ("positive partition", _positive_partition),
                         ("simple decomposition", _simple_decomposition),
                         ("Weyl closure", _weyl_closure))),
    ("compact partition parity", _compact_partition_parity),
    ("restricted pointed cone", _restricted_pointed_cone),
    ("zmprime table", _zmprime_table),
    ("zmprime integrality", _zmprime_integrality),
    ("sign factor parity", _sign_factor_parity),
    ("dims consistency", _dims_consistency),
    ("compact partition", _compact_partition),
    ("restriction integrality", _restriction_integrality),
    ("zmprime compatibility", _zmprime_compatibility))
CHECKS = tuple(entry for entry, _ in _STEPS)


def load_group_data(source: Union[str, bytes, os.PathLike]) -> RealGroupData:
    """Parse and fully validate a group-data document.

    Accepts a path, or raw JSON text/bytes.  Raises GroupDataError naming
    the CHECKS entry of the step that refused it, or the size cap passed.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return _build(source)
    return _build(source if isinstance(source, bytes)
                  else Path(source).read_bytes())


def _require(node: dict, field: str, typ, cap=None):
    if field not in node:
        raise _Fault(f"missing field {field!r}")
    if not isinstance(node[field], typ) or isinstance(node[field], bool):
        raise _Fault(f"field {field!r} must be {typ.__name__}")
    if cap is not None and not 0 <= node[field] <= cap:  # a size
        detail = f"{field} {node[field]} is outside 0..{cap}"
        raise (GroupDataError("size cap", detail) if node[field] > cap
               else _Fault(detail))
    return node[field]


def _build(source: Union[str, bytes]) -> RealGroupData:
    p = SimpleNamespace(source=source)
    for entry, step in _STEPS:
        try:
            detail = step(p)
        except _Fault as e:  # refused by a helper the step calls
            detail = str(e)
        if detail is not None:
            raise GroupDataError(entry, detail)
    k, m, tm_in_t, zchar_rows = p.k, p.m, p.tm_in_t, p.zchar_rows
    # descent to the small torus where the generator lies in it: w = a v / d
    descent = Fibres.of([[row[r] for row in tm_in_t] for r in range(k.rank)],
                        m.rank)
    t_lattice = HMLattice.graded(k.rank, f"{p.name}:t", k.positives)
    # Blattner's formula holds where R maps the K roots one-to-one onto the
    # compact Levi roots, so the compact exterior cancels the Weyl
    # denominator of K, and every K root has a trivial Z' character, so all
    # weights of a K-type carry its highest weight's Z' character
    blattner_applies = (
        len(set(p.k_restr)) == len(p.k_restr)
        and set(p.k_restr) == set(p.compact)
        and not any(e % p.order for a in k.roots
                    for e in matvec(zchar_rows, a)))
    return RealGroupData(
        name=p.name, k_roots=k, m_roots=m, a_lattice=p.a_lattice,
        tm_in_t=tm_in_t,
        zgen_w=tuple(None if any(matvec(descent.consistency, row))
                     else (descent.d, matvec(descent.a, row))
                     for row in zchar_rows),
        zchar_rows=zchar_rows,
        # the Levi lattice, graded by the declared positives
        hm=HMLattice.graded(m.rank, f"{p.name}:tM", m.positives, p.ztable),
        t_lattice=t_lattice, dim_s_m=p.s_m,
        compact_of=MappingProxyType(p.compact_of),  # read-only, as the record
        k_weyl=_k_weyl(p.closure, t_lattice.height_vec, tm_in_t, p.fibres,
                       k.simples),
        fibres=p.fibres, k_pairings=Fibres.of(k.simples, k.rank),
        blattner_applies=blattner_applies)


def data_dir() -> Path:
    override = os.environ.get(DATA_ENV_VAR)
    return Path(override) if override else _BUILTIN_DIR


def builtin_group_names() -> list[str]:
    return sorted(p.stem for p in data_dir().glob("*.json"))


def builtin_group(name: str) -> RealGroupData:
    path = data_dir() / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(
            f"no builtin group {name!r} in {data_dir()} "
            f"(available: {builtin_group_names()})")
    return load_group_data(path)
