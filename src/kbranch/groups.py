"""Structural data of a real reductive group and one theta-stable Cartan class.

The group structure is data, not derivation: a JSON document carries the
root system of the maximal compact subgroup, the root system of the Levi
factor with compact/noncompact labels, the restricted roots, the torus
restriction matrix and the finite component group of the compact Cartan.
Loading validates every structural invariant and names the first violated
one, and derives, once per group, the root data the engine reads: the
lattices of T and T_M graded by the positive systems of K and of the Levi
factor (with their rho), the compactness of each Levi root, the fibres of
the torus restriction and of the dot products with K's simple roots,
whether Blattner's formula applies, and one record per element w of the
Weyl group of K (WeylTerm): w, w rho_K - rho_K, R w 2rho_K, (R w)^T and,
where Blattner's formula applies, what its walk reads of w.  Weight
coordinates are, by convention, orthonormal for an invariant inner
product; this is what makes coroot pairings exact integers and is enforced
by the crystallographic checks below.  The Z' character of a T-weight is
one integer product with the rows order * v of the generators, looked up
in the character table.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import lcm
from operator import mul, sub
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .characters import HMLattice, LatticeError, Weight, ZCharTable, weight

DATA_ENV_VAR = "KTYPE_DATA_DIR"
_BUILTIN_DIR = Path(__file__).parent / "data"


class GroupDataError(ValueError):
    """Invalid group data; .invariant names the violated invariant."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


class RootSystem(NamedTuple):
    rank: int
    roots: tuple[Weight, ...]
    positives: tuple[Weight, ...]
    simples: tuple[Weight, ...]


def matvec(mat: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    """The integer matrix-vector product mat v."""
    return tuple(sum(map(mul, row, v)) for row in mat)


def simple_roots(positives: Sequence[Weight]) -> tuple[Weight, ...]:
    """The indecomposable positives: those not the sum of two positives,
    so that taking any positive from one leaves no positive."""
    pos = {p.coords for p in positives}
    return tuple(p for p in positives if not any(
        tuple(map(sub, p.coords, q)) in pos for q in pos))


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
# loading costs O(rank^2) and O(order^2) before any shape check can fail;
# the shipped groups use ranks 1-3 and order 2
_RANK_CAP, _ORDER_CAP = 8, 64


def _simple_reflections(rs: RootSystem) -> list[tuple]:
    """The simple reflections, which generate the Weyl group, as _reflect's
    (a, a_vee) pairs, each checked to preserve the lattice and then to
    permute the roots; GroupDataError("Weyl closure") otherwise."""
    gens = []
    for a in rs.simples:  # e_j reflects to e_j - (2a_j/(a, a)) a
        aa = sum(map(mul, a.coords, a.coords))
        if any(2 * x % aa for x in a.coords):
            raise GroupDataError(
                "Weyl closure",
                f"reflection in {a.coords} does not preserve the lattice")
        gens.append((a.coords, tuple(2 * x // aa for x in a.coords)))
    roots = tuple(r.coords for r in rs.roots)
    root_set = set(roots)
    for gen in gens:
        if set(_reflect(gen, roots)) != root_set:
            raise GroupDataError(
                "Weyl closure",
                f"reflection in {gen[0]} does not permute the roots")
    return gens


def weyl_group(rs: RootSystem) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """All elements generated by the simple reflections, as (matrix, det)
    pairs sorted by matrix.

    Raises GroupDataError("Weyl closure") on non-crystallographic input
    (a generated reflection fails to permute the root set); else the group
    is finite, and GroupDataError("size cap") once it passes _WEYL_CAP.
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


def _validate_root_system(rs: RootSystem, label: str, checklist: list[str]
                          ) -> None:
    """Raise on the first violated invariant."""
    def bad(inv, msg):
        raise GroupDataError(inv, f"{label}: {msg}")

    coords = [r.coords for r in rs.roots]
    root_set = set(coords)
    if len(root_set) != len(coords):
        bad("negation closure", "duplicate roots")
    for r in rs.roots:
        if not any(r.coords):
            bad("negation closure", "zero vector listed as a root")
        if (-r).coords not in root_set:
            bad("negation closure", f"root {r.coords} has no negative")
    checklist.append(f"{label} negation closure")

    pos = {p.coords for p in rs.positives}
    neg = {(-p).coords for p in rs.positives}
    if pos & neg:
        bad("positive partition", "a root and its negative both positive")
    if pos | neg != root_set:
        bad("positive partition",
            "positives and their negatives do not exhaust the roots")
    checklist.append(f"{label} positive partition")

    for s in rs.simples:
        if s.coords not in pos:
            bad("simple decomposition", f"simple {s.coords} is not positive")
    # independence makes simple-root coordinates unique
    fibres = Fibres.of([[s.coords[i] for s in rs.simples]
                        for i in range(rs.rank)], len(rs.simples))
    if fibres.free:
        bad("simple decomposition", "simple roots are linearly dependent")
    for p in rs.positives:
        x = fibres.solve(p.coords)
        if x is None or any(c < 0 or c.denominator != 1 for c in x):
            bad("simple decomposition",
                f"positive {p.coords} is not a nonnegative integer "
                "combination of the simples")
    checklist.append(f"{label} simple decomposition")

    for a in coords:
        for b in coords:
            if not _integral_pairing(b, a):
                bad("Weyl closure",
                    f"pairing of {b} with {a} is not integral")
    _simple_reflections(rs)  # raises on reflection-closure failure
    checklist.append(f"{label} Weyl closure")


def _parse_weight_list(raw, rank, lattice, inv):
    out = []
    for entry in raw:
        if (not isinstance(entry, list) or len(entry) != rank
                or not all(type(c) is int for c in entry)):  # no bools
            raise GroupDataError(
                inv, f"expected integer arrays of length {rank}, got {entry!r}")
        out.append(Weight(tuple(entry), lattice))
    return tuple(out)


def _parse_fraction(v, inv):
    if type(v) is int:
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise GroupDataError(inv, "expected an integer or a fraction string with "
                              f"a nonzero denominator, got {v!r}")


class WeylTerm(NamedTuple):
    """One element w of K's Weyl group and what the sums over W_K read of
    it, derived at load.  Where Blattner's formula applies, _with_walk adds
    the walk's: its state at a Levi weight b is w^T a b (the fibres' map
    carried by w^T), its pairings with the simple K roots and Z' rows, and
    b's consistency rows."""

    matrix: tuple[tuple[int, ...], ...]
    det: int
    rho_shift: tuple[int, ...]               # w rho_K - rho_K
    top: tuple[int, ...]                     # R w 2rho_K
    rw_t: tuple[tuple[int, ...], ...]        # (R w)^T, as rows
    walk: tuple[tuple[int, ...], ...] = ()   # b -> its state, as rows
    dirs: tuple[tuple[int, ...], ...] = ()   # the states of w^T dirs_f
    roots: Optional[dict] = None             # noncompact root -> state


class RealGroupData(NamedTuple):
    """Validated group data, with the root data derived from it once, at
    load.  Equality compares every field; the hash reads the name only, so
    the caches keyed on a group stay cheap to probe."""

    name: str
    k_roots: RootSystem
    m_roots: RootSystem
    dim_a: int
    tm_in_t: tuple[tuple[int, ...], ...]     # (rank tM) x (rank t)
    # per Z' generator, w with value exp(2*pi*i*<mu, w>) at a weight mu of
    # T_M, or None where the generator lies outside T_M
    zgen_w: tuple[Optional[tuple[Fraction, ...]], ...]
    zchar_rows: tuple[tuple[int, ...], ...]  # order * v, per Z' generator
    hm: HMLattice                            # characters of H_M live here
    t_lattice: HMLattice                     # characters of T, graded by K
    dim_s_m: int
    checklist: tuple[str, ...]
    # derived at load; rho_K is t_lattice.rho
    compact_of: dict[tuple[int, ...], bool]  # Levi root -> compact flag
    k_weyl: tuple[WeylTerm, ...]
    fibres: Fibres                           # R x = b, read by one integer map
    k_pairings: Fibres                       # S x = p, S the simple K roots
    blattner_applies: bool
    r_k_positives: frozenset = frozenset()   # R K^+, where it applies

    def __hash__(self) -> int:
        return hash(self.name)

    # -- weight constructors ------------------------------------------------
    def t_weight(self, coords, denom: int = 1) -> Weight:
        return weight(coords, self.t_lattice.lattice, denom)

    def tm_weight(self, coords, denom: int = 1) -> Weight:
        return weight(coords, self.hm.lattice, denom)

    def a_weight(self, coords) -> Weight:
        return weight(coords, f"{self.name}:a")

    # -- structure queries --------------------------------------------------
    def is_compact(self, root: Weight) -> bool:
        try:
            return self.compact_of[root.coords]
        except KeyError:
            raise LatticeError(
                f"{root.coords} is not a root of the Levi factor") from None

    def compact_positives(self, positives=None) -> list[Weight]:
        pos = self.m_roots.positives if positives is None else positives
        return [r for r in pos if self.is_compact(r)]

    def noncompact_positives(self, positives=None) -> list[Weight]:
        pos = self.m_roots.positives if positives is None else positives
        return [r for r in pos if not self.is_compact(r)]

    def restrict_weight(self, w: Weight) -> Weight:
        """Push a weight of the big torus to the small torus."""
        if w.lattice != self.t_lattice.lattice:
            raise LatticeError("can only restrict weights of the big torus")
        return weight(matvec(self.tm_in_t, w.coords), self.hm.lattice, w.denom)

    def zchar(self, coords: Sequence[int]) -> int:
        """Z' character index of the integral T-weight with these coordinates.
        The table rows form a group holding the values of every basis weight
        (checked at load), so the lookup cannot miss."""
        order = self.hm.ztable.order
        return self.hm.ztable.index_of[
            tuple(e % order for e in matvec(self.zchar_rows, coords))]


def row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place on the first ncols columns; any
    further columns ride along.  Returns the pivot columns: row i then holds
    1 at pivot i and 0 at every other pivot, and the rows past the rank
    vanish on the first ncols columns."""
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][c]
        rows[r] = [a / scale for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


class Fibres(NamedTuple):
    """Integral solutions x of R x = b, R an integer matrix, as one integer
    map built once.  Row reduction gives an integer T with T R = d * (the
    reduced row echelon form of R).  R x = b exactly when the consistency
    rows, T's past the rank, vanish on b; then d x = a b + sum over free f
    of x_f dirs_f, a putting row i of T at the i-th pivot column and dirs_f
    holding d at f and -(T R)_if at the i-th pivot column.  So R x = t - s
    reads a t - a s, with no offset, and a matrix u carries the solutions
    as u a b + sum_f x_f u dirs_f."""

    a: tuple[tuple[int, ...], ...]
    dirs: tuple[tuple[int, ...], ...]
    consistency: tuple[tuple[int, ...], ...]
    d: int
    free: tuple[int, ...]

    @classmethod
    def of(cls, mat: Sequence[Sequence[int]], ncols: int) -> "Fibres":
        m = len(mat)
        rows = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                               for j in range(m)]
                for i, row in enumerate(mat)]
        pivots = row_reduce(rows, ncols)
        d = lcm(*(a.denominator for row in rows for a in row))
        scaled = [tuple(int(a * d) for a in row) for row in rows]
        free = tuple(c for c in range(ncols) if c not in pivots)
        a = [(0,) * m] * ncols
        dirs = [[d * (c == f) for c in range(ncols)] for f in free]
        for i, c in enumerate(pivots):
            a[c] = scaled[i][ncols:]
            for f, z in zip(free, dirs):
                z[c] = -scaled[i][f]
        return cls(tuple(a), tuple(map(tuple, dirs)),
                   tuple(row[ncols:] for row in scaled[len(pivots):]), d, free)

    def solve(self, b: Sequence) -> Optional[tuple[Fraction, ...]]:
        """The solution of R x = b, b rational, whose free coordinates are
        0, a b / d; None when a consistency row is nonzero on b."""
        if any(matvec(self.consistency, b)):
            return None
        return tuple(Fraction(x, self.d) for x in matvec(self.a, b))


def _blattner_applies(g: RealGroupData,
                      k_restricted: Sequence[tuple[int, ...]]) -> bool:
    """Whether Blattner's formula holds for the group, given R = tM_in_t
    applied to each K root: R maps the K roots one-to-one onto the compact
    Levi roots, so the compact exterior cancels the Weyl denominator of K,
    and every K root has a trivial Z' character, so all weights of a K-type
    carry its highest weight's Z' character."""
    compact = {r for r, f in g.compact_of.items() if f}
    return (len(set(k_restricted)) == len(k_restricted)
            and set(k_restricted) == compact
            and all(g.zchar(a.coords) == g.hm.ztable.identity
                    for a in g.k_roots.roots))


def _with_walk(g: RealGroupData) -> RealGroupData:
    """g with R K^+ and each W_K record's data of Blattner's walk."""
    fibres, rank = g.fibres, g.hm.rank
    probes = ([s.coords for s in g.k_roots.simples]
              + (list(g.zchar_rows) if g.hm.ztable.order > 1 else []))
    width = g.k_roots.rank + len(probes) + len(fibres.consistency)
    # (vector before w^T, residue): a e_i per Levi coordinate, then dirs_f
    unmoved = [(matvec(fibres.a, e), matvec(fibres.consistency, e)) for e in (
        tuple(int(i == j) for j in range(rank)) for i in range(rank))]
    unmoved += [(v, (0,) * len(fibres.consistency)) for v in fibres.dirs]
    k_weyl = []
    for w in g.k_weyl:
        wt = tuple(zip(*w.matrix))
        states = [(*dmu, *matvec(probes, dmu), *res) for dmu, res in (
            (matvec(wt, v), res) for v, res in unmoved)]
        walk = tuple(tuple(s[j] for s in states[:rank]) for j in range(width))
        k_weyl.append(w._replace(walk=walk, dirs=tuple(states[rank:]), roots={
            b: matvec(walk, b) for b, compact in g.compact_of.items()
            if not compact}))
    return g._replace(r_k_positives=frozenset(
        matvec(g.tm_in_t, a.coords) for a in g.k_roots.positives),
        k_weyl=tuple(k_weyl))


_SCHEMA_FIELDS = {
    "name": str, "k": dict, "m": dict, "restricted": dict,
    "tM_in_t": list, "zmprime": dict, "dims": dict,
}


def load_group_data(source: Union[str, bytes, os.PathLike]) -> RealGroupData:
    """Parse and fully validate a group-data document.

    Accepts a path, or raw JSON text/bytes.  Raises GroupDataError with the
    violated invariant named.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:  # raw bytes, or a path
        raw = source if isinstance(source, bytes) else Path(source).read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise GroupDataError("schema", f"not UTF-8 text: {e}") from e
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # nesting, integer digits
        raise GroupDataError("schema", f"not valid JSON: {e}") from e
    return _build(doc)


def _require(doc: dict, field: str, typ, inv="schema", cap=None):
    if field not in doc:
        raise GroupDataError(inv, f"missing field {field!r}")
    if not isinstance(doc[field], typ) or isinstance(doc[field], bool):
        raise GroupDataError(inv, f"field {field!r} must be {typ.__name__}")
    if cap is not None and not 0 <= doc[field] <= cap:  # a size
        raise GroupDataError("size cap" if doc[field] > cap else inv,
                             f"{field} {doc[field]} is outside 0..{cap}")
    return doc[field]


def _build(doc: dict) -> RealGroupData:
    checklist: list[str] = []
    if not isinstance(doc, dict):
        raise GroupDataError("schema", "top level must be an object")
    extra = set(doc) - set(_SCHEMA_FIELDS)
    if extra:
        raise GroupDataError("schema", f"unknown fields {sorted(extra)}")
    for f, t in _SCHEMA_FIELDS.items():
        _require(doc, f, t)
    name = doc["name"]
    t_lab, tm_lab = f"{name}:t", f"{name}:tM"
    checklist.append("schema")

    # ---- k root system -----------------------------------------------------
    k = doc["k"]
    k_rank = _require(k, "rank", int, cap=_RANK_CAP)
    k_roots = RootSystem(
        k_rank,
        _parse_weight_list(_require(k, "roots", list), k_rank, t_lab, "schema"),
        _parse_weight_list(_require(k, "positives", list), k_rank, t_lab, "schema"),
        _parse_weight_list(_require(k, "simples", list), k_rank, t_lab, "schema"))
    _validate_root_system(k_roots, "k", checklist)
    t_lattice = HMLattice.graded(k_rank, t_lab, k_roots.positives)
    rho2 = t_lattice.height_vec
    k_weyl = []  # (w, det, w 2rho_K), of the one closure built at load
    for w, det in weyl_group(k_roots):
        w_rho2 = matvec(w, rho2)
        if any((x - y) % 2 for x, y in zip(w_rho2, rho2)):
            raise GroupDataError("Weyl closure", f"k: w rho - rho is not "
                                                 f"integral for {w}")
        k_weyl.append((w, det, w_rho2))

    # ---- m root system with compact flags ----------------------------------
    m = doc["m"]
    m_rank = _require(m, "rank", int, cap=_RANK_CAP)
    m_all = _parse_weight_list(_require(m, "roots", list), m_rank, tm_lab, "schema")
    m_pos = _parse_weight_list(_require(m, "positives", list), m_rank, tm_lab, "schema")
    flags = _require(m, "compact_flags", list)
    if len(flags) != len(m_all) or not all(isinstance(f, bool) for f in flags):
        raise GroupDataError("schema",
                             "compact_flags must be booleans aligned with m.roots")
    m_roots = RootSystem(m_rank, m_all, m_pos, simple_roots(m_pos))
    _validate_root_system(m_roots, "m", checklist)

    flag_of = {r.coords: f for r, f in zip(m_all, flags)}
    for r, f in zip(m_all, flags):
        if flag_of[(-r).coords] != f:
            raise GroupDataError("compact partition",
                                 f"root {r.coords} and its negative disagree "
                                 "on compactness")
    checklist.append("compact partition parity")

    # ---- restricted roots ---------------------------------------------------
    restr = doc["restricted"]
    dim_a = _require(restr, "dim_a", int, cap=_RANK_CAP)
    a_lab = f"{name}:a"
    _parse_weight_list(_require(restr, "roots", list), dim_a, a_lab, "schema")
    r_pos = _parse_weight_list(_require(restr, "positives", list), dim_a, a_lab, "schema")
    cone = HMLattice.graded(dim_a, a_lab, r_pos)
    for b in r_pos:
        if cone.height2(b) <= 0:
            raise GroupDataError(
                "restricted pointed cone",
                f"no linear functional separates {b.coords}")
    checklist.append("restricted pointed cone")

    # ---- restriction matrix -------------------------------------------------
    tm_raw = doc["tM_in_t"]
    if len(tm_raw) != m_rank or any(
            not isinstance(row, list) or len(row) != k_rank
            or not all(type(x) is int for x in row) for row in tm_raw):
        raise GroupDataError("schema",
                             f"tM_in_t must be a {m_rank}x{k_rank} integer matrix")
    tm_in_t = tuple(tuple(row) for row in tm_raw)

    # ---- zmprime -------------------------------------------------------------
    z = doc["zmprime"]
    order = _require(z, "order", int, cap=_ORDER_CAP)
    gens_raw = _require(z, "generators", list)
    if order < 1:
        raise GroupDataError("zmprime table", "order must be >= 1")
    per_gen_rows = []
    vs = []
    for g in gens_raw:
        if not isinstance(g, dict) or set(g) != {"v", "char_table_row"}:
            raise GroupDataError("schema",
                                 "each generator needs exactly v and "
                                 "char_table_row")
        row = g["char_table_row"]
        if (not isinstance(row, list) or len(row) != order
                or not all(type(e) is int for e in row)):
            raise GroupDataError(
                "zmprime table",
                f"char_table_row must list {order} integer exponents")
        per_gen_rows.append([e % order for e in row])
        v = g["v"]
        if not isinstance(v, list) or len(v) != k_rank:
            raise GroupDataError("zmprime table",
                                 f"v must have {k_rank} rational entries")
        vs.append(tuple(_parse_fraction(x, "zmprime table") for x in v))
    rows = tuple(tuple(per_gen_rows[j][i] for j in range(len(gens_raw)))
                 for i in range(order))
    try:
        ztable = ZCharTable(order, rows)
        for i in range(order):
            for j in range(order):
                ztable.mul(i, j)
        ztable.identity
    except LatticeError as e:
        raise GroupDataError("zmprime table", str(e)) from e
    checklist.append("zmprime table")

    # generator values must be exact on the weight lattice
    zchar_rows = []
    for j, v in enumerate(vs):
        row = [order * x for x in v]
        if any(x.denominator != 1 for x in row):
            raise GroupDataError(
                "zmprime compatibility",
                f"generator {j} gives lattice weights inexact values")
        zchar_rows.append(tuple(map(int, row)))
    checklist.append("zmprime integrality")

    # descent to the small torus where the generator lies in it
    descent = Fibres.of([[row[r] for row in tm_in_t] for r in range(k_rank)],
                        m_rank)
    zgen_w = tuple(descent.solve(v) for v in vs)

    # ---- dims -----------------------------------------------------------------
    dims = doc["dims"]
    dim_s_m = _require(dims, "s_M", int)
    dim_a_decl = _require(dims, "a", int)
    if dim_s_m % 2 != 0:
        raise GroupDataError("sign factor parity",
                             f"s_M dimension {dim_s_m} is odd")
    checklist.append("sign factor parity")
    n_noncompact = sum(1 for f in flags if not f)
    if dim_s_m != n_noncompact:
        raise GroupDataError(
            "dims consistency",
            f"s_M dimension {dim_s_m} != {n_noncompact} noncompact roots")
    if dim_a_decl != dim_a:
        raise GroupDataError("dims consistency",
                             "dims.a disagrees with restricted.dim_a")
    checklist.append("dims consistency")

    # ---- the Levi lattice, graded by the declared positives -------------------
    hm = HMLattice.graded(m_rank, tm_lab, m_pos, ztable)

    # checklist and blattner_applies are final once the checks below pass
    g = RealGroupData(
        name=name, k_roots=k_roots, m_roots=m_roots, dim_a=dim_a,
        tm_in_t=tm_in_t, zgen_w=zgen_w, zchar_rows=tuple(zchar_rows), hm=hm,
        t_lattice=t_lattice, dim_s_m=dim_s_m, checklist=(), compact_of=flag_of,
        k_weyl=tuple(WeylTerm(
            w, det, tuple((x - y) // 2 for x, y in zip(w_rho2, rho2)),
            matvec(tm_in_t, w_rho2),
            tuple(matvec(tm_in_t, col) for col in zip(*w)))
            for w, det, w_rho2 in k_weyl),
        fibres=Fibres.of(tm_in_t, k_rank),
        k_pairings=Fibres.of([a.coords for a in k_roots.simples], k_rank),
        blattner_applies=False)

    # compact m-roots must come from roots of the compact subgroup
    k_restr = [g.restrict_weight(r).coords for r in k_roots.roots]
    for r, f in zip(m_all, flags):
        if f and r.coords not in k_restr:
            raise GroupDataError(
                "compact partition",
                f"compact-flagged root {r.coords} is not the restriction of "
                "any compact-group root")
    checklist.append("compact partition")

    # restriction sends lattice weights to weights pairing integrally with
    # the compact Levi roots
    for i, re in enumerate(zip(*tm_in_t)):  # R e_i, the i-th column
        for r, f in zip(m_all, flags):
            if f and not _integral_pairing(re, r.coords):
                raise GroupDataError(
                    "restriction integrality",
                    f"basis weight {i} restricts to {re}, pairing "
                    f"non-integrally with compact root {r.coords}")
    checklist.append("restriction integrality")

    # character table consistent with the v-vectors on a spanning set
    for i in range(k_rank):
        try:
            g.zchar(tuple(int(j == i) for j in range(k_rank)))
        except KeyError:
            raise GroupDataError("zmprime compatibility", f"basis weight {i} "
                                 "has Z' values in no table row") from None
    checklist.append("zmprime compatibility")

    g = g._replace(checklist=tuple(checklist),
                   blattner_applies=_blattner_applies(g, k_restr))
    return _with_walk(g) if g.blattner_applies else g


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
