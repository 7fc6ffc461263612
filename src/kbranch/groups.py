"""Structural data of a real reductive group and one theta-stable Cartan class.

The group structure is data, not derivation: a JSON document carries the
root system of the maximal compact subgroup, the root system of the Levi
factor with compact/noncompact labels, the restricted roots, the torus
restriction matrix and the finite component group of the compact Cartan.
Loading validates every structural invariant and names the first violated
one.  Weight coordinates are, by convention, orthonormal for an invariant
inner product; this is what makes coroot pairings exact integers and is
enforced by the crystallographic checks below.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .characters import (ConeError, HMLattice, LatticeError, Weight,
                         ZCharTable, pairing, weight)

DATA_ENV_VAR = "KTYPE_DATA_DIR"
_BUILTIN_DIR = Path(__file__).parent / "data"


class GroupDataError(ValueError):
    """Invalid group data; .invariant names the violated invariant."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


@dataclass(frozen=True)
class RootSystem:
    rank: int
    roots: tuple[Weight, ...]
    positives: tuple[Weight, ...]
    simples: tuple[Weight, ...]


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal lattice map with its determinant sign."""

    matrix: tuple[tuple[int, ...], ...]
    det: int

    def apply(self, w: Weight) -> Weight:
        coords = tuple(sum(row[j] * w.coords[j] for j in range(len(row)))
                       for row in self.matrix)
        return Weight(coords, w.lattice, w.denom)

    def compose(self, other: "WeylElement") -> "WeylElement":
        n = len(self.matrix)
        m = tuple(tuple(sum(self.matrix[i][k] * other.matrix[k][j]
                            for k in range(n)) for j in range(n))
                  for i in range(n))
        return WeylElement(m, self.det * other.det)


def root_sum(roots: Sequence[Weight], rank: int) -> tuple[int, ...]:
    """Coordinatewise sum of the roots: twice rho for a positive system,
    and a height covector positive on it."""
    return tuple(sum(r.coords[i] for r in roots) for i in range(rank))


def simple_roots(positives: Sequence[Weight]) -> tuple[Weight, ...]:
    """The indecomposable positives: those not the sum of two positives."""
    pos = [p.coords for p in positives]
    sums = {tuple(a + b for a, b in zip(q, r)) for q in pos for r in pos}
    return tuple(p for p in positives if p.coords not in sums)


def rho_half_sum(roots: Sequence[Weight], *, rank: Optional[int] = None,
                 lattice: str = "t") -> Weight:
    """Half the sum of the given weights, exact in the doubled lattice.

    For an empty collection the ambient rank (and lattice) must be given.
    """
    roots = list(roots)
    if not roots:
        if rank is None:
            raise ValueError("rho of an empty collection needs an explicit rank")
        return Weight((0,) * rank, lattice)
    lattice = roots[0].lattice
    rank = roots[0].rank
    for r in roots:
        if not r.is_integral():
            raise LatticeError("roots must be integral")
        if r.lattice != lattice or r.rank != rank:
            raise LatticeError("mixed lattices in rho computation")
    return weight(root_sum(roots, rank), lattice, denom=2)


def validate_dominant(rs: RootSystem, mu: Weight) -> bool:
    """True iff <mu, alpha^vee> >= 0 for every simple root alpha."""
    return all(pairing(mu, a) >= 0 for a in rs.simples)


def _reflection_matrix(alpha: Weight, rank: int) -> tuple[tuple[int, ...], ...]:
    cols = []
    for j in range(rank):
        e = Weight(tuple(1 if i == j else 0 for i in range(rank)),
                   alpha.lattice)
        p = pairing(e, alpha)
        if p.denominator != 1:
            raise GroupDataError(
                "Weyl closure",
                f"reflection in {alpha.coords} does not preserve the lattice")
        cols.append(tuple(e.coords[i] - int(p) * alpha.coords[i]
                          for i in range(rank)))
    return tuple(tuple(cols[j][i] for j in range(rank)) for i in range(rank))


def _det(matrix: tuple[tuple[int, ...], ...]) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    if det.denominator != 1:
        raise ArithmeticError(f"integer matrix has determinant {det}")
    return int(det)


_WEYL_CAP = 200_000


def weyl_group(rs: RootSystem) -> list[WeylElement]:
    """All elements generated by the simple reflections, with det signs.

    Raises GroupDataError("Weyl closure") on non-crystallographic input
    (a generated reflection fails to permute the root set) and refuses to
    run past a generation cap.
    """
    rank = rs.rank
    root_set = {r.coords for r in rs.roots}
    gens = []
    for a in rs.simples:
        m = _reflection_matrix(a, rank)
        el = WeylElement(m, _det(m))
        image = {el.apply(r).coords for r in rs.roots}
        if image != root_set:
            raise GroupDataError(
                "Weyl closure",
                f"reflection in {a.coords} does not permute the roots")
        gens.append(el)
    identity = WeylElement(
        tuple(tuple(1 if i == j else 0 for j in range(rank))
              for i in range(rank)), 1)
    seen = {identity.matrix: identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                cand = g.compose(el)
                if cand.matrix not in seen:
                    seen[cand.matrix] = cand
                    nxt.append(cand)
        frontier = nxt
        if len(seen) > _WEYL_CAP:
            raise GroupDataError("Weyl closure",
                                 "reflection group did not close; "
                                 "input is not a finite root system")
    return sorted(seen.values(), key=lambda e: e.matrix)


def decompose_in_simples(mu: Weight, simples: Sequence[Weight],
                         hvec: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Nonnegative-integer coordinates of mu in the simple roots, or None.

    Requires the simple roots to be linearly independent, which makes the
    expansion unique when it exists.
    """
    if not simples:
        return () if mu.is_zero() else None
    h2 = [sum(x * y for x, y in zip(s.coords, hvec)) for s in simples]
    if any(h <= 0 for h in h2):
        raise ConeError("simple root with nonpositive height")

    def search(rem, rem_h2, idx, acc):
        if idx == len(simples):
            return tuple(acc) if all(c == 0 for c in rem) and rem_h2 == 0 else None
        cur, cur_h2, k = rem, rem_h2, 0
        while cur_h2 >= 0:
            hit = search(cur, cur_h2, idx + 1, acc + [k])
            if hit is not None:
                return hit
            cur = tuple(a - b for a, b in zip(cur, simples[idx].coords))
            cur_h2 -= h2[idx]
            k += 1
        return None

    mu_h2 = sum(x * y for x, y in zip(mu.coords, hvec))
    if mu_h2 < 0:
        return None
    return search(mu.coords, mu_h2, 0, [])


def _validate_root_system(rs: RootSystem, label: str,
                          checklist: list[str]) -> None:
    def bad(inv, msg):
        raise GroupDataError(inv, f"{label}: {msg}")

    coords = [r.coords for r in rs.roots]
    if len(set(coords)) != len(coords):
        bad("negation closure", "duplicate roots")
    for r in rs.roots:
        if r.is_zero():
            bad("negation closure", "zero vector listed as a root")
        if (-r).coords not in set(coords):
            bad("negation closure", f"root {r.coords} has no negative")
    checklist.append(f"{label} negation closure")

    pos = {p.coords for p in rs.positives}
    neg = {(-p).coords for p in rs.positives}
    if pos & neg:
        bad("positive partition", "a root and its negative both positive")
    if pos | neg != set(coords):
        bad("positive partition",
            "positives and their negatives do not exhaust the roots")
    checklist.append(f"{label} positive partition")

    for s in rs.simples:
        if s.coords not in pos:
            bad("simple decomposition", f"simple {s.coords} is not positive")
    # independence makes simple-root coordinates unique
    rows = [[Fraction(x) for x in s.coords] for s in rs.simples]
    if len(row_reduce(rows, rs.rank)) != len(rs.simples):
        bad("simple decomposition", "simple roots are linearly dependent")
    hvec = root_sum(rs.positives, rs.rank)
    for p in rs.positives:
        if decompose_in_simples(p, rs.simples, hvec) is None:
            bad("simple decomposition",
                f"positive {p.coords} is not a nonnegative integer "
                "combination of the simples")
    checklist.append(f"{label} simple decomposition")

    for a in rs.roots:
        for b in rs.roots:
            if pairing(b, a).denominator != 1:
                bad("Weyl closure",
                    f"pairing of {b.coords} with {a.coords} is not integral")
    weyl_group(rs)  # raises on reflection-closure failure
    checklist.append(f"{label} Weyl closure")


def _parse_weight_list(raw, rank, lattice, inv):
    out = []
    for entry in raw:
        if (not isinstance(entry, list) or len(entry) != rank
                or not all(isinstance(c, int) for c in entry)):
            raise GroupDataError(
                inv, f"expected integer arrays of length {rank}, got {entry!r}")
        out.append(Weight(tuple(entry), lattice))
    return tuple(out)


def _parse_fraction(v, inv):
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ValueError:
            pass
    raise GroupDataError(inv, f"expected an integer or a fraction string, got {v!r}")


@dataclass(frozen=True)
class ZGenerator:
    """Generator of the finite component group Z', with evaluation vectors.

    v evaluates weights of the big torus at this generator:
    value = exp(2*pi*i*<mu, v>).  w is the analogous vector on the small
    torus when the generator lies in it (None otherwise).
    """

    v: tuple[Fraction, ...]
    w: Optional[tuple[Fraction, ...]]


@dataclass(frozen=True)
class RealGroupData:
    """Validated group data.  Equality compares every field; the hash reads
    the name only, so the caches keyed on a group stay cheap to probe."""

    name: str
    k_roots: RootSystem
    m_roots: RootSystem
    compact_flags: tuple[bool, ...]          # aligned with m_roots.roots
    restricted_roots: tuple[Weight, ...]
    restricted_positives: tuple[Weight, ...]
    dim_a: int
    tm_in_t: tuple[tuple[int, ...], ...]     # (rank tM) x (rank t)
    zgens: tuple[ZGenerator, ...]
    hm: HMLattice                            # characters of H_M live here
    t_lattice: HMLattice                     # characters of T live here
    dim_s_m: int
    checklist: tuple[str, ...]

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
        for r, flag in zip(self.m_roots.roots, self.compact_flags):
            if r.coords == root.coords:
                return flag
        raise LatticeError(f"{root.coords} is not a root of the Levi factor")

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
        coords = tuple(sum(row[j] * w.coords[j] for j in range(len(row)))
                       for row in self.tm_in_t)
        return weight(coords, self.hm.lattice, w.denom)

    def zchar_exponents(self, w: Weight) -> tuple[int, ...]:
        """Evaluate a big-torus weight at the Z' generators, as exponents."""
        order = self.hm.ztable.order
        exps = []
        for g in self.zgens:
            val = order * sum(Fraction(c) * v
                              for c, v in zip(w.coords, g.v)) / w.denom
            if val.denominator != 1:
                raise GroupDataError(
                    "zmprime compatibility",
                    f"weight {w.coords} has no exact value at a Z' generator")
            exps.append(int(val) % order)
        return tuple(exps)

    def zchar_of_t_weight(self, w: Weight) -> int:
        exps = self.zchar_exponents(w)
        idx = self.hm.ztable.index_of.get(exps)
        if idx is None:
            raise GroupDataError(
                "zmprime compatibility",
                f"Z' values {exps} of weight {w.coords} match no character "
                "table row")
        return idx


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


def _solve_rational(mat: list[list[Fraction]], rhs: list[Fraction]
                    ) -> Optional[list[Fraction]]:
    """Solve mat @ x = rhs exactly; None if inconsistent."""
    ncols = len(mat[0]) if mat else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    pivots = row_reduce(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


_SCHEMA_FIELDS = {
    "name": str, "k": dict, "m": dict, "restricted": dict,
    "tM_in_t": list, "zmprime": dict, "dims": dict,
}


def load_group_data(source: Union[str, bytes, os.PathLike]) -> RealGroupData:
    """Parse and fully validate a group-data document.

    Accepts a path, or raw JSON text/bytes.  Raises GroupDataError with the
    violated invariant named.
    """
    if isinstance(source, (os.PathLike, Path)):
        text = Path(source).read_text()
    elif isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:  # a string path
        text = Path(source).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GroupDataError("schema", f"not valid JSON: {e}") from e
    return _build(doc)


def _require(doc: dict, field: str, typ, inv="schema"):
    if field not in doc:
        raise GroupDataError(inv, f"missing field {field!r}")
    if not isinstance(doc[field], typ):
        raise GroupDataError(inv, f"field {field!r} must be {typ.__name__}")
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
    k_rank = _require(k, "rank", int)
    k_roots = RootSystem(
        k_rank,
        _parse_weight_list(_require(k, "roots", list), k_rank, t_lab, "schema"),
        _parse_weight_list(_require(k, "positives", list), k_rank, t_lab, "schema"),
        _parse_weight_list(_require(k, "simples", list), k_rank, t_lab, "schema"))
    _validate_root_system(k_roots, "k", checklist)

    # ---- m root system with compact flags ----------------------------------
    m = doc["m"]
    m_rank = _require(m, "rank", int)
    m_all = _parse_weight_list(_require(m, "roots", list), m_rank, tm_lab, "schema")
    m_pos = _parse_weight_list(_require(m, "positives", list), m_rank, tm_lab, "schema")
    flags_raw = _require(m, "compact_flags", list)
    if len(flags_raw) != len(m_all) or not all(isinstance(f, bool) for f in flags_raw):
        raise GroupDataError("schema",
                             "compact_flags must be booleans aligned with m.roots")
    flags = tuple(flags_raw)
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
    dim_a = _require(restr, "dim_a", int)
    a_lab = f"{name}:a"
    r_roots = _parse_weight_list(_require(restr, "roots", list), dim_a, a_lab, "schema")
    r_pos = _parse_weight_list(_require(restr, "positives", list), dim_a, a_lab, "schema")
    two_rho_a = root_sum(r_pos, dim_a)
    for b in r_pos:
        if sum(x * y for x, y in zip(b.coords, two_rho_a)) <= 0:
            raise GroupDataError(
                "restricted pointed cone",
                f"no linear functional separates {b.coords}")
    checklist.append("restricted pointed cone")

    # ---- restriction matrix -------------------------------------------------
    tm_raw = doc["tM_in_t"]
    if len(tm_raw) != m_rank or any(
            not isinstance(row, list) or len(row) != k_rank
            or not all(isinstance(x, int) for x in row) for row in tm_raw):
        raise GroupDataError("schema",
                             f"tM_in_t must be a {m_rank}x{k_rank} integer matrix")
    tm_in_t = tuple(tuple(row) for row in tm_raw)

    # ---- zmprime -------------------------------------------------------------
    z = doc["zmprime"]
    order = _require(z, "order", int)
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
                or not all(isinstance(e, int) for e in row)):
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
    for j, v in enumerate(vs):
        for i in range(k_rank):
            if (order * v[i]).denominator != 1:
                raise GroupDataError(
                    "zmprime compatibility",
                    f"generator {j} gives lattice weights inexact values")
    checklist.append("zmprime integrality")

    # descent to the small torus where the generator lies in it
    zgens = []
    for v in vs:
        mat = [[Fraction(tm_in_t[i][r]) for i in range(m_rank)]
               for r in range(k_rank)]
        sol = _solve_rational(mat, list(v))
        zgens.append(ZGenerator(v, tuple(sol) if sol is not None else None))
    zgens = tuple(zgens)

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

    # ---- assemble lattices -----------------------------------------------------
    hm = HMLattice(m_rank, tm_lab, root_sum(m_pos, m_rank), ztable)
    t_lattice = HMLattice(k_rank, t_lab, root_sum(k_roots.positives, k_rank))

    g = RealGroupData(
        name=name, k_roots=k_roots, m_roots=m_roots, compact_flags=flags,
        restricted_roots=r_roots, restricted_positives=r_pos, dim_a=dim_a,
        tm_in_t=tm_in_t, zgens=zgens, hm=hm, t_lattice=t_lattice,
        dim_s_m=dim_s_m, checklist=tuple(checklist))

    # compact m-roots must come from roots of the compact subgroup
    k_restr = {g.restrict_weight(r).coords for r in k_roots.roots}
    for r, f in zip(m_all, flags):
        if f and r.coords not in k_restr:
            raise GroupDataError(
                "compact partition",
                f"compact-flagged root {r.coords} is not the restriction of "
                "any compact-group root")
    checklist.append("compact partition")

    # restriction sends lattice weights to weights pairing integrally with
    # the compact Levi roots
    for i in range(k_rank):
        e = Weight(tuple(1 if j == i else 0 for j in range(k_rank)), t_lab)
        re = g.restrict_weight(e)
        for r, f in zip(m_all, flags):
            if f and pairing(re, r).denominator != 1:
                raise GroupDataError(
                    "restriction integrality",
                    f"basis weight {i} restricts to {re.coords}, pairing "
                    f"non-integrally with compact root {r.coords}")
    checklist.append("restriction integrality")

    # character table consistent with the v-vectors on a spanning set
    for i in range(k_rank):
        e = Weight(tuple(1 if j == i else 0 for j in range(k_rank)), t_lab)
        g.zchar_of_t_weight(e)  # raises "zmprime compatibility"
    checklist.append("zmprime compatibility")

    object.__setattr__(g, "checklist", tuple(checklist))
    return g


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
