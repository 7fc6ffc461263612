"""Group-data loading, validation, Weyl groups, rho shifts."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kbranch import groups
from kbranch.characters import HMLattice, LatticeError, Weight, dot
from kbranch.groups import (GroupDataError, RootSystem, builtin_group,
                            data_dir, load_group_data, matvec, weyl_group)

SP4R = Path(__file__).parent / "data" / "sp4r.json"


def doc_sl2_compact():
    return {
        "name": "sl2r-compact",
        "k": {"rank": 1, "roots": [], "positives": [], "simples": []},
        "m": {"rank": 1, "roots": [[2], [-2]], "positives": [[2]],
              "compact_flags": [False, False]},
        "restricted": {"dim_a": 0, "roots": [], "positives": []},
        "tM_in_t": [[1]],
        "zmprime": {"order": 2,
                    "generators": [{"v": ["1/2"], "char_table_row": [0, 1]}]},
        "dims": {"s_M": 2, "a": 0},
    }


def test_shipped_groups_load():
    gc = builtin_group("sl2r-compact")
    assert [r.coords for r in gc.m_roots.roots] == [(2,), (-2,)]
    assert gc.compact_of == {(2,): False, (-2,): False}
    assert gc.hm.ztable.order == 2
    assert gc.zgen_w == ((Fraction(1, 2),),)  # -I lies in T_M: w = v

    gs = builtin_group("sl2r-split")
    assert gs.m_roots.rank == 0
    assert gs.compact_of == {}
    assert gs.hm.ztable.order == 2
    assert gs.zgen_w == (None,)  # -I does not lie in the trivial torus

    gu = builtin_group("su21")
    assert gu.dim_s_m == 4
    assert len(gu.compact_positives()) == 1
    assert len(gu.noncompact_positives()) == 2


def test_load_from_json_text_and_bytes():
    text = json.dumps(doc_sl2_compact())
    assert load_group_data(text).name == "sl2r-compact"
    assert load_group_data(text.encode()).name == "sl2r-compact"


def test_truncated_file_names_missing_field():
    doc = doc_sl2_compact()
    del doc["zmprime"]
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "schema"
    assert "zmprime" in str(e.value)


def test_negation_closure_violation():
    doc = doc_sl2_compact()
    doc["m"]["roots"] = [[2]]
    doc["m"]["compact_flags"] = [False]
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "negation closure"


def test_reflection_closure_violation():
    # negation-closed but not reflection-closed set in rank 2
    doc = doc_sl2_compact()
    doc["m"] = {"rank": 2,
                "roots": [[1, -1], [-1, 1], [1, 0], [-1, 0]],
                "positives": [[1, -1], [1, 0]],
                "compact_flags": [False, False, False, False]}
    doc["tM_in_t"] = [[1], [0]]
    doc["dims"] = {"s_M": 4, "a": 0}
    doc["zmprime"] = {"order": 1, "generators": []}
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "Weyl closure"
    assert str(e.value) == ("Weyl closure: reflection in (1, -1) does not "
                            "permute the roots")


def _pair_doc(k, m, tm_in_t, s_m):
    """A rank-0 split group from K's roots, the Levi factor's roots with
    their compact flags, and the torus restriction; positives are the
    first of each +- pair."""
    def system(rank, roots):
        pos = [r for r in roots if r > [-c for c in r]]
        return {"rank": rank, "roots": roots, "positives": pos}

    k_doc = system(*k)
    k_doc["simples"] = k_doc["positives"]
    m_roots = [r for r, _ in m[1]]
    return {
        "name": "pairing-test", "k": k_doc,
        "m": {**system(m[0], m_roots),
              "compact_flags": [f for _, f in m[1]]},
        "restricted": {"dim_a": 0, "roots": [], "positives": []},
        "tM_in_t": tm_in_t,
        "zmprime": {"order": 1, "generators": []},
        "dims": {"s_M": s_m, "a": 0},
    }


@pytest.mark.parametrize("doc, message", [
    (_pair_doc((1, [[2], [-2]]),
               (2, [([3, 0], False), ([-3, 0], False), ([1, 1], False),
                    ([-1, -1], False)]), [[1], [0]], 4),
     "Weyl closure: m: pairing of (1, 1) with (3, 0) is not integral"),
    (_pair_doc((2, [[2, 2], [-2, -2]]), (1, [([2], False), ([-2], False)]),
               [[1, 0]], 2),
     "Weyl closure: reflection in (2, 2) does not preserve the lattice"),
    # a non-reduced Levi factor: 2 noncompact, 4 = R(1, 1) compact
    (_pair_doc((2, [[1, 1], [-1, -1]]),
               (1, [([2], False), ([-2], False), ([4], True), ([-4], True)]),
               [[1, 3]], 2),
     "restriction integrality: basis weight 0 restricts to (1,), pairing "
     "non-integrally with compact root (4,)"),
], ids=["root pair", "lattice", "restriction"])
def test_integrality_failures_name_the_pair(doc, message):
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert str(e.value) == message


def test_odd_s_m_names_sign_factor_parity():
    doc = doc_sl2_compact()
    doc["dims"]["s_M"] = 3
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "sign factor parity"


def test_wrong_s_m_count_names_dims():
    doc = doc_sl2_compact()
    doc["dims"]["s_M"] = 4
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "dims consistency"


def test_bad_char_table_rejected():
    doc = doc_sl2_compact()
    doc["zmprime"]["generators"][0]["char_table_row"] = [0, 0]
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "zmprime table"


def test_zmprime_value_must_be_exact_on_lattice():
    doc = doc_sl2_compact()
    doc["zmprime"]["generators"][0]["v"] = ["1/3"]
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant in ("zmprime compatibility", "zmprime table")


def _rank_1000(doc):
    doc["k"]["rank"] = 1000


def _order_600(doc):
    doc["zmprime"] = {"order": 600, "generators": [
        {"v": ["1/600"], "char_table_row": list(range(600))}]}


# each refused before the work quadratic in it: the Weyl group's identity
# matrix, or the character table's closure check
@pytest.mark.parametrize("mutate, quadratic", [(_rank_1000, "weyl_group"),
                                               (_order_600, "ZCharTable")])
def test_size_caps_refuse_before_any_quadratic_work(monkeypatch, mutate,
                                                    quadratic):
    def refuse(*args):
        raise AssertionError(f"reached {quadratic}")

    monkeypatch.setattr(groups, quadratic, refuse)
    doc = doc_sl2_compact()
    mutate(doc)
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "size cap"


def compact_b_doc(n):
    """SO(2n + 1) as its own Levi factor, all roots compact: the B_n roots
    +-e_i +-e_j and +-e_i, with simples e_i - e_(i+1) and e_n."""
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    pos = [[a + s * b for a, b in zip(e[i], e[j])]
           for s in (-1, 1) for i in range(n) for j in range(i + 1, n)] + e
    roots = pos + [[-c for c in r] for r in pos]
    simples = [[a - b for a, b in zip(e[i], e[i + 1])]
               for i in range(n - 1)] + [e[-1]]
    return {
        "name": f"b{n}-test",
        "k": {"rank": n, "roots": roots, "positives": pos, "simples": simples},
        "m": {"rank": n, "roots": roots, "positives": pos,
              "compact_flags": [True] * len(roots)},
        "restricted": {"dim_a": 0, "roots": [], "positives": []},
        "tM_in_t": e,
        "zmprime": {"order": 1, "generators": []},
        "dims": {"s_M": 0, "a": 0},
    }


def test_weyl_group_above_the_cap_is_refused_as_it_grows(monkeypatch):
    # W(B_5), of order 3,840, is below the cap; W(B_6), of order 46,080, is
    # finite (its reflections permute the roots) but refused by size, as
    # the element past the cap is added and not after a whole layer
    b5 = load_group_data(json.dumps(compact_b_doc(5)))
    assert len(b5.k_weyl) == 3840
    # one _reflect call per candidate element, one per generator per
    # frontier element, and one per simple root in each permutation check
    reflect = groups._reflect
    calls = []

    def counted(gen, vectors):
        calls.append(1)
        return reflect(gen, vectors)

    monkeypatch.setattr(groups, "_reflect", counted)
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(compact_b_doc(6)))
    assert e.value.invariant == "size cap"
    assert f"of {groups._WEYL_CAP + 1} or more elements" in str(e.value)
    assert len(calls) <= 6 * (groups._WEYL_CAP + 1)


def test_load_builds_one_weyl_group(monkeypatch):
    # the Levi factor's reflection closure is checked on its simple
    # reflections; only K's Weyl group is built
    weyl_group = groups.weyl_group
    calls = []

    def counted(rs):
        calls.append(rs)
        return weyl_group(rs)

    monkeypatch.setattr(groups, "weyl_group", counted)
    for doc in (compact_b_doc(3), json.loads(SP4R.read_text()),
                *(json.loads((groups._BUILTIN_DIR / f"{name}.json").read_text())
                  for name in ("sl2r-compact", "sl2r-split", "su21"))):
        calls.clear()
        g = load_group_data(json.dumps(doc))
        assert calls == [g.k_roots]
        assert len(g.k_weyl) == len(weyl_group(g.k_roots))


def test_rho_half_sum_examples():
    assert HMLattice.graded(2, "x", []).rho == Weight((0, 0), "x")
    r = HMLattice.graded(1, "t", [Weight((2,), "t")]).rho
    assert r.coords == (1,) and r.denom == 1
    r2 = HMLattice.graded(2, "t", [Weight((1, -1), "t")]).rho
    assert r2.coords == (1, -1) and r2.denom == 2


@pytest.mark.parametrize("bad", [Weight((2,), "other"), Weight((2, 0), "t"),
                                 Weight((1,), "t", 2)],
                         ids=["lattice", "rank", "non-integral"])
def test_graded_rejects_a_foreign_positive(bad):
    with pytest.raises(LatticeError):
        HMLattice.graded(1, "t", [Weight((2,), "t"), bad])


def test_weyl_group_rank1():
    rs = RootSystem(1, (Weight((2,), "t"), Weight((-2,), "t")),
                    (Weight((2,), "t"),), (Weight((2,), "t"),))
    els = weyl_group(rs)
    assert len(els) == 2
    assert sorted(det for _, det in els) == [-1, 1]


def test_weyl_group_u2():
    rs = RootSystem(2, (Weight((1, -1), "t"), Weight((-1, 1), "t")),
                    (Weight((1, -1), "t"),), (Weight((1, -1), "t"),))
    assert len(weyl_group(rs)) == 2


def a2_system():
    W = lambda c: Weight(c, "t")
    roots = tuple(W(c) for c in [(1, -1, 0), (-1, 1, 0), (1, 0, -1),
                                 (-1, 0, 1), (0, 1, -1), (0, -1, 1)])
    pos = tuple(W(c) for c in [(1, -1, 0), (1, 0, -1), (0, 1, -1)])
    simp = tuple(W(c) for c in [(1, -1, 0), (0, 1, -1)])
    return RootSystem(3, roots, pos, simp)


def test_weyl_group_su3_order_and_dets():
    els = weyl_group(a2_system())
    assert len(els) == 6
    assert sorted(det for _, det in els) == [-1, -1, -1, 1, 1, 1]
    # closure: every element permutes the roots
    rs = a2_system()
    root_set = {r.coords for r in rs.roots}
    for m, _ in els:
        assert {matvec(m, r.coords) for r in rs.roots} == root_set


def classical_system(n, short):
    """The roots +-e_i +-e_j (i < j), with +-short e_i unless short is 0:
    B_n for short 1, C_n for 2 (its long roots +-2e_i), D_n for 0.  The
    simples are e_i - e_(i+1), then short e_n, or e_(n-1) + e_n for D_n."""
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    pos = [tuple(a + s * b for a, b in zip(e[i], e[j]))
           for s in (-1, 1) for i in range(n) for j in range(i + 1, n)]
    pos += [tuple(short * c for c in v) for v in e] if short else []
    simples = [tuple(a - b for a, b in zip(e[i], e[i + 1]))
               for i in range(n - 1)]
    simples.append(tuple(short * c for c in e[-1]) if short else
                   tuple(a + b for a, b in zip(e[-2], e[-1])))
    W = lambda c: Weight(c, "t")
    return RootSystem(n, tuple(W(r) for r in pos)
                      + tuple(W(tuple(-c for c in r)) for r in pos),
                      tuple(map(W, pos)), tuple(map(W, simples)))


@pytest.mark.parametrize("n, short, order", [(3, 1, 48), (3, 2, 48),
                                             (4, 0, 192)],
                         ids=["B3", "C3", "D4"])
def test_weyl_group_of_long_roots(n, short, order):
    rs = classical_system(n, short)
    els = weyl_group(rs)
    assert len(els) == order
    assert sum(det for _, det in els) == 0
    root_set = {r.coords for r in rs.roots}
    for m, _ in els:
        assert {matvec(m, r.coords) for r in rs.roots} == root_set


def test_rho_characterization():
    rs = a2_system()
    rho = HMLattice.graded(rs.rank, "t", rs.positives).rho
    for a in rs.simples:
        assert 2 * dot(rho, a) == dot(a, a)


@pytest.mark.parametrize("g", [builtin_group(n) for n in ("sl2r-compact",
                                                          "sl2r-split", "su21")]
                         + [load_group_data(SP4R)], ids=lambda g: g.name)
def test_k_rho_is_the_lattice_rho(g):
    for a in g.k_roots.simples:
        assert 2 * dot(g.t_lattice.rho, a) == dot(a, a)


def test_zchar_evaluation_on_shipped_groups():
    gc = builtin_group("sl2r-compact")
    assert gc.zchar((2,)) == 0
    assert gc.zchar((3,)) == 1
    gs = builtin_group("sl2r-split")
    assert gs.zchar((2,)) == 0
    assert gs.zchar((3,)) == 1


def test_restriction_map():
    gs = builtin_group("sl2r-split")
    r = gs.restrict_weight(gs.t_weight([5]))
    assert r.coords == ()
    gu = builtin_group("su21")
    assert gu.restrict_weight(gu.t_weight([1, 2, 3])).coords == (1, 2, 3)


def test_unknown_schema_fields_rejected():
    doc = doc_sl2_compact()
    doc["extra"] = 1
    with pytest.raises(GroupDataError) as e:
        load_group_data(json.dumps(doc))
    assert e.value.invariant == "schema"


def test_checklist_is_reported():
    g = builtin_group("su21")
    joined = " ".join(g.checklist)
    for piece in ("schema", "Weyl closure", "sign factor parity",
                  "zmprime compatibility", "restriction integrality"):
        assert piece in joined


def test_group_hash_reads_name_equality_reads_data():
    a, b = builtin_group("su21"), builtin_group("su21")
    assert a is not b and a == b and hash(a) == hash(b)
    doc = json.loads((data_dir() / "su21.json").read_text())
    doc["m"]["compact_flags"] = [False] * 6
    doc["dims"]["s_M"] = 6
    c = load_group_data(json.dumps(doc))
    assert c.name == a.name and c != a
    assert len({a: 1, c: 2}) == 2


def _leaf_paths(node, path=()):
    """Key and index paths of every non-container value of a document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for k, v in items for p in _leaf_paths(v, path + (k,))]


# small values only: the loader refuses ranks above 8 and orders above 64
# (tested above), so a larger one reaches nothing past that refusal
_FRACTION = st.sampled_from(["1/0", "-3/0", "1/2", "2/4", "1/", "x"])
_LEAF = _FRACTION | st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | _FRACTION,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["v", "rank", "x"]),
                                     inner, max_size=2)),
    max_leaves=4)


@st.composite
def _mutated_group_doc(draw):
    """A shipped group document with up to two leaves replaced."""
    name = draw(st.sampled_from(["sl2r-compact", "sl2r-split", "su21"]))
    doc = json.loads((data_dir() / f"{name}.json").read_text())
    paths = _leaf_paths(doc)
    for path in draw(st.lists(st.sampled_from(paths), max_size=2,
                              unique=True)):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(_LEAF)
    return json.dumps(doc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=_mutated_group_doc())
def test_mutated_group_documents_load_or_raise_group_data_error(text):
    try:
        load_group_data(text)
    except GroupDataError:
        pass


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), m=st.integers(1, 3), n=st.integers(1, 4))
def test_fibre_map_solves_the_restriction(data, m, n):
    """For b = R x, the consistency rows vanish on b, and x is the solution
    whose free coordinates are its own: d x = a b + sum_f x_f dirs_f.  A
    signed permutation u carries it, d u x = u a b + sum_f x_f u dirs_f, as
    Blattner's formula reads it per W_K term.  Any c gives d solve(c) = a c
    when the consistency rows vanish on c, and None otherwise."""
    ints = st.integers(-3, 3)
    mat = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                             min_size=m, max_size=m))
    x = data.draw(st.lists(ints, min_size=n, max_size=n))
    fibres = groups.Fibres.of(mat, n)
    b = groups.matvec(mat, x)
    assert not any(groups.matvec(fibres.consistency, b))
    want = list(groups.matvec(fibres.a, b))
    for f, v in zip(fibres.free, fibres.dirs):
        want = [y + x[f] * z for y, z in zip(want, v)]
    assert want == [fibres.d * c for c in x]

    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n,
                               max_size=n))
    u = [[s * int(j == p) for j in range(n)] for s, p in zip(signs, perm)]
    got = list(groups.matvec(u, groups.matvec(fibres.a, b)))
    for f, v in zip(fibres.free, fibres.dirs):
        got = [y + x[f] * z for y, z in zip(got, groups.matvec(u, v))]
    assert got == [fibres.d * c for c in groups.matvec(u, x)]

    for c in (b, data.draw(st.lists(ints, min_size=m, max_size=m))):
        sol = fibres.solve(c)
        if any(groups.matvec(fibres.consistency, c)):
            assert sol is None
        else:
            assert [fibres.d * y for y in sol] == list(
                groups.matvec(fibres.a, c))
            assert groups.matvec(mat, sol) == tuple(c)
