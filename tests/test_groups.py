"""Group-data loading, validation, Weyl groups, rho shifts."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from kbranch import groups
from kbranch.characters import Weight, pairing
from kbranch.groups import (GroupDataError, RootSystem, builtin_group,
                            data_dir, load_group_data, rho_half_sum,
                            weyl_group)


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
    assert not any(gc.compact_flags)
    assert gc.restricted_roots == ()
    assert gc.hm.ztable.order == 2

    gs = builtin_group("sl2r-split")
    assert gs.m_roots.rank == 0
    assert gs.hm.ztable.order == 2
    assert [r.coords for r in gs.restricted_positives] == [(2,)]
    assert gs.zgens[0].w is None  # -I does not lie in the trivial torus

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


def test_rho_half_sum_examples():
    assert rho_half_sum([], rank=2, lattice="x").coords == (0, 0)
    r = rho_half_sum([Weight((2,), "t")])
    assert r.coords == (1,) and r.denom == 1
    r2 = rho_half_sum([Weight((1, -1), "t")])
    assert r2.coords == (1, -1) and r2.denom == 2


def test_weyl_group_rank1():
    rs = RootSystem(1, (Weight((2,), "t"), Weight((-2,), "t")),
                    (Weight((2,), "t"),), (Weight((2,), "t"),))
    els = weyl_group(rs)
    assert len(els) == 2
    assert sorted(e.det for e in els) == [-1, 1]


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
    assert sorted(e.det for e in els) == [-1, -1, -1, 1, 1, 1]
    # closure: every element permutes the roots
    rs = a2_system()
    root_set = {r.coords for r in rs.roots}
    for e in els:
        assert {e.apply(r).coords for r in rs.roots} == root_set


def test_rho_characterization():
    rs = a2_system()
    rho = rho_half_sum(rs.positives)
    for a in rs.simples:
        assert pairing(rho, a) == 1


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
