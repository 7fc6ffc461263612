"""The multiplicity engine: validation verdicts, virtual characters,
series/partition modes, Blattner tables, signs, and an independent SU(2,1)
oracle."""

import hashlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from operator import add, mul, sub
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kbranch.branching import (InvalidParamsError, KTypeTable, TableSizeError,
                               TemperedParams, box_table, ktype_multiplicity,
                               ktype_table, ktype_table_series, sign_factor,
                               table_of, validate_params)
from kbranch import branching, groups, ktypes
from kbranch.characters import (CutoffError, HMLattice, LatticeError, Weight,
                                char_mul)
from kbranch.groups import (_BUILTIN_DIR, GroupDataError, builtin_group,
                            load_group_data, simple_roots)
from kbranch.ktypes import KType, key_index
from kbranch.presets import (resolve_params, sl2_discrete, sl2_principal,
                             su21_from_lambda)
from kbranch.sl2_oracles import SL2Series, sl2_branching
from kbranch.verify import _sl2_param_sets, random_su21_params
from brauer_klimyk import dominant

GC = builtin_group("sl2r-compact")
GS = builtin_group("sl2r-split")
GU = builtin_group("su21")


def restrict_to_hm(g, hw):
    """The restriction of one K-type as a map {H-key: m}, read off its index."""
    return {k: m for k, [(_, m)] in key_index(g, [hw]).items()}


STD_POS = ((1, -1, 0), (1, 0, -1), (0, 1, -1))


def dot(a, b):
    """The inner product of two coordinate tuples."""
    return sum(x * y for x, y in zip(a, b))


def _signed(r, up):
    """The Levi root r, or its negative, as a root of a positive system."""
    return r if up else tuple([-x for x in r])


# ---------------------------------------------------------------- verdicts

def test_validate_discrete_nonzero():
    assert validate_params(GC, sl2_discrete(GC, 3, "+")).verdict == "nonzero"


def test_validate_limit_nonzero_vacuous_compact_condition():
    assert validate_params(GC, sl2_discrete(GC, 0, "+")).verdict == "nonzero"


def test_validate_su21_zero_on_compact_wall():
    p = su21_from_lambda(GU, [2, 2, -1], rmplus=[[1, -1, 0], [1, 0, -1],
                                                 [0, 1, -1]])
    v = validate_params(GU, p)
    assert v.verdict == "zero"
    assert "(1, -1, 0)" in v.reason


@pytest.mark.parametrize("lattice, denom", [(GU.t_lattice.lattice, 1),
                                            (GU.hm.lattice, 2)])
def test_validate_refuses_root_coordinates_that_are_not_roots(lattice,
                                                              denom):
    # the coordinates of the su21 positives, on the lattice of T or halved:
    # a verdict, not a LatticeError from grading the positive system
    p = su21_from_lambda(GU, [3, 1, -1])._replace(rmplus=tuple(
        Weight(r, lattice, denom) for r in STD_POS))
    v = validate_params(GU, p)
    assert v.verdict == "invalid"
    assert v.reason == "positive system contains non-roots or duplicates"


_P1, _P2 = su21_from_lambda(GU, [3, 1, -1]), su21_from_lambda(GU, [4, 1, -2])
_ZERO = su21_from_lambda(GU, [2, 2, -1], rmplus=[[1, -1, 0], [1, 0, -1],
                                                 [0, 1, -1]])


@pytest.mark.parametrize("p", [_P1, _ZERO], ids=["p1", "zero"])
def test_validate_reads_list_coordinates_as_tuples(p):
    # a Weight built from lists holds tuples: the verdict of the same
    # values, not a TypeError from the chamber cache, and so is a K-type's
    def listed(w):
        return Weight(list(w.coords), w.lattice, w.denom)
    q = p._replace(lam=listed(p.lam))
    assert validate_params(GU, q) == validate_params(GU, p)
    hw = GU.t_weight((3, 2, -2))  # multiplicity 1 for p1, 0 for zero
    assert (ktype_multiplicity(GU, q, KType(listed(hw)))
            == ktype_multiplicity(GU, p, KType(hw)))


@pytest.mark.parametrize("judged", [(GU, _P2), (GU, _P1), (GU, _ZERO)],
                         ids=["p2", "p1", "zero"])
def test_table_of_a_verdict_is_ktype_table(judged):
    # the verdict names what it judged: table_of needs nothing beside it
    assert table_of(validate_params(*judged), 4) == ktype_table(*judged, 4)


@pytest.mark.parametrize("g, p, judged", [
    (GC, sl2_discrete(GC, 3, "+"), (GU, _P1))], ids=["other-group"])
def test_a_verdict_is_refused_with_what_it_did_not_judge(monkeypatch, g, p,
                                                         judged):
    # the verdict tables its own group, and another group's parameters
    # judged against that group are refused before any walk or box runs
    verdict = validate_params(*judged)
    assert verdict.group is judged[0] and table_of(verdict, 4) == ktype_table(
        *judged, 4) != ktype_table(g, p, 4)
    foreign = validate_params(judged[0], p)
    for name in ("_blattner_table", "_box"):
        monkeypatch.setattr(branching, name, None)
    with pytest.raises(InvalidParamsError) as e:
        table_of(foreign, 4)
    assert str(e.value) == ("invalid: parameter is not a weight of the "
                            "Levi Cartan")


def test_a_verdict_is_bound_by_equality():
    # equal parameters, and an equal group loaded apart, give a verdict
    # that tables as the first pair does
    q = su21_from_lambda(GU, [3, 1, -1])
    verdict = validate_params(builtin_group("su21"), q)
    assert q is not _P1 and table_of(verdict, 4) == ktype_table(GU, _P1, 4)
    assert table_of(validate_params(GU, _ZERO), 4).entries == {}


def test_validate_rejects_nondominant():
    p = TemperedParams(GC.tm_weight([-3]), ((2,),), 0,
                       GC.a_weight([]))
    assert validate_params(GC, p).verdict == "invalid"


def test_validate_rejects_wrong_component_character():
    p = TemperedParams(GC.tm_weight([3]), ((2,),), 1,
                       GC.a_weight([]))
    v = validate_params(GC, p)
    assert v.verdict == "invalid"
    assert "component character" in v.reason


@pytest.mark.parametrize("chi", [0.0, False, True, 0.5])
@pytest.mark.parametrize("g, p, hw", [
    (GU, su21_from_lambda(GU, [3, 1, -1]), [4, 1, -2]),
    (GC, sl2_discrete(GC, 3, "+"), [4])], ids=["su21", "sl2r-compact"])
def test_validate_refuses_a_chi_that_is_not_an_int(g, p, hw, chi):
    # an index equal to a valid one, or between two, is still no index
    p = p._replace(chi=chi)
    v = validate_params(g, p)
    assert v == ("invalid", g, f"no component character with index {chi}",
                 None, None)
    for evaluate in (lambda: ktype_table(g, p, 4),
                     lambda: box_table(g, p, 4, "partition"),
                     lambda: ktype_multiplicity(g, p, KType(g.t_weight(hw)))):
        with pytest.raises(InvalidParamsError):
            evaluate()


def test_validate_rejects_non_positive_system():
    # closed-but-unpointed sign choice of the rank-two system
    bad = ((1, -1, 0), (-1, 0, 1), (0, 1, -1))
    p = TemperedParams(GU.tm_weight([0, 0, 0]), bad, 0, GU.a_weight([]))
    v = validate_params(GU, p)
    assert v.verdict == "invalid"
    assert "pointed" in v.reason


def test_validate_rejects_nonintegral_shift():
    p = TemperedParams(GC.tm_weight([1], denom=2), ((2,),), 0,
                       GC.a_weight([]))
    v = validate_params(GC, p)
    assert v.verdict == "invalid"
    assert "lift" in v.reason


# sl2r-compact's document with R = (2): the torus restriction descends the
# Z' generator with d = 2 (zgen_w is ((2, (1,)),)), so its value at a lifted
# parameter can be inexact
CIRCLE2 = load_group_data(json.dumps({
    "name": "circle-r2",
    "k": {"rank": 1, "roots": [], "positives": [], "simples": []},
    "m": {"rank": 1, "roots": [[2], [-2]], "positives": [[2]],
          "compact_flags": [False, False]},
    "restricted": {"dim_a": 0, "roots": [], "positives": []},
    "tM_in_t": [[2]],
    "zmprime": {"order": 2,
                "generators": [{"v": ["1/2"], "char_table_row": [0, 1]}]},
    "dims": {"s_M": 2, "a": 0}}))
_U = su21_from_lambda(GU, [3, 1, -1])


@pytest.mark.parametrize("g, p, want", [
    (GU, _U._replace(lam=GU.t_weight([3, 1, -1])),
     "invalid: parameter is not a weight of the Levi Cartan"),
    (GU, _U._replace(lam=GC.tm_weight([3])),
     "invalid: parameter is not a weight of the Levi Cartan"),
    (GU, _U._replace(lam=[3, 1, -1]),
     "invalid: parameter is not a weight of the Levi Cartan"),
    (GU, _U._replace(nu=GU.tm_weight([])),
     "invalid: continuous parameter is not a weight of the split part"),
    (GU, _U._replace(nu=GC.a_weight([])),
     "invalid: continuous parameter is not a weight of the split part"),
    (GU, _U._replace(nu=[]),
     "invalid: continuous parameter is not a weight of the split part"),
    (GU, _U._replace(rmplus=STD_POS[:2] + STD_POS[:1]),
     "invalid: positive system contains non-roots or duplicates"),
    (GU, _U._replace(rmplus=None),
     "invalid: positive system contains non-roots or duplicates"),
    # an entry that is not a tuple of ints is no root, though (1.0, 0, -1)
    # and (True, 0, -1) compare and hash equal to the root (1, 0, -1)
    *[(GU, _U._replace(rmplus=rmplus),
       "invalid: positive system contains non-roots or duplicates")
      for rmplus in (list(STD_POS), (STD_POS[0], [1, 0, -1], STD_POS[2]),
                     (STD_POS[0], GU.tm_weight([1, 0, -1]), STD_POS[2]),
                     (STD_POS[0], (1.0, 0, -1), STD_POS[2]),
                     (STD_POS[0], (True, 0, -1), STD_POS[2]))],
    (GU, _U._replace(rmplus=STD_POS[:2]),
     "invalid: positive system does not split the roots into halves"),
    (GU, _U._replace(rmplus=(STD_POS[0], (-1, 1, 0), STD_POS[2])),
     "invalid: positive system does not split the roots into halves"),
    (GU, _U._replace(rmplus=((1, -1, 0), (-1, 0, 1), (0, 1, -1))),
     "invalid: chosen positive system is not pointed at (1, -1, 0)"),
    (GU, _U._replace(lam=GU.tm_weight([1, 3, -1])),
     "invalid: parameter is not dominant for the root (1, -1, 0)"),
    (GC, TemperedParams(GC.tm_weight([3], denom=2), ((2,),), 0,
                        GC.a_weight([])),
     "invalid: parameter minus rho does not lift to the torus"),
    (GC, sl2_discrete(GC, 2, "+")._replace(chi=0),
     "invalid: component character disagrees with the shifted parameter on "
     "the torus overlap"),
    (CIRCLE2, TemperedParams(CIRCLE2.tm_weight([0]),
                             ((2,),), 0,
                             CIRCLE2.a_weight([])),
     "invalid: shifted parameter has no exact value at a component "
     "generator"),
    # lambda = 3: the shifted parameter 2 takes the value 2 / d = 1 there
    (CIRCLE2, TemperedParams(CIRCLE2.tm_weight([3]),
                             ((2,),), 1,
                             CIRCLE2.a_weight([])), "nonzero"),
    (CIRCLE2, TemperedParams(CIRCLE2.tm_weight([3]),
                             ((2,),), 0,
                             CIRCLE2.a_weight([])),
     "invalid: component character disagrees with the shifted parameter on "
     "the torus overlap"),
    (GU, _U._replace(lam=GU.tm_weight([2, 2, -1]),
                     rmplus=((1, -1, 0), (0, 1, -1), (1, 0, -1))),
     "zero: parameter orthogonal to simple compact root (1, -1, 0)"),
], ids=["lam-lattice", "lam-rank", "lam-list", "nu-lattice", "nu-rank",
        "nu-list", "duplicates", "rmplus-none", "rmplus-list", "root-list",
        "root-weight", "root-float", "root-bool", "too-few", "not-halves",
        "not-pointed", "not-dominant", "no-lift", "component", "inexact",
        "d2-nonzero", "d2-component", "zero"])
def test_every_verdict_reason_byte_for_byte(g, p, want):
    v = validate_params(g, p)
    assert str(v) == want
    assert (v.chamber is None) == (want != "nonzero")


# ------------------------------------------------------- virtual character

def _virtual_character(g, p, cutoff):
    """The terms (doubled height, key, m) of e^base times the chamber's
    series, as the series oracle reads it, the series built for the doubled
    height of the cutoff."""
    prep = validate_params(g, p)
    hm = prep.chamber.hm
    return char_mul(hm, (None, [(hm.key_height2(prep.base), prep.base, 1)]),
                    branching._series(prep.chamber, 2 * cutoff))[1]


def test_virtual_character_discrete():
    W = _virtual_character(GC, sl2_discrete(GC, 3, "+"), 12)
    got = {c[0]: m for _, (c, _), m in W}
    assert all(m == 1 for m in got.values())
    assert set(got) >= {4, 6, 8, 10}
    assert all(k >= 4 and k % 2 == 0 for k in got)
    assert all(z == 0 for _, (_, z), _ in W)


def test_virtual_character_split_is_single_term():
    W = _virtual_character(GS, sl2_principal(GS, "plus"), 5)
    assert [(c, z, m) for _, (c, z), m in W] == [((), 0, 1)]


def test_virtual_character_limit():
    W = _virtual_character(GC, sl2_discrete(GC, 0, "+"), 9)
    got = sorted(c[0] for _, (c, _), _ in W)
    assert got == [1, 3, 5, 7, 9]


# ------------------------------------------------------------ multiplicity

@pytest.mark.parametrize("mode", ["series", "partition"])
def test_multiplicity_discrete_examples(mode):
    p = sl2_discrete(GC, 3, "+")
    vals = {k: ktype_multiplicity(GC, p, KType(GC.t_weight([k])), mode)
            for k in (4, 5, -4)}
    assert vals == {4: 1, 5: 0, -4: 0}


@pytest.mark.parametrize("mode", ["series", "partition"])
def test_multiplicity_principal_examples(mode):
    p = sl2_principal(GS, "plus")
    assert ktype_multiplicity(GS, p, KType(GS.t_weight([2])), mode) == 1
    assert ktype_multiplicity(GS, p, KType(GS.t_weight([3])), mode) == 0


def test_multiplicity_trivial_group():
    doc = {
        "name": "trivial",
        "k": {"rank": 0, "roots": [], "positives": [], "simples": []},
        "m": {"rank": 0, "roots": [], "positives": [], "compact_flags": []},
        "restricted": {"dim_a": 0, "roots": [], "positives": []},
        "tM_in_t": [],
        "zmprime": {"order": 1, "generators": []},
        "dims": {"s_M": 0, "a": 0},
    }
    g = load_group_data(json.dumps(doc))
    p = TemperedParams(g.tm_weight([]), (), 0, g.a_weight([]))
    assert validate_params(g, p).verdict == "nonzero"
    assert ktype_multiplicity(g, p, KType(g.t_weight([]))) == 1


def test_a_zero_verdict_has_multiplicity_0_at_every_ktype():
    # a zero verdict is the zero representation, so every evaluator reads
    # it as multiplicity 0: ktype_multiplicity at each K-type as the box
    # tables do over the window, in both modes
    assert validate_params(GU, _ZERO).verdict == "zero"
    kts = [KType(GU.t_weight(hw)) for hw in ktypes.enumerate_ktypes(GU, 4)]
    for mode in ("partition", "series"):
        assert box_table(GU, _ZERO, 4, mode).entries == {}
        assert {ktype_multiplicity(GU, _ZERO, kt, mode) for kt in kts} == {0}
    # a K-type that is not dominant is refused still, and invalid
    # parameters before it
    bad = KType(GU.t_weight([0, 1, 0]))
    with pytest.raises(LatticeError, match="not a dominant integral weight"):
        ktype_multiplicity(GU, _ZERO, bad)
    with pytest.raises(InvalidParamsError):
        ktype_multiplicity(GU, _ZERO._replace(chi=1), bad)


# ------------------------------------------------------------------ tables

def test_table_discrete_d1_window_10():
    t = ktype_table(GC, sl2_discrete(GC, 1, "+"), 10)
    assert t.entries == {(k,): 1 for k in (2, 4, 6, 8, 10)}
    assert t.sign == -1


def test_table_principal_minus_window_5():
    t = ktype_table(GS, sl2_principal(GS, "minus"), 5)
    assert t.entries == {(k,): 1 for k in (-5, -3, -1, 1, 3, 5)}
    assert t.sign == 1


def test_table_zero_verdict_is_empty():
    p = su21_from_lambda(GU, [2, 2, -1], rmplus=[[1, -1, 0], [1, 0, -1],
                                                 [0, 1, -1]])
    t = ktype_table(GU, p, 4)
    assert t.entries == {}


def test_sign_factor_examples():
    assert sign_factor(GC) == -1
    assert sign_factor(GS) == 1
    assert sign_factor(GU) == 1


def test_nu_independence_examples():
    # the table does not read the continuous parameter
    for chi in ("plus", "minus"):
        p = sl2_principal(GS, chi)
        t = ktype_table(GS, p, 10)
        assert t.entries
        for nu in (1, 3, 7, -50):
            assert ktype_table(GS, p._replace(nu=GS.a_weight([nu])), 10) == t


def test_nonnegative_multiplicities():
    rng = random.Random(5)
    for _ in range(10):
        p = random_su21_params(GU, rng)
        t = ktype_table(GU, p, 4)
        assert all(m > 0 for m in t.entries.values())


def test_w_equivariance_of_parameters():
    lam = GU.tm_weight([3, 1, -1])
    p1 = TemperedParams(lam, STD_POS, 0, GU.a_weight([]))
    # reflect by the compact root (swap the first two coordinates)
    p2 = TemperedParams(GU.tm_weight([1, 3, -1]),
                        tuple((b, a, c) for a, b, c in STD_POS), 0,
                        GU.a_weight([]))
    assert ktype_table(GU, p1, 5) == ktype_table(GU, p2, 5)


SP4R = load_group_data(Path(__file__).parent / "data" / "sp4r.json")


def _chamber(g, lam, denom=1):
    """A regular parameter on the Levi positive system it picks."""
    w = g.tm_weight(lam, denom)
    return TemperedParams(w, tuple(_signed(r, dot(w.coords, r) > 0)
                                   for r in g.m_roots.positives),
                          0, g.a_weight([]))


_SU21_RNG = random.Random(20261018)
PREPARED = ([(g, p) for _, g, p, _ in _sl2_param_sets()]
            + [(GU, random_su21_params(GU, _SU21_RNG)) for _ in range(30)]
            + [(SP4R, _chamber(SP4R, lam)) for lam in
               [(2, 1), (3, 1), (5, 2), (6, 1), (2, -1), (3, -1), (4, -3),
                (1, -2)]])


def test_prepared_samples_include_singular_parameters():
    assert any(dot(p.lam.coords, a) == 0 for g, p in PREPARED
               if g is GU for a in p.rmplus)


@pytest.mark.parametrize("g, p", PREPARED,
                         ids=[f"{g.name}-{i}" for i, (g, _) in
                              enumerate(PREPARED)])
def test_prepared_lattice_holds_rho_and_base(g, p):
    """The prepared lattice's height covector, 2 rho, pairs to (a, a) with
    every simple root a of the parameters' positive system, and the base is
    lambda - rho_c + rho_n from explicit coordinate half-sums."""
    prep = validate_params(g, p)
    hv = prep.chamber.hm.height_vec
    for a in simple_roots(p.rmplus):
        assert dot(hv, a) == dot(a, a)
    compact = [r for r in p.rmplus if g.compact_of[r]]
    noncompact = [r for r in p.rmplus if not g.compact_of[r]]
    two_rho_n_less_two_rho_c = [sum(c[i] for c in noncompact)
                                - sum(c[i] for c in compact)
                                for i in range(g.hm.rank)]
    # lambda + (2rho_n - 2rho_c) / 2, over the common denominator 2
    assert prep.base == g.hm.char(Weight(
        [2 // p.lam.denom * x + y
         for x, y in zip(p.lam.coords, two_rho_n_less_two_rho_c)],
        g.hm.lattice, 2), p.chi)


@pytest.mark.parametrize("table", [ktype_table, ktype_table_series],
                         ids=["partition", "series"])
def test_tables_validate_once(monkeypatch, table):
    import kbranch.branching as branching
    calls = []

    def counted(g, p):
        calls.append(p)
        return validate_params(g, p)

    monkeypatch.setattr(branching, "validate_params", counted)
    p = su21_from_lambda(GU, [3, 1, -1])
    counts = []
    for window in (2, 4):
        calls.clear()
        table(GU, p, window)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_mode_equivalence_table_level():
    for p in (sl2_discrete(GC, 2, "-"), sl2_discrete(GC, 0, "-")):
        assert ktype_table(GC, p, 40) == ktype_table_series(GC, p, 40)
    rng = random.Random(11)
    for _ in range(5):
        p = random_su21_params(GU, rng)
        assert ktype_table(GU, p, 5) == ktype_table_series(GU, p, 5)


# ------------------------------------------------- Blattner evaluator

def all_noncompact_su21():
    """su21 with every Levi root flagged noncompact: it loads, but the K
    root no longer maps onto a compact Levi root, so Blattner's formula
    does not apply."""
    return load_group_data(Path(__file__).parent / "data"
                           / "su21-noncompact.json")


def test_blattner_applies_on_shipped_groups_only():
    assert all(g.blattner_applies for g in (GC, GS, GU))
    assert not all_noncompact_su21().blattner_applies


def test_engine_reads_the_weyl_group_from_load(monkeypatch):
    doc = json.loads((_BUILTIN_DIR / "su21.json").read_text())
    doc["name"] = "su21-fresh"  # no cache has seen this group
    g = load_group_data(json.dumps(doc))
    weyl_group = groups.weyl_group
    calls = []

    def counted(rs):
        calls.append(rs)
        return weyl_group(rs)

    for mod in (groups, branching, ktypes):
        if getattr(mod, "weyl_group", None) is weyl_group:
            monkeypatch.setattr(mod, "weyl_group", counted)
    p = su21_from_lambda(g, [3, 1, -1])
    ktype_table(g, p, 6)
    ktype_table_series(g, p, 4)
    ktype_multiplicity(g, p, KType(g.t_weight([4, 1, -2])))
    ktypes._kostant(g, (5, 0, -3))
    assert calls == []
    assert len(g.k_weyl) == 2


def _counted_lifts(monkeypatch):
    """The (key, entries) of every key a box lifts from here on: each first
    read of a key of the window, and each read of a key of none."""
    lift, lifted = ktypes.KTypeBox._lift, []

    def counted(box, key):
        rows = lift(box, key)
        lifted.append((key, len(rows)))
        return rows

    monkeypatch.setattr(ktypes.KTypeBox, "_lift", counted)
    return lifted


def test_series_tables_share_the_restriction_cache(monkeypatch):
    # a second table at the same window, of either oracle, re-lifts no key
    # of the window that an earlier one read
    p = su21_from_lambda(GU, [4, 1, -2])
    ktypes.ktype_box.cache_clear()
    lifted = _counted_lifts(monkeypatch)
    ktype_table_series(GU, p, 4)
    first = sum(1 for _, n in lifted if n)
    ktype_table_series(GU, su21_from_lambda(GU, [3, 1, -1]), 4)
    box_table(GU, p, 4, "partition")
    held = [key for key, n in lifted if n]
    assert 0 < first < len(held) == len(set(held))
    assert ktypes.ktype_box.cache_info().misses == 1


# the eight series tables of an oracle-mix round (perfbench, seed 1)
ORACLE_MIX_SERIES = [
    ([-4, 3, 4], None), ([-4, 4, 4], [[-1, 1, 0], [-1, 0, 1], [0, 1, -1]]),
    ([-2, 3, 1], None), ([-4, 3, 3], [[-1, 1, 0], [-1, 0, 1], [0, 1, -1]]),
    ([-4, 1, -2], None), ([3, 1, 1], [[1, -1, 0], [1, 0, -1], [0, 1, -1]]),
    ([3, 1, 2], None), ([-4, 2, -4], [[-1, 1, 0], [1, 0, -1], [0, 1, -1]])]


def test_series_tables_lift_only_the_keys_they_read(monkeypatch):
    # the round's tables make 98 reads of 95 distinct keys (3 keys that no
    # K-type of the window holds are read twice) and keep the 47 keys that
    # K-types of the window hold, with 122 (K-type, key) entries; a box of
    # the whole window held 2,197 keys and 5,915 entries
    ktypes.ktype_box.cache_clear()
    lifted = _counted_lifts(monkeypatch)
    for lam, rmplus in ORACLE_MIX_SERIES:
        doc = {"lambda": lam} if rmplus is None else {"lambda": lam,
                                                       "rmplus": rmplus}
        ktype_table_series(GU, resolve_params(GU, doc), 6)
    held = [n for _, n in lifted if n]
    assert len(lifted) <= 98 and len(held) <= 47 and sum(held) <= 122


def test_box_cache_evicts_past_its_maxsize():
    # four boxes, each keeping the keys of its window that were read and
    # none of those read that no K-type of its window holds
    box = ktypes.ktype_box
    box.cache_clear()
    size = box.cache_info().maxsize
    for window in range(size + 1):
        for key in key_index(GU, ktypes.enumerate_ktypes(GU, window + 1)):
            box(GU, window).get(key)
        assert box(GU, window)._lifted.keys() == key_index(
            GU, ktypes.enumerate_ktypes(GU, window)).keys()
    assert box.cache_info().currsize == size
    box(GU, size)  # the newest stays
    assert box.cache_info().misses == size + 1
    box(GU, 0)  # the oldest was evicted
    assert box.cache_info().misses == size + 2


def _top2(keys, hv):
    """The highest doubled height of a set of H-keys, -1 if it has none, by
    the scan that the closed forms replace."""
    return max((sum(x * y for x, y in zip(c, hv)) for c, _ in keys),
               default=-1)


def test_box_tables_agree_with_ktype_table():
    rng = random.Random(41)
    for i in range(40):
        p = random_su21_params(GU, rng)
        window = 3 + i % 6
        t = ktype_table(GU, p, window)
        assert t == ktype_table_series(GU, p, window)
        assert t == box_table(GU, p, window, "partition")
    # the highest heights of the box's keys, and of each K-type's, under a
    # covector are the closed forms'; su31's 3-cycles are the first W_K
    # elements with w^T != w, which the per-K-type heights tell apart
    a3 = [load_group_data(Path(__file__).parent / "data" / f"{name}.json")
          for name in ("su22", "su31")]
    for g, windows in ([(g, 7) for g in (GC, GS, GU, SP4R, SL2XU1, SL2XT3,
                                         all_noncompact_su21())]
                       + [(g, 3) for g in a3]):
        for window in range(windows):
            box = ktypes.enumerate_ktypes(g, window)
            index = key_index(g, box)
            for hv in {g.hm.height_vec, *itertools.product(
                    range(-1, 2), repeat=g.hm.rank)}:
                v = branching._top_covector(g, hv)
                assert window * sum(map(abs, v)) == _top2(index, hv)
                assert window > 3 or all(
                    sum(x * y for x, y in zip(mu, v))
                    == _top2(restrict_to_hm(g, mu), hv) for mu in box)


@pytest.mark.parametrize("window", [4, 6, 8])
def test_blattner_su21_matches_series_and_partition(window):
    rng = random.Random(23)
    for _ in range(4):
        p = random_su21_params(GU, rng)
        t = ktype_table(GU, p, window)
        assert t == ktype_table_series(GU, p, window)
        assert t.entries == box_table(GU, p, window, "partition").entries


def test_blattner_sl2_families_window_60():
    for _, g, p, _ in _sl2_param_sets():
        t = ktype_table(g, p, 60)
        assert t == ktype_table_series(g, p, 60)
        assert t.entries == box_table(g, p, 60, "partition").entries


SL2XSL2 = load_group_data(Path(__file__).parent / "data" / "sl2xsl2.json")


def test_sl2xsl2_tables_are_products_of_sl2_tables():
    """SL(2,R) x SL(2,R) on its compact Cartan, Z' = Z/2 x Z/2 on two
    generators: a pair of SL(2,R) families, chi the row (2 c1, 2 c2) of
    their own characters c, has the product of their closed-form tables
    with sign 1 by every evaluator, and each other chi is refused."""
    g, window = SL2XSL2, 12
    families = [(p, series) for _, gc, p, series in _sl2_param_sets()
                if gc.name == "sl2r-compact" and series.n <= 4]
    assert len(families) == 10
    for (p1, s1), (p2, s2) in itertools.product(families, repeat=2):
        (l1,), (l2,) = p1.lam.coords, p2.lam.coords
        ((r1,),), ((r2,),) = p1.rmplus, p2.rmplus
        lam, rmplus = g.tm_weight([l1, l2]), ((r1, 0), (0, r2))
        chi = g.hm.ztable.rows.index((2 * p1.chi, 2 * p2.chi))
        want = KTypeTable(
            {(a, b): m * n
             for (a,), m in sl2_branching(s1, window).entries.items()
             for (b,), n in sl2_branching(s2, window).entries.items()},
            window, 1)
        p = TemperedParams(lam, rmplus, chi, g.a_weight([]))
        assert ktype_table(g, p, window) == want
        for mode in ("partition", "series"):
            assert box_table(g, p, window, mode) == want
        for other in set(range(4)) - {chi}:
            assert str(validate_params(g, p._replace(chi=other))) == (
                "invalid: component character disagrees with the shifted "
                "parameter on the torus overlap")


def test_all_noncompact_su21_keeps_partition_table():
    g = all_noncompact_su21()
    p = su21_from_lambda(g, [3, 1, -1])
    t = ktype_table(g, p, 4)
    assert t.entries == {(4, 1, -2): 1, (4, 2, -3): 1, (4, 3, -4): 1}
    assert t.sign == -1
    assert t == ktype_table_series(g, p, 4)


def test_partition_fallback_is_the_partition_table():
    g = all_noncompact_su21()
    for lam in ([3, 1, -1], [4, -2, 1], [-1, -3, 2]):
        p = su21_from_lambda(g, lam)
        assert (ktype_table(g, p, 4).entries
                == box_table(g, p, 4, "partition").entries)


# ------------------------------------------------------ oracle boundaries

def _count_calls(monkeypatch, *targets):
    calls = Counter()
    for cls, name in targets:
        def counted(*args, _fn=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_tables_build_no_weight_per_ktype(monkeypatch):
    # K-types travel as highest-weight tuples, so a warm table builds the
    # same Weights, those of its parameters, at every window
    p = su21_from_lambda(GU, [3, 1, -1])
    calls = _count_calls(monkeypatch, (Weight, "__new__"))
    for table in (lambda w: ktype_table_series(GU, p, w),
                  lambda w: box_table(GU, p, w, "partition"),
                  lambda w: ktype_table(GU, p, w)):
        built = []
        for window in (4, 6):
            table(window)  # fills the restriction cache
            calls.clear()
            table(window)
            built.append(calls["__new__"])
        assert built[0] == built[1] < 20



@pytest.mark.parametrize("doc", [
    {"lambda": [3, 1, -1]},
    {"lambda": [3, 1, 1], "rmplus": [[1, -1, 0], [1, 0, -1], [0, 1, -1]]}],
    ids=["regular", "singular"])
def test_su21_lambda_document_builds_two_weights(monkeypatch, doc):
    # the positive system is root tuples, so resolving a lambda document
    # builds only lambda and nu as Weights, a count budget
    calls = _count_calls(monkeypatch, (Weight, "__new__"))
    assert validate_params(GU, resolve_params(GU, doc)).verdict == "nonzero"
    assert calls["__new__"] == 2


def test_call_tier_does_no_weight_arithmetic(monkeypatch):
    # the chamber and its tables are warm: lambda - rho, its Z' values and
    # the base key are integer tuples, and no key is checked as a Weight
    p = su21_from_lambda(GU, [4, 1, -2])
    want = ktype_table(GU, p, 6)
    calls = _count_calls(monkeypatch, (Weight, "__add__"), (HMLattice, "char"))
    assert table_of(validate_params(GU, p), 6) == want
    assert want.entries and calls == {}


@pytest.mark.parametrize("mode", ["partition", "series"])
def test_oracles_do_no_weight_work_per_term(monkeypatch, mode):
    # the chamber's table is built by the first evaluation, read by the next
    prep = validate_params(GU, su21_from_lambda(GU, [4, 1, -2]))
    index = key_index(GU, ktypes.enumerate_ktypes(GU, 4))
    top2 = _top2(index, prep.chamber.hm.height_vec)
    want = branching._evaluate(prep, mode, index, top2)
    calls = _count_calls(monkeypatch, (Weight, "__add__"),
                         (HMLattice, "key_height2"), (branching, "char_mul"))
    assert branching._evaluate(prep, mode, index, top2) == want
    # neither reads a Weight, checks a key or multiplies a series: the
    # table is the chamber's (certificate, terms), keyed by tuples
    assert calls == {}
    assert sum(map(len, index.values())) > 1000


def test_virtual_character_steps_coordinate_tuples(monkeypatch):
    # the roots are coordinate tuples, each checked once as a key, and
    # every term of the series is a (coordinates, Z' index) pair built by
    # tuple sums and never checked
    prep = validate_params(GU, su21_from_lambda(GU, [3, 1, -1]))
    calls = _count_calls(monkeypatch, (Weight, "__new__"), (Weight, "__add__"),
                         (Weight, "__mul__"), (Weight, "__rmul__"),
                         (HMLattice, "char"), (HMLattice, "key_height2"))
    assert len(branching._series(prep.chamber, 80)[1]) == 61
    assert calls == {"key_height2": 3}


@pytest.fixture
def cold_records():
    """A cold record cache, cleared again after the test, so that no table
    a planted builder left in a record outlives it."""
    branching._chamber.cache_clear()
    yield
    branching._chamber.cache_clear()


def test_short_certificate_raises_cutoff_error(monkeypatch, cold_records):
    # ktype_table reaches the series in its spot check only where the table
    # is not Blattner's, as on the all-noncompact su21
    p = su21_from_lambda(GU, [4, 1, -2])
    noncompact = all_noncompact_su21()
    q = _chamber(noncompact, [3, 1, -1])
    top = max(ktype_table(GU, p, 4).entries)
    assert ktype_table(noncompact, q, 4).entries
    # the chamber's series is built one cutoff short, two doubled heights;
    # each path builds its own, from a cold record
    series = branching._series
    monkeypatch.setattr(branching, "_series",
                        lambda chamber, bound2: series(chamber, bound2 - 2))
    for evaluate in (lambda: ktype_table_series(GU, p, 4),
                     lambda: ktype_table(noncompact, q, 4),
                     lambda: ktype_multiplicity(GU, p, KType(GU.t_weight(top)),
                                                "series")):
        branching._chamber.cache_clear()
        with pytest.raises(CutoffError):
            evaluate()


def test_restrict_to_hm_does_no_weight_work(monkeypatch):
    # Kostant's formula reads its partition tables, built here beforehand;
    # the restriction, of one K-type or of the window's box, then works on
    # coordinate tuples alone
    kts = ktypes.enumerate_ktypes(GU, 4)
    tables = {}
    partition_counts = ktypes.partition_counts

    def memo(roots, hm, bound2):
        if bound2 not in tables:
            tables[bound2] = partition_counts(roots, hm, bound2)
        return tables[bound2]

    monkeypatch.setattr(ktypes, "partition_counts", memo)
    calls = _count_calls(monkeypatch, (HMLattice, "char"),
                         (Weight, "__new__"), (Weight, "__add__"))

    keys = list(key_index(GU, kts))

    def box():  # every key of the window, read through a new box
        ktypes.ktype_box.cache_clear()
        return [ktypes.ktype_box(GU, 4).get(key) for key in keys]

    for restrict in (lambda: [restrict_to_hm(GU, kt) for kt in kts], box):
        for _ in range(2):  # Kostant's formula runs on each pass
            ktypes._class_keys.cache_clear()
            calls.clear()
            restricted = restrict()
        assert calls == {}
        assert sum(len(res) for res in restricted) > 1000


@pytest.mark.parametrize("kt", [
    KType(Weight((4, 1, -2), "elsewhere")),                # lattice
    KType(GU.t_weight([4, 1])),                            # wrong rank
    KType(Weight((3, 1, -1), GU.t_lattice.lattice, 2)),    # half-integral
    KType(GU.t_weight([1, 4, -2])),                        # not dominant
])
def test_ktype_off_the_group_lattice_raises(kt):
    p = su21_from_lambda(GU, [3, 1, -1])
    # a K-type from outside the engine is checked where it comes in, once:
    # HMLattice.char fixes its lattice, rank and denominator, and
    # ktype_multiplicity tests dominance
    for evaluate in (lambda: ktype_multiplicity(GU, p, kt, "partition"),
                     lambda: ktype_multiplicity(GU, p, kt, "series")):
        with pytest.raises(LatticeError):
            evaluate()


# a rank-2 torus restricting onto the compact Cartan of SL(2,R): each cone
# point has a whole line of preimages, and Z' splits them by parity
SL2XU1_DOC = {
    "name": "sl2xu1",
    "k": {"rank": 2, "roots": [], "positives": [], "simples": []},
    "m": {"rank": 1, "roots": [[2], [-2]], "positives": [[2]],
          "compact_flags": [False, False]},
    "restricted": {"dim_a": 0, "roots": [], "positives": []},
    "tM_in_t": [[1, 0]],
    "zmprime": {"order": 2, "generators": [
        {"v": ["1/2", "1/2"], "char_table_row": [0, 1]}]},
    "dims": {"s_M": 2, "a": 0}}
SL2XU1 = load_group_data(json.dumps(SL2XU1_DOC))


@pytest.mark.parametrize("doc", [
    json.loads((_BUILTIN_DIR / f"{name}.json").read_text())
    for name in ("sl2r-compact", "sl2r-split")] + [SL2XU1_DOC],
    ids=lambda doc: doc["name"])
def test_zchar_is_the_fraction_evaluation(doc):
    """The table lookup against each generator's v read from the document,
    value exp(2*pi*i*<mu, v>), as exact fractions."""
    g = load_group_data(json.dumps(doc))
    order = g.hm.ztable.order
    vs = [[Fraction(x) for x in gen["v"]]
          for gen in doc["zmprime"]["generators"]]
    for mu in itertools.product(range(-6, 7), repeat=g.k_roots.rank):
        values = [order * sum(Fraction(c) * x for c, x in zip(mu, v))
                  for v in vs]
        assert all(x.denominator == 1 for x in values)
        want = g.hm.ztable.rows.index(tuple(int(x) % order for x in values))
        assert g.zchar(mu) == want


def test_blattner_fibres_of_a_non_injective_restriction():
    g = SL2XU1
    p = TemperedParams(g.tm_weight([3]), ((2,),), 1,
                       g.a_weight([]))
    t = ktype_table(g, p, 4)
    assert t.entries == {(4, k): 1 for k in (-3, -1, 1, 3)}
    for lam, chi, root in itertools.product(range(-5, 6), (0, 1), (2, -2)):
        p = TemperedParams(g.tm_weight([lam]), ((root,),), chi,
                           g.a_weight([]))
        if validate_params(g, p).verdict == "nonzero":
            assert (ktype_table(g, p, 5).entries
                    == box_table(g, p, 5, "partition").entries)


# Blattner's formula against both oracles over the window's box
_BLATTNER_PROPERTY = settings(max_examples=100, derandomize=True,
                              deadline=None)
_WINDOWS = st.integers(0, 6)


def _agree_with_both_boxes(g, p, window):
    assume(validate_params(g, p).verdict == "nonzero")
    blattner = ktype_table(g, p, window).entries
    assert blattner == box_table(g, p, window, "partition").entries
    assert blattner == box_table(g, p, window, "series").entries


@_BLATTNER_PROPERTY
@given(lam=st.tuples(*[st.integers(-5, 5)] * 3), tie=st.booleans(),
       window=_WINDOWS)
def test_blattner_is_the_partition_box_on_su21(lam, tie, window):
    # singular parameters take the positive system that tie breaks ties for
    w = GU.tm_weight(list(lam))
    pos = tuple(_signed(r, (dot(w.coords, r), (-1) ** tie) > (0, 0))
                for r in GU.m_roots.positives)
    _agree_with_both_boxes(GU, TemperedParams(w, pos, 0, GU.a_weight([])),
                           window)


@_BLATTNER_PROPERTY
@given(lam=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       window=_WINDOWS)
def test_blattner_is_the_partition_box_on_sp4r(lam, window):
    assume(all(dot(lam, r) for r in SP4R.m_roots.positives))
    _agree_with_both_boxes(SP4R, _chamber(SP4R, lam), window)


@_BLATTNER_PROPERTY
@given(row=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       lam=st.integers(-5, 5), chi=st.integers(0, 1),
       root=st.sampled_from((2, -2)), window=_WINDOWS)
@example(row=(2, 1), lam=3, chi=0, root=2, window=6)
def test_blattner_is_the_partition_box_on_rank_2_tori(row, lam, chi, root,
                                                      window):
    # R = row restricts a rank-2 torus onto the compact Cartan of SL(2,R):
    # (2, 1) reduces with d = 2 and one free coordinate; (0, 0) has rank 0,
    # so the loader refuses it and assume drops the example
    try:
        g = load_group_data(json.dumps({**SL2XU1_DOC, "name": f"t2{row}",
                                        "tM_in_t": [list(row)]}))
    except GroupDataError:
        assume(False)
    p = TemperedParams(g.tm_weight([lam]), ((root,),), chi,
                       g.a_weight([]))
    _agree_with_both_boxes(g, p, window)


@pytest.mark.parametrize("name, order", [("su22", 4), ("su31", 6)])
def test_blattner_is_the_partition_box_on_every_chamber_of_a3(name, order):
    # |W_K| = 4 and 6, each term reading the fibres through its own signed
    # permutation; the four noncompact positives of su22 span only 3 dims.
    # Both box oracles, the partition counts and the series, agree with it
    g = load_group_data(Path(__file__).parent / "data" / f"{name}.json")
    assert (len(g.k_weyl), g.blattner_applies) == (order, True)
    for lam in itertools.permutations((3, 1, -1, -3)):
        w = g.tm_weight(lam, 2)  # lambda = w rho, for each w in W
        p = TemperedParams(w, tuple(_signed(r, dot(w.coords, r) > 0)
                                    for r in g.m_roots.positives),
                           0, g.a_weight([]))
        table = ktype_table(g, p, 5).entries
        assert table and table == box_table(g, p, 5, "partition").entries
        assert table == box_table(g, p, 5, "series").entries


SO43 = load_group_data(Path(__file__).parent / "data" / "so43.json")


def test_blattner_is_the_box_on_every_chamber_of_so43():
    # B3 with its middle simple root noncompact: K = SU(2)^3, and the 6
    # noncompact positives span rank 3, so the walk has 3 more count
    # variables than the cone has dimensions.  lambda = w rho for each of
    # the 48 w in W(B3), each a nonzero verdict
    assert (len(SO43.k_weyl), SO43.blattner_applies) == (8, True)
    chambers = 0
    for perm in itertools.permutations((5, 3, 1)):
        for signs in itertools.product((1, -1), repeat=3):
            p = _chamber(SO43, list(map(mul, signs, perm)), 2)
            assert validate_params(SO43, p).verdict == "nonzero"
            chambers += 1
            for window in range(5):
                table = ktype_table(SO43, p, window).entries
                assert table == box_table(SO43, p, window,
                                          "partition").entries
                assert window == 4 or table == box_table(
                    SO43, p, window, "series").entries
    assert chambers == 48


SL2XT3 =load_group_data(Path(__file__).parent / "data" / "sl2xt3.json")


@pytest.mark.parametrize("window", range(5))
def test_blattner_walks_three_free_coordinates(window):
    # a rank-4 torus K over the compact Cartan of SL(2,R): three of the four
    # coordinates of mu are free walk variables, the fourth reads the count
    assert len(SL2XT3.fibres.free) == 3
    for lam, root in itertools.product(range(-3, 4), (2, -2)):
        p = TemperedParams(SL2XT3.tm_weight([lam]),
                           ((root,),), 0, SL2XT3.a_weight([]))
        if validate_params(SL2XT3, p).verdict == "nonzero":
            assert (ktype_table(SL2XT3, p, window).entries
                    == box_table(SL2XT3, p, window, "partition").entries)


@pytest.mark.parametrize("window", range(7))
def test_blattner_walks_the_split_cartan(window):
    # no noncompact positive: the one walk variable is the free coordinate,
    # and the Z' character picks every other value along it
    assert (len(GS.fibres.free), GS.hm.ztable.order) == (1, 2)
    for chi, nu in itertools.product(("plus", "minus"), (0, 3)):
        p = sl2_principal(GS, chi, nu)
        assert (ktype_table(GS, p, window).entries
                == box_table(GS, p, window, "partition").entries)


def _searched_terms(g, prep):
    """Blattner's terms by the W_K search that the closed forms replace:
    w_Phi is the one w whose positive K roots R maps onto the compact
    positives, and shift_w = R(w rho_K - w_Phi rho_K), each term as (det w,
    shift_w, the walk's state map of w)."""
    matvec, target = groups.matvec, set(prep.chamber.compact)
    w_phi, = [w for w in g.k_weyl
              if {matvec(g.tm_in_t, matvec(w.matrix, a))
                  for a in g.k_roots.positives} == target]
    return w_phi.det, [
        (w.det, matvec(g.tm_in_t, [
            x - y for x, y in zip(w.rho_shift, w_phi.rho_shift)]), w.walk)
        for w in g.k_weyl]


def _term_cases():
    """Nonzero (group, parameters): su21 and Sp(4,R) in every chamber, the
    SL(2,R) families, sl2xt3 and the rank-2 tori onto SL(2,R)."""
    cases = [(GU, _chamber(GU, lam))
             for lam in itertools.product(range(-3, 4), repeat=3)
             if all(dot(lam, r) for r in GU.m_roots.positives)]
    # the 8 Sp(4,R) chambers of the test data and their compact mirrors
    cases += [(SP4R, _chamber(SP4R, lam[::s])) for lam in
              [(2, 1), (3, 1), (5, 2), (6, 1), (2, -1), (3, -1), (4, -3),
               (1, -2)] for s in (1, -1)]
    cases += [(g, p) for _, g, p, _ in _sl2_param_sets()]
    tori = [SL2XT3] + [
        load_group_data(json.dumps({**SL2XU1_DOC, "name": f"t2{row}",
                                    "tM_in_t": [list(row)]}))
        for row in itertools.product(range(-2, 3), repeat=2) if any(row)]
    cases += [(g, TemperedParams(g.tm_weight([lam]), ((root,),),
                                 chi, g.a_weight([])))
              for g in tori for lam, chi, root in itertools.product(
                  range(-3, 4), range(g.hm.ztable.order), (2, -2))]
    return [(g, p) for g, p in cases
            if validate_params(g, p).verdict == "nonzero"]


def test_blattner_terms_are_the_searched_terms():
    # a term holds eps det(w) as its det and shift_w as its state and
    # height: the state map is one to one (R has full row rank, so the
    # fibres' map is the rows of one invertible elimination, carried by
    # w^T), so the state pins the shift
    signs = Counter()
    for g, p in _term_cases():
        prep = validate_params(g, p)
        chamber, (eps, searched) = prep.chamber, _searched_terms(g, prep)
        hv = chamber.hm.height_vec
        assert [(t.det, t.state, t.height, t.walk)
                for t in chamber.terms] == [
            (eps * det, groups.matvec(walk, shift), dot(hv, shift), walk)
            for det, shift, walk in searched]
        assert chamber.shift_top == max(dot(hv, shift)
                                        for _, shift, _ in searched)
        signs[g.name, eps] += 1
    # both compact chambers of su21 and of Sp(4,R)
    assert all(signs[name, eps] for name in ("su21", "sp4r")
               for eps in (1, -1))
    assert signs["sl2xt3", 1] and len(signs) > 10


def test_blattner_partition_calls_track_rows(monkeypatch):
    # the one partition table is the spot check's, over its three rows
    partition_counts, evaluate = branching.partition_counts, branching._evaluate
    checking, built = [], []

    def refuse(*args):
        if checking != ["partition"]:
            raise AssertionError("the Blattner path built a partition table")
        built.append(args)
        return partition_counts(*args)

    def spot_check(prep, mode, index, top2):
        checking.append(mode)
        try:
            return evaluate(prep, mode, index, top2)
        finally:
            checking.pop()

    blattner = branching._blattner_table
    returned = []

    def counted(*args):
        returned.append(blattner(*args))
        return returned[-1]

    monkeypatch.setattr(branching, "partition_counts", refuse)
    monkeypatch.setattr(branching, "_evaluate", spot_check)
    monkeypatch.setattr(branching, "_blattner_table", counted)
    branching._chamber.cache_clear()  # the check builds its chamber's table
    t = ktype_table(GU, su21_from_lambda(GU, [3, 1, -1]), 16)
    # the box holds 18,513 K-types, each needing |W_K| = 2 counts; the walk
    # returns the K-types some term reaches, before the terms cancel
    assert len(t.entries) == 28
    assert len(returned) == 1 and len(built) == 1
    assert len(returned[0]) <= 10 * len(t.entries)


def _count_walk(monkeypatch):
    """Counts of the lines and (n, w) points that the walks of the terms
    return."""
    walk, funnel = branching._walk, Counter()

    def counted(state, levels):
        lines = list(walk(state, levels))
        funnel["lines"] += len(lines)
        funnel["points"] += sum(hi - lo + 1 for _, lo, hi in lines)
        return lines

    monkeypatch.setattr(branching, "_walk", counted)
    return funnel


@pytest.mark.parametrize("g, lam, window, lines, points", [
    (GU, [3, 1, -1], 16, 20, 112),
    (GU, [3, 1, -1], 64, 92, 1984),
    (GU, [5, -2, 0], 16, 12, 180),
    (GU, [5, -2, 0], 64, 60, 3780),
    (SP4R, [2, -1], 32, 240, 5080),
    (SP4R, [3, 1], 32, 421, 2255),
], ids=lambda x: getattr(x, "name", None))
def test_blattner_funnel_budget(monkeypatch, g, lam, window, lines, points):
    # today's counts are the ceilings: a walk that loses its window or
    # dominance cut reaches more lines and points
    funnel = _count_walk(monkeypatch)
    assert ktype_table(g, _chamber(g, lam), window).entries
    assert funnel["lines"] <= lines and funnel["points"] <= points


@pytest.mark.parametrize("window, walked", [(16, 20), (64, 51)])
def test_a_walk_past_its_line_cap_is_refused(monkeypatch, window, walked):
    # su21 [3, 1, -1] walks 20 lines at window 16 and 92 at window 64: with
    # a cap of 50 the first is served, the second refused at line 51
    walk, read = branching._walk, []

    def counted(state, levels):
        for line in walk(state, levels):
            read.append(line)
            yield line

    monkeypatch.setattr(branching, "_walk", counted)
    monkeypatch.setattr(branching, "MAX_WALK_LINES", 50)
    p = _chamber(GU, [3, 1, -1])
    if window == 16:
        assert ktype_table(GU, p, window).entries
    else:
        with pytest.raises(TableSizeError) as e:
            ktype_table(GU, p, window)
        assert str(e.value) == ("su21: window 64 would walk more than 50 "
                                "lines of Blattner's formula")
    assert len(read) == walked


def test_top_covector_once_per_chamber(monkeypatch):
    # v is the positive system's: the first evaluation derives it, with the
    # chamber's record, and the next two read that record
    calls = _count_calls(monkeypatch, (branching, "_top_covector"))
    p = su21_from_lambda(GU, [3, 1, -1])
    branching._chamber.cache_clear()
    for evaluate, derived in ((lambda: ktype_table(GU, p, 6), 1),
                              (lambda: box_table(GU, p, 6, "series"), 0),
                              (lambda: ktype_multiplicity(
                                  GU, p, KType(GU.t_weight([4, 1, -2]))), 0)):
        calls.clear()
        evaluate()
        assert calls["_top_covector"] == derived


# sha256 of the JSON list of the rows of the 648 tables below, in order
_SU21_W6_ROWS = ("1c261d5a2d73813b5a76f91aeb787d3a"
                 "cfb7482974f6861b4090a6e69c433f2c")


def test_chamber_derived_once_per_positive_system(monkeypatch):
    # every su21 lambda in [-4, 4]^3 off the compact wall, a singular one on
    # the positive system that this module's _chamber helper picks: 648
    # tables over the 6 positive systems of A_2, each graded and planned
    # once.  The records read what the group alone fixes from its load (the
    # W_K records and R K^+): no product with the fibres' map, their
    # consistency rows or R, and no derivation of the walk data.  A table
    # on a warm record multiplies each term's walk map by its base, once,
    # and walks the record's own condition rows
    calls = _count_calls(monkeypatch, (HMLattice, "graded"),
                         (groups, "_k_weyl"), (branching, "_walk_plan"))
    group_only = {id(GU.fibres.a), id(GU.fibres.consistency), id(GU.tm_in_t)}
    walks = {id(w.walk) for w in GU.k_weyl}
    matvec, products, on_walks = branching.matvec, Counter(), []

    def counted(mat, v):
        if id(mat) in walks:
            on_walks.append(tuple(v))
        else:
            products[id(mat) in group_only] += 1
        return matvec(mat, v)

    walk, walked = branching._walk, []

    def rows_of(state, levels):
        walked.extend(rows for _, rows, *_ in levels)
        return walk(state, levels)

    monkeypatch.setattr(branching, "matvec", counted)
    monkeypatch.setattr(branching, "_walk", rows_of)
    lams = [lam for lam in itertools.product(range(-4, 5), repeat=3)
            if lam[0] != lam[1]]
    branching._chamber.cache_clear()
    rows = []
    for lam in lams:
        p = _chamber(GU, lam)
        verdict = validate_params(GU, p)  # the record, on first sight
        on_walks.clear()
        walked.clear()
        rows.append(ktype_table(GU, p, 6).rows())
        assert on_walks == [verdict.base[0]] * len(GU.k_weyl)
        planned = {id(r) for t in verdict.chamber.terms
                   for _, r, _ in t.levels}
        assert walked and {id(r) for r in walked} <= planned
    assert len(lams) == 648
    assert calls["graded"] == 6 and calls["_k_weyl"] == 0
    assert calls["_walk_plan"] == 6
    assert products[False] and not products[True]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        _SU21_W6_ROWS)


def test_chamber_records_keep_groups_of_one_name_apart():
    # the builtin su21 and its all-noncompact copy share the name "su21",
    # all that a group's hash reads: interleaved, each table is still the
    # one its group gives from a cold record cache
    noncompact = all_noncompact_su21()
    assert hash(noncompact) == hash(GU) and noncompact != GU
    cases = [(g, lam) for lam in ([3, 1, -1], [5, -2, 0], [-1, 2, 4])
             for g in (GU, noncompact)]
    cold = []
    for g, lam in cases:
        branching._chamber.cache_clear()
        cold.append(ktype_table(g, _chamber(g, lam), 4))
    assert cold[0] != cold[1]
    branching._chamber.cache_clear()
    for _ in range(2):
        assert [ktype_table(g, _chamber(g, lam), 4)
                for g, lam in cases] == cold
    assert branching._chamber.cache_info().currsize == len(cases)


def test_a_singular_parameter_gets_a_record_per_positive_system():
    # lambda = (2, 1, 1) lies on the wall of the noncompact root (0, 1, -1)
    # and is dominant for both positive systems on either side of it
    params = [su21_from_lambda(GU, [2, 1, 1], rmplus=[[1, -1, 0], [1, 0, -1],
                                                      r]) for r in
              ([0, 1, -1], [0, -1, 1])]
    verdicts = [validate_params(GU, p) for p in params]
    assert [v.verdict for v in verdicts] == ["nonzero", "nonzero"]
    a, b = (v.chamber for v in verdicts)
    assert a.hm != b.hm and a.noncompact != b.noncompact
    assert all(validate_params(GU, p).chamber is c
               for p, c in zip(params, (a, b)))


@pytest.mark.parametrize("window", [-1, 2.5, True, "3", 65])
@pytest.mark.parametrize("table", [
    ktype_table, lambda g, p, w: box_table(g, p, w, "partition"),
    lambda g, p, w: sl2_branching(SL2Series("discrete_plus", 1), w)],
    ids=["ktype_table", "box_table", "sl2_branching"])
def test_window_must_be_a_nonnegative_int(monkeypatch, table, window):
    # one owner, _check_window, refuses a window for the engine's tables and
    # the closed-form SL(2,R) oracle alike, with the same messages
    def refuse(*args, **kwargs):
        raise AssertionError("prepared before the window was checked")

    p = su21_from_lambda(GU, [3, 1, -1])
    monkeypatch.setattr(branching, "_prepare", refuse)
    error, message = ((TableSizeError, "window 65 is above the cap of 64")
                      if window == 65 else (ValueError, "window must be a "
                                            f"nonnegative int, not {window!r}"))
    with pytest.raises(error) as e:
        table(GU, p, window)
    assert str(e.value) == message


@pytest.mark.parametrize("lam", [[3, 1, -1], [2, 2, -1]],
                         ids=["nonzero", "zero"])
@pytest.mark.parametrize("evaluate", [
    lambda p, mode: box_table(GU, p, 4, mode),
    lambda p, mode: ktype_multiplicity(GU, p, KType(GU.t_weight([4, 1, -2])),
                                       mode)],
    ids=["box_table", "ktype_multiplicity"])
def test_mode_is_checked_before_any_work(monkeypatch, evaluate, lam):
    def refuse(*args, **kwargs):
        raise AssertionError("prepared before the mode was checked")

    p = su21_from_lambda(GU, lam, rmplus=[[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    for _ in range(2):  # as it is, then with no parameters prepared
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            evaluate(p, "bogus")
        monkeypatch.setattr(branching, "_prepare", refuse)


def _spot_check_bound(monkeypatch, g, name):
    """(p, window) -> the bound of the one table that ktype_table(g, p,
    window) builds by name, the check's partition_counts or the chamber's
    _series: a doubled height bound or a cutoff, or None for an empty
    table, which builds none.  Each table starts from a cold record cache,
    so that it builds its chamber's table at its own bound."""
    build, bounds = getattr(branching, name), []

    def counted(*args):
        bounds.append(args[-1])
        return build(*args)

    def bound(p, window):
        bounds.clear()
        branching._chamber.cache_clear()
        rows = ktype_table(g, p, window).entries
        assert len(bounds) == (1 if rows else 0)
        return bounds[0] if rows else None

    monkeypatch.setattr(branching, name, counted)
    return bound


def _nonzero_tie_broken(g, span):
    """(singular, p) per (a, b, c) in [-span, span]^3 that is nonzero on the
    positive system it picks, ties broken by (1, 0, -1)."""
    for a, b, c in itertools.product(range(-span, span + 1), repeat=3):
        lam = g.tm_weight([a, b, c])
        p = TemperedParams(lam, tuple(
            _signed(r, (dot((a, b, c), r), dot((1, 0, -1), r)) > (0, 0))
            for r in g.m_roots.positives), 0, g.a_weight([]))
        if validate_params(g, p).verdict == "nonzero":
            yield len({a, b, c}) < 3, p


def test_spot_check_partition_budget(monkeypatch):
    # the spot check of a Blattner table builds one partition table, whose
    # doubled height bound does not grow with the window: over every su21
    # parameter in [-4, 4]^3 off the compact wall, regular or singular, the
    # ceilings per (window, singular) are pinned, and past window 8 the
    # bound stays put.  They are twice the series cutoffs this check had,
    # the doubled height those cover above the base
    ceilings = {(2, False): 2, (2, True): 4, (3, False): 4}  # the rest 8
    bound = _spot_check_bound(monkeypatch, GU, "partition_counts")
    params = list(_nonzero_tie_broken(GU, 4))
    for singular, p in params:
        b = {window: bound(p, window) for window in (2, 3, 4, 6, 8, 16)}
        for window in (2, 3, 4, 6, 8):
            assert b[window] is None or b[window] <= ceilings.get(
                (window, singular), 8)
        assert b[16] == b[8]
    assert len(params) == 648
    assert bound(su21_from_lambda(GU, [3, 1, -1]), 64) == 4


def test_spot_check_series_budget(monkeypatch):
    # where the table is partition counts over the box, as on the
    # all-noncompact su21, the spot check builds one truncated series per
    # table, and its doubled height bound does not grow with the window:
    # over every parameter in [-2, 2]^3, the ceilings per (window, singular)
    # are pinned, twice the cutoffs they were
    ceilings = {(2, False): 0, (3, False): 4, (3, True): 4}  # the rest 2
    g = all_noncompact_su21()
    bound = _spot_check_bound(monkeypatch, g, "_series")
    params = list(_nonzero_tie_broken(g, 2))
    for singular, p in params:
        for window in (2, 3, 4, 6):
            b = bound(p, window)
            assert b is None or b <= ceilings.get((window, singular), 2)
    assert len(params) == 125


SU31 = load_group_data(Path(__file__).parent / "data" / "su31.json")
_PLANTED = ([(GU, lam, 1) for lam in ((3, 1, -1), (5, -2, 0), (-1, 2, 4))]
            + [(SP4R, lam, 1) for lam in ((2, 1), (3, 1), (5, 2), (6, 1),
                                          (2, -1), (3, -1), (4, -3), (1, -2))]
            + [(SU31, (3, 1, -1, -3), 2)]  # lambda = rho
            + [(SO43, lam, 2) for lam in ((5, 3, 1), (-1, -5, 3))])  # at 6
# limits of su21, each on its one positive system with the planted rows
_R1 = [[1, -1, 0], [1, 0, -1], [0, 1, -1]]
_R2 = [[1, -1, 0], [1, 0, -1], [0, -1, 1]]
_PLANTED_LIMITS = [((3, -1, -1), _R1), ((4, 1, 1), _R1), ((2, -1, 2), _R2)]
# the Z' filter is planted where |Z'| = 2 (it is trivial on su21, sp4r and
# su31): on sl2r-compact, the discrete series of lambda = +-n, and on
# sl2xu1, where Z' splits each cone point's line of preimages by parity
_PLANTED_ZPRIME = (
    [(GC, (s * n,), sl2_discrete(GC, n, "+" if s > 0 else "-"))
     for n in (1, 2, 3, 4) for s in (1, -1)]
    + [(SL2XU1, (lam,), TemperedParams(SL2XU1.tm_weight([lam]), ((root,),),
                                       chi, SL2XU1.a_weight([])))
       for lam, chi, root in ((1, 0, 2), (2, 1, 2), (3, 0, 2), (-2, 0, -2),
                              (-3, 1, -2))])


def _planted_cases(defect, window=12):
    """(group, lambda, parameters) of each case the defect is planted on at
    the window: SO(4,3) at window 6 only, which keeps it cheap."""
    if defect == "zprime":
        return _PLANTED_ZPRIME
    return ([(g, lam, _chamber(g, lam, denom)) for g, lam, denom in _PLANTED
             if g is not SO43 or window == 6]
            + [(GU, lam, su21_from_lambda(GU, lam, rmplus=rmplus))
               for lam, rmplus in _PLANTED_LIMITS])


def _plant(monkeypatch, defect, g):
    """g, or its copy, with a Blattner defect planted: a flipped det(w) on
    the last term, the later terms' shifts moved by a noncompact root, the
    walk reading mu through w in place of w^T, the last term dropped, each
    walk line starting one past its first point, the Z' filter skipped, or
    the last dominance row (a simple K root's pairing) dropped."""
    if defect == "start":
        walk = branching._walk
        monkeypatch.setattr(branching, "_walk", lambda state, levels: (
            (line, lo + 1, hi) for line, lo, hi in walk(state, levels)))
        return g
    if defect == "zprime":
        blattner = branching._blattner_table

        def unfiltered(g, prep, window):
            class EveryZ(type(g)):
                __slots__ = ()

                def zchar(self, mu):  # the base's Z' character, at every mu
                    return prep.base[1]
            return blattner(EveryZ(*g), prep, window)
        monkeypatch.setattr(branching, "_blattner_table", unfiltered)
        return g
    if defect == "w":
        wt = groups._k_weyl(
            [(tuple(zip(*w.matrix)), w.det) for w in g.k_weyl],
            g.t_lattice.height_vec, g.tm_in_t, g.fibres, g.k_roots.simples)
        return g._replace(k_weyl=tuple(
            w._replace(walk=t.walk, dirs=t.dirs)
            for w, t in zip(g.k_weyl, wt)))
    chamber = branching._chamber

    def flipped(c):
        return c.terms[:-1] + (c.terms[-1]._replace(det=-c.terms[-1].det),)

    def moved(c):
        beta = c.noncompact[0]
        return c.terms[:1] + tuple(t._replace(
            state=tuple(map(add, t.state, groups.matvec(t.walk, beta))),
            height=t.height + dot(c.hm.height_vec, beta))
            for t in c.terms[1:])

    def undominant(c):
        assert len(c.terms[0].levels[0][1]) > 2 * g.k_roots.rank
        return tuple(t._replace(levels=tuple(
            (col, rows[:-1], reach[:-1]) for col, rows, reach in t.levels))
            for t in c.terms)

    def planted(g, rmplus):
        c = chamber(g, rmplus)
        terms = {"det": flipped, "shift": moved, "dominance": undominant,
                 "drop": lambda c: c.terms[:-1]}[defect](c)
        return c._replace(terms=terms,
                          shift_top=max(t.height for t in terms))
    monkeypatch.setattr(branching, "_chamber", planted)
    return g


# where the series spot check, which checked Blattner's tables before the
# partition oracle did, raised ArithmeticError on the planted defects at
# window 6: first the nonnegativity of the rows, then the check's
# disagreement.  The partition check catches the same; at window 12 the
# flipped det also makes a row of sp4r (6, 1) negative
_LIMITS = {("su21", lam) for lam, _ in _PLANTED_LIMITS}
_SO43 = {("so43", (5, 3, 1)), ("so43", (-1, -5, 3))}
_CAUGHT_AT_6 = {
    "det": {("su21", (3, 1, -1)), ("su21", (5, -2, 0)), ("sp4r", (2, 1)),
            ("sp4r", (3, 1)), ("sp4r", (5, 2)), ("sp4r", (2, -1)),
            ("sp4r", (3, -1)), ("sp4r", (4, -3)), ("sp4r", (1, -2)),
            ("su31", (3, 1, -1, -3)), ("so43", (5, 3, 1))} | _LIMITS,
    "shift": {("su21", (3, 1, -1)), ("su21", (5, -2, 0)), ("sp4r", (5, 2)),
              ("sp4r", (6, 1)), ("sp4r", (2, -1)), ("sp4r", (3, -1)),
              ("sp4r", (4, -3)), ("sp4r", (1, -2)), ("su31", (3, 1, -1, -3))}
    | _LIMITS | _SO43,
    "w": set(),
}
_CAUGHT = {**{(d, 6): c for d, c in _CAUGHT_AT_6.items()},
           ("det", 12): _CAUGHT_AT_6["det"] - _SO43 | {("sp4r", (6, 1))},
           ("shift", 12): _CAUGHT_AT_6["shift"] - _SO43, ("w", 12): set()}
# the tables a planted defect leaves wrong with no check raising.  Of su21
# (-1, 2, 4)'s 21 rows at window 12, the moved shifts drop 6 and the flipped
# det adds 6 more; w for w^T adds rows to su31 at lambda = rho, 1 at window
# 6 and 37 at 12.  Every row such a table shares with the right one holds
# the right value; only the window-8 digests of su31 catch the last.  On
# su21 and SO(4,3) every W_K element is a symmetric matrix, so w changes no
# table there, and the flipped det leaves SO(4,3) (-1, -5, 3) unchanged
_WRONG = {("det", 12): {("su21", (-1, 2, 4))},
          ("shift", 12): {("su21", (-1, 2, 4))},
          ("w", 6): {("su31", (3, 1, -1, -3))},
          ("w", 12): {("su31", (3, 1, -1, -3))}}
# four more defects, each raising a negative row, Schmid's lowest K-type
# or, for the walk lines and Z', a disagreement.  The dropped last term
# empties eight tables at window 6 and six at 12, whose lowest K-type then
# lies in the window with no row; at 12 it adds 6 rows to su21 (-1, 2, 4)
# above its lowest K-type, which no check sees.  Lines started one past
# their first point drop rows from every table they leave wrong, the
# lowest K-type first, as from su21 (5, -2, 0) (10 -> 8 rows at 6, 88 ->
# 80 at 12).  At window 6 the dropped term leaves su21 (-1, 2, 4), sp4r
# (6, 1) and SO(4,3) (-1, -5, 3) unchanged, and the late starts sp4r (6, 1).
# The su21 limits raise on every defect but w.  A nonzero limit's lowest
# K-type is checked as a regular lambda's is (Knapp-Zuckerman), and it alone
# catches three of their tables under the dropped term and all six under
# the late starts.  Skipping the Z' filter changes no sl2r-compact table,
# where the walk's parity already fixes the Z' character, and every sl2xu1
# one raises.  The one dominance row dropped leaves sp4r (5, 2) and (6, 1)
# unchanged at 6 and raises everywhere else
_ALL = {(g.name, lam) for g, lam, _ in _planted_cases("det", 6)}
_SL2XU1 = {("sl2xu1", (lam,)) for lam in (1, 2, 3, -2, -3)}
_CAUGHT.update({
    ("drop", 6): _ALL - {("su21", (-1, 2, 4)), ("sp4r", (6, 1)),
                         ("so43", (-1, -5, 3))},
    ("drop", 12): _ALL - _SO43 - {("su21", (-1, 2, 4))},
    ("start", 6): _ALL - {("sp4r", (6, 1))}, ("start", 12): _ALL - _SO43,
    ("zprime", 6): _SL2XU1, ("zprime", 12): _SL2XU1,
    ("dominance", 6): _ALL - {("sp4r", (5, 2)), ("sp4r", (6, 1))},
    ("dominance", 12): _ALL - _SO43})
_WRONG[("drop", 12)] = {("su21", (-1, 2, 4))}
_LOWEST = (r"lowest K-type \(.*\) is not the one row of least height, "
           r"with multiplicity 1")


# window 6 keeps the bare defect as its id
@pytest.mark.parametrize("defect, window", _CAUGHT, ids=[
    d if w == 6 else f"{d}-window{w}" for d, w in _CAUGHT])
def test_partition_spot_check_catches_planted_blattner_defects(monkeypatch,
                                                                defect,
                                                                window):
    clean, cases = {}, _planted_cases(defect, window)
    for g, lam, p in cases:
        clean[g.name, lam] = ktype_table(g, p, window)
    caught, wrong = set(), set()
    for g, lam, p in cases:
        with monkeypatch.context() as m:
            bad = _plant(m, defect, g)
            try:
                table = ktype_table(bad, p, window)
            except ArithmeticError as e:
                caught.add((g.name, lam))
                assert re.fullmatch({
                    "det": r"negative multiplicity -1 at .*",
                    "shift": r"evaluator disagreement at .*: "
                             r"partition 0 vs blattner 1|" + _LOWEST,
                    "drop": r"negative multiplicity -1 at .*|" + _LOWEST,
                    "start": r"negative multiplicity -1 at .*|evaluator dis"
                             r"agreement at .*: partition \d vs blattner \d|"
                             + _LOWEST,
                    "zprime": r"evaluator disagreement at .*: "
                              r"partition 0 vs blattner 1",
                    "dominance": r"negative multiplicity -1 at .*"}[defect],
                    str(e))
                continue
        if table != clean[g.name, lam]:
            wrong.add((g.name, lam))
    assert caught == _CAUGHT[defect, window]
    assert wrong == _WRONG.get((defect, window), set())


def test_an_empty_blattner_table_of_a_nonzero_lambda_raises(monkeypatch):
    # Schmid, and Knapp-Zuckerman for a nonzero limit: the lowest K-type
    # u(lambda + rho_n - rho_c) has multiplicity 1, so a Blattner table that
    # lost every row raises once that K-type lies in the window, for a
    # regular lambda and a singular one alike
    regular = su21_from_lambda(GU, [5, -2, 0])
    singular = su21_from_lambda(GU, [3, -1, -1], rmplus=_R1)
    for p, low in ((regular, (5, -2, 0)), (singular, (3, 0, -2))):
        window = max(map(abs, low))
        assert ktype_table(GU, p, window - 1).entries == {}
        assert ktype_table(GU, p, window).entries[low] == 1
        with monkeypatch.context() as m:
            m.setattr(branching, "_blattner_table", lambda *args: [])
            assert ktype_table(GU, p, window - 1).entries == {}
            with pytest.raises(ArithmeticError, match=re.escape(
                    f"lowest K-type {low} is not the one row of least "
                    "height")):
                ktype_table(GU, p, window)


def test_late_walk_starts_on_a_limit_raise(monkeypatch):
    # each line of Blattner's walk starts one past its first point: the
    # limit su21 (3, -1, -1) at window 64 loses its lowest K-type, 212 rows
    # for 245, and the check of that K-type raises
    p = su21_from_lambda(GU, [3, -1, -1], rmplus=_R1)
    assert len(ktype_table(GU, p, 64).entries) == 245
    walk = branching._walk
    monkeypatch.setattr(branching, "_walk", lambda state, levels: (
        (line, lo + 1, hi) for line, lo, hi in walk(state, levels)))
    rows = branching._blattner_table(GU, validate_params(GU, p), 64)
    assert sum(1 for _, m in rows if m) == 212
    with pytest.raises(ArithmeticError, match=re.escape(
            "lowest K-type (3, 0, -2) is not the one row of least height")):
        ktype_table(GU, p, 64)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5),
       st.sampled_from([(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
       st.sampled_from(list(itertools.permutations((1, 0, -1)))),
       st.integers(0, 3))
def test_a_limit_s_lowest_row_is_its_lowest_k_type(a, b, where, tie, extra):
    # Knapp-Zuckerman: a nonzero limit of discrete series has the lowest
    # K-type u(lambda + rho_n - rho_c), once, alone at the least height.
    # lambda has two equal coordinates, so it is singular, on each positive
    # system that makes it dominant (ties broken by tie); the K-type and
    # the height covector v are formed here from the roots and W_K
    lam = tuple(b if k else a for k in where)
    rmplus = tuple(_signed(r, (dot(lam, r), dot(tie, r)) > (0, 0))
                   for r in GU.m_roots.positives)
    p = TemperedParams(GU.tm_weight(lam), rmplus, 0, GU.a_weight([]))
    assume(validate_params(GU, p).verdict == "nonzero")
    lowest2 = [2 * x for x in lam]
    for r in rmplus:
        lowest2 = [x + (-y if GU.compact_of[r] else y)
                   for x, y in zip(lowest2, r)]
    low = tuple(x // 2 for x in dominant(GU, lowest2)[0])
    v = dominant(GU, [sum(c) for c in zip(*rmplus)])[0]
    window = max(map(abs, low)) + extra
    rows = sorted((dot(mu, v), mu, m)
                  for mu, m in ktype_table(GU, p, window).entries.items())
    assert rows[0] == (dot(low, v), low, 1)
    assert len(rows) == 1 or rows[1][0] > rows[0][0]


def test_an_empty_table_reads_no_oracle(cold_records):
    # su21 (5, -2, 0) has no K-type in window 0: its table reads neither
    # oracle, so its chamber holds no table afterwards
    p = su21_from_lambda(GU, [5, -2, 0])
    verdict = validate_params(GU, p)
    assert table_of(verdict, 0).entries == {}
    assert not verdict.chamber.tables
    assert table_of(verdict, 6).entries
    assert list(verdict.chamber.tables) == ["partition"]


def _record_builds(monkeypatch):
    """{oracle: [(chamber, bound), ...]}, one pair per build of a chamber
    table, in order: partition_counts for the partition oracle, keyed by
    its roots and graded lattice, and _series for the series."""
    builds = {"partition": [], "series": []}
    for oracle, name in (("partition", "partition_counts"),
                         ("series", "_series")):
        def counted(*args, _build=getattr(branching, name),
                    _builds=builds[oracle]):
            _builds.append((args[:-1], args[-1]))
            return _build(*args)
        monkeypatch.setattr(branching, name, counted)
    return builds


def _grown(builds):
    """The bounds of each chamber's builds, each list rising strictly."""
    bounds = {}
    for chamber, bound in builds:
        bounds.setdefault(chamber, []).append(bound)
    assert all(b == sorted(set(b)) for b in bounds.values())
    return list(bounds.values())


@pytest.mark.parametrize("g, lam, denom", [
    (GU, (3, 1, -1), 1), (SP4R, (3, 1), 1), (SU31, (3, 1, -1, -3), 2),
    (all_noncompact_su21(), (3, 1, -1), 1)])
def test_chamber_tables_agree_with_a_cold_record(monkeypatch, g, lam, denom):
    # tables and queries of one chamber, interleaved, windows growing and
    # then shrinking: each reads the chamber's tables as earlier calls left
    # them, and equals its value from a cold record cache
    p = _chamber(g, lam, denom)
    hws = sorted(box_table(g, p, 6, "partition").entries)
    assert len(hws) >= 4
    calls = [("table", 3), ("series", 4), ("query", hws[-1]),
             ("partition", 6), ("query", hws[0]), ("series", 3),
             ("table", 6), ("query", hws[len(hws) // 2]), ("partition", 4),
             ("series", 6)]

    def run(kind, arg):
        if kind == "table":
            return ktype_table(g, p, arg)
        if kind == "query":
            kt = KType(g.t_weight(arg))
            return [ktype_multiplicity(g, p, kt, mode)
                    for mode in ("series", "partition")]
        return box_table(g, p, arg, kind)

    cold = []
    for call in calls:
        branching._chamber.cache_clear()
        cold.append(run(*call))
    builds = _record_builds(monkeypatch)
    branching._chamber.cache_clear()
    for call, want in zip(calls, cold):
        assert run(*call) == want, call
    # each oracle's table grew: rebuilt at a higher bound only, never read
    # past what the earlier build reached
    for oracle in builds:
        [bounds] = _grown(builds[oracle])
        assert len(bounds) >= 2, oracle


def test_chamber_series_is_rebuilt_past_its_certificate(monkeypatch,
                                                        cold_records):
    # a table that needs more than the certificate of the chamber's series
    # rebuilds it at its own bound, and a query within the certificate reads
    # it as it is; a kept pair certified below a read is rebuilt, so the
    # read returns the right table
    p = su21_from_lambda(GU, [4, 1, -2])
    builds = _record_builds(monkeypatch)["series"]
    small = ktype_table_series(GU, p, 2)
    record = validate_params(GU, p).chamber
    [((chamber,), bound2)] = builds
    cert, _ = record.tables["series"]
    assert chamber is record and bound2 <= cert
    big = ktype_table_series(GU, p, 6)
    assert big.entries.items() > small.entries.items()
    [bounds] = _grown(builds)
    assert len(bounds) == 2 and bounds[-1] > cert
    q = ktype_multiplicity(GU, p, KType(GU.t_weight([4, 2, -3])), "series")
    assert len(builds) == 2 and q == 1
    # a pair with no terms, certified one doubled height short of the read
    bound2 = builds[-1][1]
    record.tables["series"] = bound2 - 1, []
    assert ktype_table_series(GU, p, 6) == big
    assert len(builds) == 3 and builds[-1][1] == bound2
    assert record.tables["series"][0] >= bound2


def test_partition_table_read_past_its_certificate_raises(monkeypatch,
                                                          cold_records):
    # the partition table is certified up to the doubled height it was
    # built for.  A kept pair certified below the room of a read is
    # rebuilt; a builder that certifies its table below the room it was
    # built for makes the read raise CutoffError, as _evaluate looks the
    # builder up when it reads
    p = su21_from_lambda(GU, [4, 1, -2])
    builds = _record_builds(monkeypatch)["partition"]
    want = ktype_table(GU, p, 6)
    record = validate_params(GU, p).chamber
    cert, terms = record.tables["partition"]
    assert builds == [((record.noncompact, record.hm), cert)]
    assert table_of(validate_params(GU, p), 6) == want and len(builds) == 1
    record.tables["partition"] = cert - 1, terms[:1]
    assert ktype_table(GU, p, 6) == want
    assert builds[-1][1] == cert and record.tables["partition"][0] == cert
    build = branching._partition_table
    monkeypatch.setattr(branching, "_partition_table", lambda chamber, bound2: (
        bound2 - 1, build(chamber, bound2)[1]))
    for evaluate in (lambda: ktype_table(GU, p, 6),
                     lambda: box_table(GU, p, 4, "partition"),
                     lambda: ktype_multiplicity(GU, p, KType(GU.t_weight(
                         min(want.entries))))):
        branching._chamber.cache_clear()
        with pytest.raises(CutoffError):
            evaluate()


def test_oracle_table_built_once_per_chamber(monkeypatch):
    # the spot checks of the 648 su21 tables at window 6 read the partition
    # table of their chamber: one build per chamber per growth, 8 builds
    # over the 6 chambers (one per table before the tables were the
    # chamber's)
    builds = _record_builds(monkeypatch)
    params = list(_nonzero_tie_broken(GU, 4))
    branching._chamber.cache_clear()
    for _, p in params:
        ktype_table(GU, p, 6)
    assert len(params) == 648
    assert len(_grown(builds["partition"])) == 6
    assert len(builds["partition"]) == 8
    assert builds["series"] == []


@pytest.mark.parametrize("g, order", [
    (GC, 2), (GU, 6), (SP4R, 8),
    (load_group_data(Path(__file__).parent / "data" / "su22.json"), 24),
    (SU31, 24), (SO43, 48)],
    ids=["sl2r-compact", "su21", "sp4r", "su22", "su31", "so43"])
def test_both_oracles_hold_the_branching_kernel(g, order):
    # on every chamber _chamber accepts, over all sign choices of the
    # positive roots (one per element of the Levi Weyl group), the
    # partition table is the kernel prod_c (1 - e^c) / prod_n (1 - e^n),
    # term for term the series up to the partition table's certificate,
    # its own bound
    positives = g.m_roots.positives
    chambers = 0
    for signs in itertools.product((True, False), repeat=len(positives)):
        chamber = branching._chamber.__wrapped__(
            g, tuple(map(_signed, positives, signs)))
        if isinstance(chamber, str):
            continue
        chambers += 1
        for bound2 in (0, 3, 6, 12):
            cert, terms = branching._partition_table(chamber, bound2)
            series = branching._series(chamber, bound2)[1]
            assert cert == bound2
            assert terms == [t for t in series if t[0] <= bound2]
    assert chambers == order


# four su21 documents, regular and singular, whose box tables at window 6
# read 59 H-keys of the window's KTypeBox by either oracle
_BOX_READ_DOCS = [
    {"lambda": [0, 4, 3]},
    {"lambda": [-3, 3, 3], "rmplus": [[-1, 1, 0], [-1, 0, 1], [0, 1, -1]]},
    {"lambda": [1, -2, 0]},
    {"lambda": [4, -1, -1], "rmplus": [[1, -1, 0], [1, 0, -1], [0, 1, -1]]}]


def test_box_oracles_read_the_same_keys(monkeypatch):
    # a count budget: each oracle's table holds the kernel and is read
    # once, at the base, so the partition box reads as many H-keys as the
    # series box
    get, reads = ktypes.KTypeBox.get, Counter()

    def counted(box, key, default=()):
        reads[mode] += 1
        return get(box, key, default)

    monkeypatch.setattr(ktypes.KTypeBox, "get", counted)
    for mode in ("partition", "series"):
        for doc in _BOX_READ_DOCS:
            box_table(GU, resolve_params(GU, doc), 6, mode)
    assert reads["partition"] == reads["series"] <= 59


def test_ktype_table_skips_box_and_restricts_spot_checks_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("ktype_table scanned the K-type box")

    restricted = []

    def counted(g, hws):
        restricted.extend(hws)
        return key_index(g, hws)

    monkeypatch.setattr(branching, "ktype_box", refuse)
    monkeypatch.setattr(branching, "key_index", counted)
    for g, p in ((GU, su21_from_lambda(GU, [3, 1, -1])),
                 (GU, su21_from_lambda(GU, [-1, 3, 1])),  # the other chamber
                 (GC, sl2_discrete(GC, 2, "-")),
                 (GS, sl2_principal(GS, "minus"))):
        restricted.clear()
        t = ktype_table(g, p, 12)
        assert len(t.entries) > 3
        # the rows whose keys reach the least height under the parameters'
        # positive system, where the series is cheapest; ties lexical
        hv = validate_params(g, p).chamber.hm.height_vec
        lowest = sorted(t.entries, key=lambda mu: _top2(restrict_to_hm(g, mu),
                                                        hv))
        assert restricted == lowest[:3]


# ------------------------------------------- independent SU(2,1) oracle

def _weights(g, hw):
    """The weights of the K-type hw as {coords: m}, by Kostant's formula."""
    return {tuple(map(sub, hw, t)): m for t, m in ktypes._kostant(g, hw)}


def su21_holomorphic_oracle(lam_coords, window, margin=14):
    """Brute-force K-type table of a holomorphic-type discrete series.

    For a parameter with positive pairings against both noncompact positive
    roots, the restriction is the lowest-K-type representation tensored
    with the symmetric algebra on the two noncompact root lines.  We build
    the total torus character of that tensor product on a large box and
    greedily strip highest weights; heights strictly drop when positive
    roots are subtracted, so the maximal-height dominant residual is always
    a genuine highest weight.
    """
    rho_c = (1, -1, 0)
    rho_n = (1, 1, -2)
    base = tuple(lam_coords[i] + (-rho_c[i] + rho_n[i]) // 2 for i in range(3))
    total = Counter()
    wm = _weights(GU, base)
    for w0, m in wm.items():
        for m1 in range(margin):
            for m2 in range(margin):
                w = (w0[0] + m1, w0[1] + m2, w0[2] - m1 - m2)
                if max(abs(x) for x in w) <= margin:
                    total[w] += m

    def height(w):
        return 2 * w[0] - 2 * w[2]

    table = {}
    while True:
        live = [w for w, m in total.items() if m != 0 and w[0] >= w[1]]
        if not live:
            break
        top = max(live, key=lambda w: (height(w), w))
        m = total[top]
        assert m > 0, "strip algorithm went negative"
        for w, mm in _weights(GU, top).items():
            total[w] -= m * mm
        table[top] = m
        if all(v == 0 for v in total.values()):
            break
    return {w: m for w, m in table.items()
            if max(abs(x) for x in w) <= window and m}


@pytest.mark.parametrize("lam", [(3, 1, -1), (2, 0, -2), (4, 2, 0)])
def test_su21_discrete_series_against_strip_oracle(lam):
    p = TemperedParams(GU.tm_weight(list(lam)), STD_POS, 0, GU.a_weight([]))
    assert validate_params(GU, p).verdict == "nonzero"
    assert all(dot(p.lam.coords, b) > 0
               for b in STD_POS[1:])  # holomorphic type
    engine = ktype_table(GU, p, 6).entries
    oracle = su21_holomorphic_oracle(lam, 6)
    assert engine == oracle


def test_su21_mirror_involution():
    # negation is an automorphism of the root datum, so the table of
    # (-lam, -rmplus) is the coordinatewise mirror of the table of
    # (lam, rmplus); this reaches the antiholomorphic chamber from the
    # oracle-checked one
    rng = random.Random(17)
    for _ in range(6):
        p = random_su21_params(GU, rng)
        lam = p.lam
        q = TemperedParams(
            Weight(tuple(-x for x in lam.coords), lam.lattice, lam.denom),
            tuple(tuple([-x for x in r]) for r in p.rmplus),
            p.chi, p.nu)
        assert validate_params(GU, q).verdict == "nonzero"
        t = ktype_table(GU, p, 5).entries
        tm = ktype_table(GU, q, 5).entries
        # mirrored K-type: the dominant representative of the negated weight
        # swaps the first two coordinates
        mirrored = {(-b, -a, -c): m for (a, b, c), m in t.items()}
        assert tm == mirrored
