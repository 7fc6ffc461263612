"""The multiplicity engine: validation verdicts, virtual characters,
series/partition modes, Blattner tables, signs, and an independent SU(2,1)
oracle."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from kbranch.branching import (InvalidParamsError, TemperedParams,
                               hm_virtual_character, ktype_multiplicity,
                               ktype_table, ktype_table_series,
                               nu_independence_check, sign_factor,
                               validate_params)
from kbranch import branching, groups, ktypes
from kbranch.characters import (CutoffError, FormalCharacter, HMLattice,
                                LatticeError, Weight, dot)
from kbranch.groups import _BUILTIN_DIR, builtin_group, load_group_data
from kbranch.ktypes import KType, restrict_to_hm, weight_multiplicities
from kbranch.presets import (sl2_discrete, sl2_limit, sl2_principal,
                             su21_from_lambda)
from kbranch.verify import (_sl2_param_sets, partition_table,
                            random_su21_params)

GC = builtin_group("sl2r-compact")
GS = builtin_group("sl2r-split")
GU = builtin_group("su21")

STD_POS = tuple(GU.tm_weight(c) for c in ([1, -1, 0], [1, 0, -1], [0, 1, -1]))


# ---------------------------------------------------------------- verdicts

def test_validate_discrete_nonzero():
    assert validate_params(GC, sl2_discrete(GC, 3, "+")).verdict == "nonzero"


def test_validate_limit_nonzero_vacuous_compact_condition():
    assert validate_params(GC, sl2_limit(GC, "+")).verdict == "nonzero"


def test_validate_su21_zero_on_compact_wall():
    p = su21_from_lambda(GU, [2, 2, -1], rmplus=[[1, -1, 0], [1, 0, -1],
                                                 [0, 1, -1]])
    v = validate_params(GU, p)
    assert v.verdict == "zero"
    assert "(1, -1, 0)" in v.reason


def test_validate_rejects_nondominant():
    p = TemperedParams(GC.tm_weight([-3]), (GC.tm_weight([2]),), 0,
                       GC.a_weight([]))
    assert validate_params(GC, p).verdict == "invalid"


def test_validate_rejects_wrong_component_character():
    p = TemperedParams(GC.tm_weight([3]), (GC.tm_weight([2]),), 1,
                       GC.a_weight([]))
    v = validate_params(GC, p)
    assert v.verdict == "invalid"
    assert "component character" in v.reason


def test_validate_rejects_non_positive_system():
    # closed-but-unpointed sign choice of the rank-two system
    bad = tuple(GU.tm_weight(c) for c in ([1, -1, 0], [-1, 0, 1], [0, 1, -1]))
    p = TemperedParams(GU.tm_weight([0, 0, 0]), bad, 0, GU.a_weight([]))
    v = validate_params(GU, p)
    assert v.verdict == "invalid"
    assert "pointed" in v.reason


def test_validate_rejects_nonintegral_shift():
    p = TemperedParams(GC.tm_weight([1], denom=2), (GC.tm_weight([2]),), 0,
                       GC.a_weight([]))
    v = validate_params(GC, p)
    assert v.verdict == "invalid"
    assert "lift" in v.reason


# ------------------------------------------------------- virtual character

def test_virtual_character_discrete():
    W = hm_virtual_character(GC, sl2_discrete(GC, 3, "+"), 12)
    got = {c.tweight.coords[0]: m for c, m in W.items()}
    assert all(m == 1 for m in got.values())
    assert set(got) >= {4, 6, 8, 10}
    assert all(k >= 4 and k % 2 == 0 for k in got)
    assert all(c.zchar == 0 for c in W.support())


def test_virtual_character_split_is_single_term():
    W = hm_virtual_character(GS, sl2_principal(GS, "plus"), 5)
    assert [(c.tweight.coords, c.zchar, m) for c, m in W.items()] == [
        ((), 0, 1)]


def test_virtual_character_limit():
    W = hm_virtual_character(GC, sl2_limit(GC, "+"), 9)
    got = sorted(c.tweight.coords[0] for c in W.support())
    assert got == [1, 3, 5, 7, 9]


def test_virtual_character_cutoff_too_small():
    from kbranch.characters import CutoffError
    with pytest.raises(CutoffError):
        hm_virtual_character(GC, sl2_discrete(GC, 5, "+"), 2)


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


def test_multiplicity_requires_nonzero_verdict():
    p = su21_from_lambda(GU, [2, 2, -1], rmplus=[[1, -1, 0], [1, 0, -1],
                                                 [0, 1, -1]])
    with pytest.raises(InvalidParamsError):
        ktype_multiplicity(GU, p, KType(GU.t_weight([0, 0, 0])))


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
    p = sl2_principal(GS, "plus")
    assert nu_independence_check(GS, p, GS.a_weight([1]), GS.a_weight([7]), 10)
    assert nu_independence_check(GS, p, GS.a_weight([3]), GS.a_weight([3]), 10)


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
    swap = lambda w: GU.tm_weight([w.coords[1], w.coords[0], w.coords[2]])
    p2 = TemperedParams(swap(lam), tuple(swap(r) for r in STD_POS), 0,
                        GU.a_weight([]))
    assert ktype_table(GU, p1, 5) == ktype_table(GU, p2, 5)


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
    for p in (sl2_discrete(GC, 2, "-"), sl2_limit(GC, "-")):
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
    doc = json.loads((_BUILTIN_DIR / "su21.json").read_text())
    doc["m"]["compact_flags"] = [False] * 6
    doc["dims"]["s_M"] = 6
    return load_group_data(json.dumps(doc))


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
    weight_multiplicities(g, KType(g.t_weight([5, 0, -3])))
    assert calls == []
    assert len(g.k_weyl) == 2


def test_series_tables_share_the_restriction_cache(monkeypatch):
    p = su21_from_lambda(GU, [4, 1, -2])
    ktype_table_series(GU, p, 4)
    calls = []

    def counted(g, kt):
        calls.append(kt)
        return weight_multiplicities(g, kt)

    monkeypatch.setattr(ktypes, "weight_multiplicities", counted)
    ktype_table_series(GU, p, 4)
    assert calls == []


@pytest.mark.parametrize("window", [4, 6, 8])
def test_blattner_su21_matches_series_and_partition(window):
    rng = random.Random(23)
    for _ in range(4):
        p = random_su21_params(GU, rng, scale=5)
        t = ktype_table(GU, p, window)
        assert t == ktype_table_series(GU, p, window)
        assert t.entries == partition_table(GU, p, window)


def test_blattner_sl2_families_window_60():
    for _, g, p, _ in _sl2_param_sets():
        t = ktype_table(g, p, 60)
        assert t == ktype_table_series(g, p, 60)
        assert t.entries == partition_table(g, p, 60)


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
        assert ktype_table(g, p, 4).entries == partition_table(g, p, 4)


# ------------------------------------------------------ oracle boundaries

def _count_calls(monkeypatch, *targets):
    calls = Counter()
    for cls, name in targets:
        def counted(*args, _fn=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_series_oracle_reads_no_coefficient(monkeypatch):
    calls = _count_calls(monkeypatch, (FormalCharacter, "coefficient"))
    p = su21_from_lambda(GU, [4, 1, -2])
    assert ktype_table_series(GU, p, 4).entries
    assert ktype_multiplicity(GU, p, KType(GU.t_weight([4, 2, -3])),
                              "series") == 1
    assert calls == {}


@pytest.mark.parametrize("mode", ["partition", "series"])
def test_oracles_do_no_weight_work_per_term(monkeypatch, mode):
    prep = branching._prepare(GU, su21_from_lambda(GU, [4, 1, -2]))
    batch = [restrict_to_hm(GU, kt) for kt in ktypes.enumerate_ktypes(GU, 4)]
    built = {}
    virtual = branching._virtual_character

    def cached(prep, cutoff):  # the character's own build is not the batch's
        if cutoff not in built:
            built[cutoff] = virtual(prep, cutoff)
        return built[cutoff]

    monkeypatch.setattr(branching, "_virtual_character", cached)
    evaluate = branching._EVALUATORS[mode]
    want = evaluate(prep, batch)
    calls = _count_calls(monkeypatch, (Weight, "__add__"), (Weight, "__sub__"),
                         (HMLattice, "height2"),
                         (FormalCharacter, "coefficient"))
    assert evaluate(prep, batch) == want
    # the base height, and one height per root of the partition table
    assert sum(calls.values()) <= 1 + len(prep.noncompact)
    assert sum(len(res) for res in batch) > 1000


def test_short_certificate_raises_cutoff_error(monkeypatch):
    p = su21_from_lambda(GU, [4, 1, -2])
    top = max(ktype_table(GU, p, 4).entries)
    virtual = branching._virtual_character
    monkeypatch.setattr(branching, "_virtual_character",
                        lambda prep, cutoff: virtual(prep, cutoff - 1))
    for evaluate in (lambda: ktype_table_series(GU, p, 4),
                     lambda: ktype_table(GU, p, 4),
                     lambda: ktype_multiplicity(GU, p, KType(GU.t_weight(top)),
                                                "series")):
        with pytest.raises(CutoffError):
            evaluate()


def test_restrict_to_hm_does_no_weight_work(monkeypatch):
    kts = ktypes.enumerate_ktypes(GU, 4)
    weights = {kt: weight_multiplicities(GU, kt) for kt in kts}
    monkeypatch.setattr(ktypes, "weight_multiplicities",
                        lambda g, kt: weights[kt])
    restrict_to_hm.cache_clear()
    calls = _count_calls(monkeypatch, (HMLattice, "char"),
                         (HMLattice, "height2"), (Weight, "__add__"),
                         (groups.RealGroupData, "restrict_weight"))
    restricted = [restrict_to_hm(GU, kt) for kt in kts]
    assert calls == {}
    assert sum(len(res) for res in restricted) > 1000


@pytest.mark.parametrize("kt", [
    KType(Weight((4, 1, -2), "elsewhere")),           # off the lattice
    KType(GU.t_weight([4, 1])),                       # wrong rank
    KType(Weight((3, 1, -1), GU.t_lattice.lattice, 2)),  # half-integral
    KType(GU.t_weight([1, 4, -2])),                   # not dominant
])
def test_ktype_off_the_group_lattice_raises(kt):
    p = su21_from_lambda(GU, [3, 1, -1])
    for evaluate in (lambda: weight_multiplicities(GU, kt),
                     lambda: restrict_to_hm(GU, kt),
                     lambda: ktype_multiplicity(GU, p, kt, "partition"),
                     lambda: ktype_multiplicity(GU, p, kt, "series")):
        with pytest.raises(LatticeError):
            evaluate()


# a rank-2 torus restricting onto the compact Cartan of SL(2,R): each cone
# point has a whole line of preimages, and Z' splits them by parity
SL2XU1 = load_group_data(json.dumps({
    "name": "sl2xu1",
    "k": {"rank": 2, "roots": [], "positives": [], "simples": []},
    "m": {"rank": 1, "roots": [[2], [-2]], "positives": [[2]],
          "compact_flags": [False, False]},
    "restricted": {"dim_a": 0, "roots": [], "positives": []},
    "tM_in_t": [[1, 0]],
    "zmprime": {"order": 2, "generators": [
        {"v": ["1/2", "1/2"], "char_table_row": [0, 1]}]},
    "dims": {"s_M": 2, "a": 0}}))


@pytest.mark.parametrize("g", [GC, GS, SL2XU1], ids=lambda g: g.name)
def test_zchar_is_the_fraction_evaluation(g):
    order = g.hm.ztable.order
    for mu in itertools.product(range(-6, 7), repeat=g.k_roots.rank):
        values = [order * sum(Fraction(c) * v for c, v in zip(mu, gen.v))
                  for gen in g.zgens]
        assert all(x.denominator == 1 for x in values)
        want = g.hm.ztable.index_of[tuple(int(x) % order for x in values)]
        assert g.zchar(mu) == want


def test_blattner_fibres_of_a_non_injective_restriction():
    g = SL2XU1
    p = TemperedParams(g.tm_weight([3]), (g.tm_weight([2]),), 1,
                       g.a_weight([]))
    t = ktype_table(g, p, 4)
    assert t.entries == {(4, k): 1 for k in (-3, -1, 1, 3)}
    for lam, chi, root in itertools.product(range(-5, 6), (0, 1), (2, -2)):
        p = TemperedParams(g.tm_weight([lam]), (g.tm_weight([root]),), chi,
                           g.a_weight([]))
        if validate_params(g, p).verdict == "nonzero":
            assert ktype_table(g, p, 5).entries == partition_table(g, p, 5)


def test_blattner_partition_calls_track_rows(monkeypatch):
    counts = branching.partition_counts
    tables = []

    def counted(*args):
        tables.append(counts(*args))
        return tables[-1]

    monkeypatch.setattr(branching, "partition_counts", counted)
    t = ktype_table(GU, su21_from_lambda(GU, [3, 1, -1]), 16)
    # the box holds 18,513 K-types, each needing |W_K| = 2 counts
    assert len(t.entries) == 28
    assert len(tables) == 1
    assert len(tables[0]) <= 10 * len(t.entries)


def test_ktype_table_skips_box_and_restricts_spot_checks_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("ktype_table scanned the K-type box")

    restricted = []

    def counted(g, kt):
        restricted.append(kt)
        return restrict_to_hm(g, kt)

    monkeypatch.setattr(branching, "enumerate_ktypes", refuse)
    monkeypatch.setattr(branching, "restrict_to_hm", counted)
    for g, p in ((GU, su21_from_lambda(GU, [3, 1, -1])),
                 (GC, sl2_discrete(GC, 2, "-")),
                 (GS, sl2_principal(GS, "minus"))):
        restricted.clear()
        t = ktype_table(g, p, 12)
        assert len(t.entries) > 3
        assert [kt.highest.coords for kt in restricted] == [
            k for k, _ in t.rows()[:3]]


# ------------------------------------------- independent SU(2,1) oracle

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
    wm = weight_multiplicities(GU, KType(GU.t_weight(base)))
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
        for w, mm in weight_multiplicities(
                GU, KType(GU.t_weight(top))).items():
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
    assert all(dot(p.lam, b) > 0 for b in STD_POS[1:])  # holomorphic type
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
        q = TemperedParams(-p.lam, tuple(-r for r in p.rmplus), p.chi, p.nu)
        assert validate_params(GU, q).verdict == "nonzero"
        t = ktype_table(GU, p, 5).entries
        tm = ktype_table(GU, q, 5).entries
        # mirrored K-type: the dominant representative of the negated weight
        # swaps the first two coordinates
        mirrored = {(-b, -a, -c): m for (a, b, c), m in t.items()}
        assert tm == mirrored
