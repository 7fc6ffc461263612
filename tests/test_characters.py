"""Exact-arithmetic tests for weights and formal characters."""

import random
from operator import add

import pytest

from kbranch.branching import validate_params
from kbranch.characters import (ConeError, CutoffError, FormalCharacter,
                                HMLattice, LatticeError, Weight, ZCharTable,
                                char_mul, geometric_series, graded_exterior,
                                partition_counts)
from kbranch.groups import builtin_group
from kbranch.presets import su21_from_lambda

# rank-1 lattice shaped like the compact-Cartan setup: positive root (2),
# height covector = that root, order-2 component group
SL2 = HMLattice(1, "sl2:tM", (2,), ZCharTable(2, ((0,), (1,))))
ALPHA = (2,)

# rank-3 lattice shaped like the rank-one unitary group: three positive
# roots, two of them noncompact
U21 = HMLattice(3, "su21:tM", (2, 0, -2))
B1 = (1, 0, -1)
B2 = (0, 1, -1)


def ch(hm, coords, z=None):
    return hm.char(Weight(tuple(coords), hm.lattice), z)


def comb(*terms):
    """The integer combination sum of n * root over (n, root) pairs."""
    out = (0,) * len(terms[0][1])
    for n, root in terms:
        out = tuple(map(add, out, (n * x for x in root)))
    return out


def height2(hm, coords):
    return hm.key_height2((coords, hm.ztable.identity))


def kostant(target, roots, hm):
    """The number of ways target is a nonnegative sum of the roots: its
    entry in the partition_counts table cut at its own height."""
    return partition_counts(roots, hm, height2(hm, target)).get(target, 0)


def test_weight_arithmetic_and_denominators():
    # a Weight has no arithmetic: it reduces a halved tuple where it is built
    assert Weight([3, -1], "x", denom=2) == Weight((3, -1), "x", 2)
    assert Weight([2, 4], "x", denom=2) == Weight([1, 2], "x")
    assert Weight([2, 4], "x", denom=2).denom == 1
    assert Weight([0, 0], "x", denom=2) == Weight((0, 0), "x")
    assert Weight([-2, 1], "x", denom=2).coords == (-2, 1)


def test_a_weight_built_from_a_list_holds_a_tuple_and_hashes():
    w = Weight([1, 2], "x")
    assert type(w.coords) is tuple and w == Weight((1, 2), "x")
    assert hash(w) == hash(Weight((1, 2), "x"))
    assert Weight(iter([1, 2]), "x") == w


def test_a_halved_weight_of_even_coordinates_is_its_reduction():
    w = Weight((2, 4), "x", 2)
    assert w == Weight((1, 2), "x") and w.denom == 1
    assert hash(w) == hash(Weight((1, 2), "x"))
    assert Weight((2, 3), "x", 2).denom == 2


@pytest.mark.parametrize("build", [
    lambda: Weight([1.5, 2.7], "x"),
    lambda: Weight([True, 0], "x"),
    lambda: Weight((1.5,), "x"),
    lambda: Weight((1,), "x", 2.0),
    lambda: builtin_group("su21").t_weight([1.9, 0, -1]),
    lambda: FormalCharacter(SL2, {ch(SL2, [2]): 1.5}),
    lambda: FormalCharacter(SL2, {ch(SL2, [2]): True}),
    lambda: FormalCharacter(SL2, {}, 2.5),
    lambda: geometric_series(SL2, ALPHA, 2.5),
], ids=["weight", "weight-bool", "Weight", "denom", "t_weight", "coefficient",
        "coefficient-bool", "cutoff", "series-cutoff"])
def test_non_integers_are_refused_not_truncated(build):
    with pytest.raises(ValueError):  # LatticeError is a ValueError
        build()


def test_weights_from_different_lattices_do_not_mix():
    # a Weight meets another lattice only where it comes in, and is refused
    # there: as a key of H, and as a parameter of validate_params
    g = builtin_group("su21")
    for w in (Weight([1, 0, -1], "x"), g.t_weight([1, 0, -1]),
              g.tm_weight([1, 0]), g.tm_weight([1, 0, -1, 2])):
        with pytest.raises(LatticeError):
            g.hm.char(w)
    p = su21_from_lambda(g, [3, 1, -1])
    for lam in (g.t_weight([3, 1, -1]), g.tm_weight([3, 1]),
                g.tm_weight([3, 1, -1, 0])):
        v = validate_params(g, p._replace(lam=lam))
        assert v.verdict == "invalid"
        assert v.reason == "parameter is not a weight of the Levi Cartan"
    for nu in (g.tm_weight([]), g.a_weight([1])):
        v = validate_params(g, p._replace(nu=nu))
        assert v.reason == ("continuous parameter is not a weight of the "
                            "split part")


def test_trivial_times_trivial_is_trivial():
    one = FormalCharacter.one(SL2)
    assert char_mul(one, one) == one


def test_inverse_identity_up_to_height():
    # (1 - e^alpha) * sum_n e^{n alpha} is trivial below the certificate
    prod = char_mul(graded_exterior(SL2, [ALPHA]),
                    geometric_series(SL2, ALPHA, 10))
    assert prod.cutoff is not None and prod.cutoff >= 10
    assert prod == FormalCharacter.one(SL2).truncate(prod.cutoff)


def test_sl2_discrete_shift_series():
    # e^4 times the even series: coefficients 1 at 4, 6, 8, ...
    base = FormalCharacter(SL2, {ch(SL2, [4]): 1})
    prod = char_mul(base, geometric_series(SL2, ALPHA, 10))
    for w, want in [(4, 1), (6, 1), (8, 1), (5, 0), (2, 0), (0, 0)]:
        assert prod.coefficient(ch(SL2, [w])) == want


def test_geometric_series_examples():
    s = geometric_series(SL2, ALPHA, 6)
    assert [c for (c, _), _ in s.items()] == [(0,), (2,), (4,), (6,)]
    assert geometric_series(SL2, ALPHA, 0) == FormalCharacter.one(SL2).truncate(0)
    # five terms at cutoff 4 * height(root), for either noncompact root
    for b in (B1, B2):
        h2 = height2(U21, b)
        s = geometric_series(U21, b, 4 * h2 // 2)
        assert len(s) == 5 and all(m == 1 for _, m in s.items())


def test_geometric_series_rejects_bad_roots():
    with pytest.raises(ConeError):
        geometric_series(SL2, (0,), 5)
    with pytest.raises(ConeError):
        geometric_series(SL2, (-2,), 5)


@pytest.mark.parametrize("factor", [
    lambda hm, root: geometric_series(hm, root, 6),
    lambda hm, root: graded_exterior(hm, [ALPHA, root])],
    ids=["geometric_series", "graded_exterior"])
@pytest.mark.parametrize("root, exc", [
    ((0,), ConeError),
    ((-2,), ConeError),
    (Weight((2,), "other:tM"), LatticeError),
    ((2, 0), LatticeError),
    (Weight((1,), SL2.lattice, 2), LatticeError)],
    ids=["zero", "negative", "foreign", "rank", "half-integral"])
def test_series_factors_check_their_roots(factor, root, exc):
    # each root is checked once, before its terms are built unchecked; a
    # Weight, of another lattice or halved, is no integer coordinate tuple
    # (validate_params refuses a positive system's Weight as no root:
    # tests/test_groups.py::test_graded_rejects_a_foreign_positive)
    with pytest.raises(exc):
        factor(SL2, root)


@pytest.mark.parametrize("build", [
    lambda: geometric_series(SL2, ALPHA, 7),
    lambda: geometric_series(U21, B1, 9),
    lambda: geometric_series(U21, B2, 0),
    lambda: graded_exterior(SL2, []),
    lambda: graded_exterior(U21, [(1, -1, 0), B1, B2])])
def test_series_factors_equal_their_checked_build(build):
    got = build()
    assert len(got) and got == FormalCharacter(got.hm, dict(got.items()),
                                               got.cutoff)


def test_graded_exterior_examples():
    assert graded_exterior(SL2, []) == FormalCharacter.one(SL2)
    ext = graded_exterior(SL2, [ALPHA])
    assert ext.coefficient(ch(SL2, [0])) == 1
    assert ext.coefficient(ch(SL2, [2])) == -1
    ext2 = graded_exterior(U21, [(1, -1, 0)])
    assert ext2.coefficient(ch(U21, [0, 0, 0])) == 1
    assert ext2.coefficient(ch(U21, [1, -1, 0])) == -1


def test_kostant_partition_examples():
    assert kostant((0,), [ALPHA], SL2) == 1
    assert kostant((6,), [ALPHA], SL2) == 1
    assert kostant((5,), [ALPHA], SL2) == 0
    assert kostant(comb((1, B1), (1, B2)), [B1, B2], U21) == 1
    assert kostant((0, 0, 0), [B1, B2], U21) == 1


def test_kostant_partition_brute_force_and_permutation():
    rng = random.Random(7)
    roots = [B1, B2, comb((1, B1), (1, B2))]  # the third lies in the cone too
    for _ in range(40):
        n1, n2 = rng.randint(0, 5), rng.randint(0, 5)
        target = comb((n1, B1), (n2, B2))
        brute = sum(
            1 for c1 in range(0, 11) for c2 in range(0, 11) for c3 in range(0, 11)
            if comb((c1, B1), (c2, B2), (c3, roots[2])) == target)
        got = kostant(target, roots, U21)
        assert got == brute
        shuffled = roots[:]
        rng.shuffle(shuffled)
        assert kostant(target, shuffled, U21) == got
    # the whole table, at every point it holds and at none beyond
    counts = partition_counts(roots, U21, 20)
    brute = {}
    for c1 in range(11):
        for c2 in range(11):
            for c3 in range(11):
                pt = comb((c1, B1), (c2, B2), (c3, roots[2]))
                if height2(U21, pt) <= 20:
                    brute[pt] = brute.get(pt, 0) + 1
    assert counts == brute


def test_kostant_partition_rejects_unpointed_cone():
    with pytest.raises(ConeError):
        kostant((2,), [ALPHA, (-2,)], SL2)


def test_kostant_partition_memo_is_grading_independent():
    # the same root multiset queried under two height functionals (the two
    # functionals reverse the roots' height order) must agree; the shared
    # memo once conflated the two
    lat_a = HMLattice(3, "su21:tM", (2, 0, -2))
    lat_b = HMLattice(3, "su21:tM", (0, 2, -2))
    roots = [(1, 0, -1), (0, 1, -1)]
    for n1 in range(5):
        for n2 in range(5):
            t = comb((n1, roots[0]), (n2, roots[1]))
            a = kostant(t, roots, lat_a)
            b = kostant(t, roots, lat_b)
            assert a == b == 1


def test_kostant_equals_series_coefficient():
    series = char_mul(geometric_series(U21, B1, 12),
                      geometric_series(U21, B2, 12))
    for n1 in range(4):
        for n2 in range(4):
            t = comb((n1, B1), (n2, B2))
            assert (kostant(t, [B1, B2], U21)
                    == series.coefficient(ch(U21, t)))


def test_coefficient_examples_and_cutoff_error():
    assert FormalCharacter.one(SL2).coefficient(ch(SL2, [0])) == 1
    ext = graded_exterior(SL2, [ALPHA])
    assert ext.coefficient(ch(SL2, [2])) == -1
    # discrete n=3 line: zero off the support, exact inside the window
    base = FormalCharacter(SL2, {ch(SL2, [4]): 1})
    d3 = char_mul(base, geometric_series(SL2, ALPHA, 20))
    assert d3.coefficient(ch(SL2, [5])) == 0
    with pytest.raises(CutoffError):
        d3.coefficient(ch(SL2, [2 * (d3.cutoff + 1)]))


def test_a_certificate_holds_no_term_above_it_and_truncation_keeps_it():
    # e^4 has height 4 on SL2: a character certified to height 3 cannot
    # hold it, and one certified to 4 cuts at 4 or below, never above
    with pytest.raises(CutoffError) as e:
        FormalCharacter(SL2, {ch(SL2, [4]): 1}, cutoff=3)
    assert str(e.value) == "stored term above the cutoff certificate"
    series = geometric_series(SL2, ALPHA, 4)
    assert series.truncate(4) == series
    with pytest.raises(CutoffError) as e:
        series.truncate(5)
    assert str(e.value) == "cannot extend a certificate by truncation"


def test_zchar_table_group_structure():
    zt = ZCharTable(2, ((0,), (1,)))
    assert zt.identity == 0
    assert zt.products[1][1] == 0
    with pytest.raises(LatticeError):
        ZCharTable(2, ((0,), (0,)))
    # Z/2 x Z/2 as order 4, its rows out of order: (0, 0) is row 2
    zt = ZCharTable(4, ((2, 0), (0, 2), (0, 0), (2, 2)))
    assert zt.identity == 2
    assert zt.products == ((2, 3, 0, 1), (3, 2, 1, 0),
                           (0, 1, 2, 3), (1, 0, 3, 2))
    assert zt.index((6, -2)) == 3


def test_zchar_table_index_is_built_once():
    # the identity and the products are fields, built with the table; a
    # lookup reads the rows
    zt = ZCharTable(2, ((1,), (0,)))
    assert zt == (2, ((1,), (0,)), ((1, 0), (0, 1)), 1)
    assert [zt.index([e]) for e in (-1, 0, 1, 2)] == [0, 1, 0, 1]
    assert zt.identity == 1


def test_zchars_multiply_along_characters():
    a = FormalCharacter(SL2, {ch(SL2, [1], 1): 1})
    b = FormalCharacter(SL2, {ch(SL2, [2], 1): 1})
    prod = char_mul(a, b)
    assert prod.coefficient(ch(SL2, [3], 0)) == 1
    assert prod.coefficient(ch(SL2, [3], 1)) == 0


def _random_char(rng, lat, nterms=5, span=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        w = Weight(tuple(rng.randint(-span, span) for _ in range(lat.rank)),
                   lat.lattice)
        z = rng.randrange(lat.ztable.order)
        terms[lat.char(w, z)] = rng.randint(-4, 4)
    return FormalCharacter(lat, terms)


def test_ring_laws_randomized():
    rng = random.Random(20260811)
    for _ in range(150):
        a, b, c = (_random_char(rng, SL2) for _ in range(3))
        assert char_mul(a, b) == char_mul(b, a)
        assert char_mul(char_mul(a, b), c) == char_mul(a, char_mul(b, c))


def test_cutoff_soundness_randomized():
    # truncating inputs then multiplying matches the exact product wherever
    # the result certificate claims exactness
    rng = random.Random(99)
    for _ in range(120):
        a = _random_char(rng, U21, nterms=6, span=2)
        b = _random_char(rng, U21, nterms=6, span=2)
        exact = char_mul(a, b)
        ha = rng.randint(-2, 6)
        hb = rng.randint(-2, 6)
        ta = FormalCharacter(
            U21, {c: m for c, m in a.items()
                  if U21.key_height2(c) <= 2 * ha}, ha)
        tb = FormalCharacter(
            U21, {c: m for c, m in b.items()
                  if U21.key_height2(c) <= 2 * hb}, hb)
        prod = char_mul(ta, tb)
        if prod.cutoff is None:
            continue
        for c, m in exact.items():
            if U21.key_height2(c) <= 2 * prod.cutoff:
                assert prod.coefficient(c) == m
        for c, m in prod.items():
            assert exact.coefficient(c) == m


@pytest.mark.parametrize("lat", [SL2, U21], ids=["order-2", "order-1"])
def test_char_mul_equals_the_full_product_truncated(lat):
    # pairs above the certificate are skipped before they are formed, and
    # the product is built without the constructor's checks; it still
    # equals the product of every pair, truncated afterwards, built with them
    rng = random.Random(17)
    cancelled = 0
    for _ in range(150):
        a = _random_char(rng, lat, nterms=8, span=3)
        b = _random_char(rng, lat, nterms=8, span=3)
        cuts = [rng.choice([None, rng.randint(-3, 6)]) for _ in range(2)]
        a, b = (x if c is None else FormalCharacter(
                    lat, {k: m for k, m in x.items()
                          if lat.key_height2(k) <= 2 * c}, c)
                for x, c in zip((a, b), cuts))
        full = {}
        for (ca, za), ma in a.items():
            for (cb, zb), mb in b.items():
                key = (tuple(x + y for x, y in zip(ca, cb)),
                       lat.ztable.products[za][zb])
                full[key] = full.get(key, 0) + ma * mb
        prod = char_mul(a, b)
        if prod.cutoff is None:
            assert None in cuts or not len(a) or not len(b)
            assert prod == FormalCharacter(lat, full)
            cancelled += list(full.values()).count(0)
            continue
        kept = {k: m for k, m in full.items()
                if lat.key_height2(k) <= 2 * prod.cutoff}
        assert prod == FormalCharacter(lat, kept, prod.cutoff)
        cancelled += list(kept.values()).count(0)
    assert cancelled  # coefficients that cancel are dropped


def test_lattice_mismatch_in_product():
    with pytest.raises(LatticeError):
        char_mul(FormalCharacter.one(SL2), FormalCharacter.one(U21))


def test_char_defaults_to_the_identity_and_checks_its_index():
    hm = HMLattice(1, "z", (2,), ZCharTable(2, ((1,), (0,))))
    w = Weight((2,), "z")
    assert hm.char(w) == ((2,), 1)
    assert hm.char(w, 0) == ((2,), 0)
    for z in (-1, -2, 2, True, 1.0):
        with pytest.raises(LatticeError):
            hm.char(w, z)
    with pytest.raises(LatticeError):
        hm.char(Weight((2,), "elsewhere"))


@pytest.mark.parametrize("key", [
    ((1, 0), 0),             # wrong rank
    ((1.0, 0, -1), 0),       # not integers
    ((1, 0, -1), 1),         # U21 has one Z' character
    ((1, 0, -1), -1),
    ((1, 0, -1), True),
    (Weight(B1, "su21:tM"), 0),  # a Weight, not its coordinates
])
def test_keys_off_the_lattice_are_refused(key):
    with pytest.raises(LatticeError):
        FormalCharacter(U21, {key: 1})
    with pytest.raises(LatticeError):
        geometric_series(U21, B1, 4).coefficient(key)
