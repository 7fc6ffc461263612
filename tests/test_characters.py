"""Exact-arithmetic tests for weights and series of characters of H."""

import random
from operator import add

import pytest

from kbranch.branching import validate_params
from kbranch.characters import (ConeError, HMLattice, LatticeError, Weight,
                                ZCharTable, char_mul, geometric_series,
                                graded_exterior, partition_counts)
from kbranch.groups import builtin_group
from kbranch.presets import resolve_params

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


def series_of(hm, terms, cert=None):
    """The series of {key: m} certified to the doubled height cert: its
    nonzero terms (doubled height, key, m) at most cert high, lowest first,
    each key checked as a character of hm."""
    return cert, sorted([(h, k, m) for k, m in terms.items()
                         for h in [hm.key_height2(k)]
                         if m and (cert is None or h <= cert)])


def checked(hm, s):
    """s, once its invariants are asserted: terms lowest first, each at its
    key's doubled height, keys distinct, no m zero, none above the
    certificate."""
    cert, terms = s
    assert cert is None or type(cert) is int
    assert terms == sorted(terms)
    assert len({k for _, k, _ in terms}) == len(terms)
    for h, key, m in terms:
        assert h == hm.key_height2(key) and type(m) is int and m != 0
        assert cert is None or h <= cert
    return s


def coefficient(hm, s, key):
    """The coefficient of s at key, a key within its certificate."""
    cert, terms = s
    assert cert is None or hm.key_height2(key) <= cert
    return {k: m for _, k, m in terms}.get(key, 0)


def height2(hm, coords):
    return hm.key_height2((coords, hm.ztable.identity))


def kostant(target, roots, hm):
    """The number of ways target is a nonnegative sum of the roots: its
    entry in the partition_counts table cut at its own height."""
    return partition_counts(roots, hm, height2(hm, target)).get(target, 0)


def test_weight_reduces_a_halved_tuple_where_it_is_built():
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
    lambda: geometric_series(SL2, ALPHA, 2.5),
], ids=["weight", "weight-bool", "Weight", "denom", "t_weight",
        "series-cutoff"])
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
    p = resolve_params(g, {"lambda": [3, 1, -1]})
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
    one = None, [(0, ch(SL2, [0]), 1)]
    assert char_mul(SL2, one, one) == one


def test_a_product_is_certified_to_a_whole_height():
    # doubled heights may be odd: a factor's certificate plus the other's
    # least height, floored to even; a truncated zero's least height lies
    # just above its certificate
    hm = HMLattice(1, "odd", (1,))
    e1, s = (None, [(1, ((1,), 0), 1)]), geometric_series(hm, (1,), 2)
    assert s[0] == 4
    prod = checked(hm, char_mul(hm, e1, s))
    assert prod == char_mul(hm, s, e1) == (4, [(n, ((n,), 0), 1)
                                               for n in range(1, 5)])
    assert char_mul(hm, (2, []), (2, [])) == (4, [])  # 2 + 2 + 1, floored


def test_inverse_identity_up_to_height():
    # (1 - e^alpha) * sum_n e^{n alpha} is trivial below the certificate
    prod = checked(SL2, char_mul(SL2, graded_exterior(SL2, [ALPHA]),
                                 geometric_series(SL2, ALPHA, 10)))
    assert prod[0] is not None and prod[0] >= 20
    assert prod[1] == [(0, ch(SL2, [0]), 1)]


def test_sl2_discrete_shift_series():
    # e^4 times the even series: coefficients 1 at 4, 6, 8, ...
    base = series_of(SL2, {ch(SL2, [4]): 1})
    prod = checked(SL2, char_mul(SL2, base, geometric_series(SL2, ALPHA, 10)))
    for w, want in [(4, 1), (6, 1), (8, 1), (5, 0), (2, 0), (0, 0)]:
        assert coefficient(SL2, prod, ch(SL2, [w])) == want


def test_geometric_series_examples():
    # certified to the doubled cutoff; the root (2) has doubled height 4
    s = checked(SL2, geometric_series(SL2, ALPHA, 6))
    assert s == (12, [(4 * n, ch(SL2, [2 * n]), 1) for n in range(4)])
    assert geometric_series(SL2, ALPHA, 0) == (0, [(0, ch(SL2, [0]), 1)])
    # five terms at cutoff 4 * height(root), for either noncompact root
    for b in (B1, B2):
        h2 = height2(U21, b)
        cert, terms = checked(U21, geometric_series(U21, b, 4 * h2 // 2))
        assert cert == 4 * h2 and len(terms) == 5
        assert all(m == 1 for *_, m in terms)


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
    lambda: (SL2, geometric_series(SL2, ALPHA, 7)),
    lambda: (U21, geometric_series(U21, B1, 9)),
    lambda: (U21, geometric_series(U21, B2, 0)),
    lambda: (SL2, graded_exterior(SL2, [])),
    lambda: (U21, graded_exterior(U21, [(1, -1, 0), B1, B2]))])
def test_series_factors_equal_their_checked_build(build):
    # each factor's terms are built unchecked; they equal the series of
    # their coefficients built with every key checked
    hm, got = build()
    assert got[1] and checked(hm, got) == series_of(
        hm, {k: m for _, k, m in got[1]}, got[0])


def test_graded_exterior_examples():
    assert graded_exterior(SL2, []) == (None, [(0, ch(SL2, [0]), 1)])
    ext = checked(SL2, graded_exterior(SL2, [ALPHA]))
    assert ext == (None, [(0, ch(SL2, [0]), 1), (4, ch(SL2, [2]), -1)])
    ext2 = checked(U21, graded_exterior(U21, [(1, -1, 0)]))
    assert ext2 == (None, [(0, ch(U21, [0, 0, 0]), 1),
                           (2, ch(U21, [1, -1, 0]), -1)])


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
    series = checked(U21, char_mul(U21, geometric_series(U21, B1, 12),
                                   geometric_series(U21, B2, 12)))
    for n1 in range(4):
        for n2 in range(4):
            t = comb((n1, B1), (n2, B2))
            assert (kostant(t, [B1, B2], U21)
                    == coefficient(U21, series, ch(U21, t)))


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
    a = series_of(SL2, {ch(SL2, [1], 1): 1})
    b = series_of(SL2, {ch(SL2, [2], 1): 1})
    prod = checked(SL2, char_mul(SL2, a, b))
    assert coefficient(SL2, prod, ch(SL2, [3], 0)) == 1
    assert coefficient(SL2, prod, ch(SL2, [3], 1)) == 0


def _random_char(rng, lat, nterms=5, span=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        w = Weight(tuple(rng.randint(-span, span) for _ in range(lat.rank)),
                   lat.lattice)
        z = rng.randrange(lat.ztable.order)
        terms[lat.char(w, z)] = rng.randint(-4, 4)
    return series_of(lat, terms)


def test_ring_laws_randomized():
    rng = random.Random(20260811)
    for _ in range(150):
        a, b, c = (_random_char(rng, SL2) for _ in range(3))
        ab = checked(SL2, char_mul(SL2, a, b))
        assert ab == char_mul(SL2, b, a)
        assert (checked(SL2, char_mul(SL2, ab, c))
                == char_mul(SL2, a, char_mul(SL2, b, c)))


def test_cutoff_soundness_randomized():
    # truncating inputs then multiplying matches the exact product wherever
    # the result certificate claims exactness
    rng = random.Random(99)
    for _ in range(120):
        a = _random_char(rng, U21, nterms=6, span=2)
        b = _random_char(rng, U21, nterms=6, span=2)
        exact = checked(U21, char_mul(U21, a, b))
        ha = rng.randint(-2, 6)
        hb = rng.randint(-2, 6)
        ta = series_of(U21, {c: m for _, c, m in a[1]}, 2 * ha)
        tb = series_of(U21, {c: m for _, c, m in b[1]}, 2 * hb)
        prod = checked(U21, char_mul(U21, ta, tb))
        if prod[0] is None:
            continue
        for h, c, m in exact[1]:
            if h <= prod[0]:
                assert coefficient(U21, prod, c) == m
        for _, c, m in prod[1]:
            assert coefficient(U21, exact, c) == m


@pytest.mark.parametrize("lat", [SL2, U21], ids=["order-2", "order-1"])
def test_char_mul_equals_the_full_product_truncated(lat):
    # pairs above the certificate are skipped before they are formed, and
    # the product's keys are sums left unchecked; it still equals the
    # product of every pair, truncated afterwards, each key checked
    rng = random.Random(17)
    cancelled = 0
    for _ in range(150):
        a = _random_char(rng, lat, nterms=8, span=3)
        b = _random_char(rng, lat, nterms=8, span=3)
        cuts = [rng.choice([None, rng.randint(-3, 6)]) for _ in range(2)]
        a, b = (x if c is None else series_of(
                    lat, {k: m for _, k, m in x[1]}, 2 * c)
                for x, c in zip((a, b), cuts))
        full = {}
        for _, (ca, za), ma in a[1]:
            for _, (cb, zb), mb in b[1]:
                key = (tuple(x + y for x, y in zip(ca, cb)),
                       lat.ztable.products[za][zb])
                full[key] = full.get(key, 0) + ma * mb
        prod = checked(lat, char_mul(lat, a, b))
        if prod[0] is None:
            assert None in cuts or not a[1] or not b[1]
            assert prod == series_of(lat, full)
            cancelled += list(full.values()).count(0)
            continue
        kept = {k: m for k, m in full.items()
                if lat.key_height2(k) <= prod[0]}
        assert prod == series_of(lat, kept, prod[0])
        cancelled += list(kept.values()).count(0)
    assert cancelled  # coefficients that cancel are dropped


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
        U21.key_height2(key)
