"""K-type enumeration, weight multiplicities by Kostant's formula and
restriction, checked against Weyl's dimension formula."""

import itertools
import json
import random
from math import prod
from operator import add, mul, sub
from pathlib import Path

import pytest

from kbranch import ktypes
from kbranch.characters import dot
from kbranch.groups import (builtin_group, builtin_group_names,
                            load_group_data, matvec, weyl_group)
from kbranch.ktypes import enumerate_ktypes, key_index


def restrict_to_hm(g, hw):
    """The restriction of one K-type as a map {H-key: m}, read off its index."""
    return {k: m for k, [(_, m)] in key_index(g, [hw]).items()}


def weight_multiplicities(g, hw):
    """The weights of the K-type hw as {coords: m}, from the cone points t
    below it that Kostant's formula gives."""
    return {tuple(map(sub, hw, t)): m for t, m in ktypes._kostant(g, hw)}


def weyl_dimension(g, hw):
    """Weyl's dimension formula, exact: the product over the positive roots
    of <2 hw + 2 rho, alpha> / <2 rho, alpha>, 2 rho the height covector."""
    rho2 = g.t_lattice.height_vec
    pos = [alpha.coords for alpha in g.k_roots.positives]
    return (prod(sum((2 * x + r) * a for x, r, a in zip(hw, rho2, alpha))
                 for alpha in pos)
            // prod(sum(map(mul, rho2, alpha)) for alpha in pos))


def compact_group_doc(name, rank, roots, positives, simples):
    """A compact group viewed as its own Levi factor: no split part, all
    roots compact."""
    return {
        "name": name,
        "k": {"rank": rank, "roots": roots, "positives": positives,
              "simples": simples},
        "m": {"rank": rank, "roots": roots, "positives": positives,
              "compact_flags": [True] * len(roots)},
        "restricted": {"dim_a": 0, "roots": [], "positives": []},
        "tM_in_t": [[1 if i == j else 0 for j in range(rank)]
                    for i in range(rank)],
        "zmprime": {"order": 1, "generators": []},
        "dims": {"s_M": 0, "a": 0},
    }


U2 = load_group_data(json.dumps(compact_group_doc(
    "u2-test", 2, [[1, -1], [-1, 1]], [[1, -1]], [[1, -1]])))
U3 = load_group_data(json.dumps(compact_group_doc(
    "u3-test", 3,
    [[1, -1, 0], [-1, 1, 0], [1, 0, -1], [-1, 0, 1], [0, 1, -1], [0, -1, 1]],
    [[1, -1, 0], [1, 0, -1], [0, 1, -1]],
    [[1, -1, 0], [0, 1, -1]])))
B2 = load_group_data(json.dumps(compact_group_doc(
    "b2-test", 2,
    [[1, -1], [-1, 1], [1, 1], [-1, -1], [1, 0], [-1, 0], [0, 1], [0, -1]],
    [[1, -1], [1, 1], [1, 0], [0, 1]],
    [[1, -1], [0, 1]])))  # SO(5)
# U(3) x U(1): a centre of dimension 2 and |W_K| = 6
U3xU1 = load_group_data(json.dumps(compact_group_doc(
    "u3xu1-test", 4,
    [[1, -1, 0, 0], [-1, 1, 0, 0], [1, 0, -1, 0], [-1, 0, 1, 0],
     [0, 1, -1, 0], [0, -1, 1, 0]],
    [[1, -1, 0, 0], [1, 0, -1, 0], [0, 1, -1, 0]],
    [[1, -1, 0, 0], [0, 1, -1, 0]])))
COMPACT = {"u3-test": U3, "b2-test": B2}


def test_enumerate_circle_group():
    g = builtin_group("sl2r-compact")  # K = SO(2)
    kts = enumerate_ktypes(g, 3)
    assert kts == [(k,) for k in range(-3, 4)]
    assert enumerate_ktypes(g, 0) == [(0,)]


def test_enumerate_u2():
    kts = enumerate_ktypes(U2, 1)
    got = set(kts)
    want = {(a, b) for a in range(-1, 2) for b in range(-1, 2) if a >= b}
    assert got == want
    # lexicographic order
    assert kts == sorted(got)


def test_weyl_dimension_examples():
    g = builtin_group("sl2r-compact")
    assert weyl_dimension(g, (0,)) == 1
    assert weyl_dimension(g, (7,)) == 1
    assert weyl_dimension(U2, (2, 0)) == 3
    assert weyl_dimension(U3, (1, 0, -1)) == 8


def test_weight_multiplicities_circle():
    g = builtin_group("sl2r-compact")
    assert weight_multiplicities(g, (5,)) == {(5,): 1}


def test_weight_multiplicities_u2_adjoint():
    assert weight_multiplicities(U2, (1, -1)) == {
        (1, -1): 1, (0, 0): 1, (-1, 1): 1}


def test_weight_multiplicities_su3_adjoint():
    for coords, zero, total in [((1, 0, -1), 2, 8), ((2, 0, -2), 3, 27)]:
        table = weight_multiplicities(U3, coords)
        assert table[(0, 0, 0)] == zero
        assert sum(table.values()) == total
        if total == 8:
            assert all(m == 1 for w, m in table.items() if w != (0, 0, 0))


def test_weight_multiplicities_b2_adjoint():
    table = weight_multiplicities(B2, (1, 1))
    assert table == {(0, 0): 2, **{r.coords: 1 for r in B2.k_roots.roots}}


def test_one_partition_table_per_weight_character(monkeypatch):
    partition_counts = ktypes.partition_counts
    calls = []

    def counted(*args):
        calls.append(args)
        return partition_counts(*args)

    monkeypatch.setattr(ktypes, "partition_counts", counted)
    n = 0
    for g in (builtin_group("sl2r-compact"), builtin_group("su21"), U3, B2):
        for kt in enumerate_ktypes(g, 2):
            weight_multiplicities(g, kt)
            n += 1
            assert len(calls) == n


def test_rank_one_string():
    # U(2) irreducible with highest weight (h, 0): weights step down by the
    # root, the su(2)-string h, h-2, ..., -h in the difference coordinate
    h = 4
    wm = weight_multiplicities(U2, (h, 0))
    diffs = sorted(a - b for a, b in wm)
    assert diffs == list(range(-h, h + 1, 2))


@pytest.mark.parametrize("name",
                         ["sl2r-compact", "sl2r-split", "su21", *COMPACT])
def test_dimension_sum_rule(name):
    g, window = (COMPACT[name], 3) if name in COMPACT else (builtin_group(name), 4)
    for kt in enumerate_ktypes(g, window):
        wm = weight_multiplicities(g, kt)
        assert sum(wm.values()) == weyl_dimension(g, kt)


def test_weyl_invariance_of_weights():
    for g in COMPACT.values():
        els = weyl_group(g.k_roots)
        for kt in enumerate_ktypes(g, 3):
            table = weight_multiplicities(g, kt)
            for w, m in table.items():
                for mat, _ in els:
                    assert table.get(matvec(mat, w)) == m


def test_restrict_preserves_total_multiplicity():
    gu = builtin_group("su21")
    cases = [(gu, [(2, 0, -1), (3, 1, -4), (1, 1, 1)])]
    cases += [(builtin_group(name), enumerate_ktypes(builtin_group(name), 4))
              for name in builtin_group_names()]
    cases += [(g, enumerate_ktypes(g, 3)) for g in COMPACT.values()]
    for g, kts in cases:
        for kt in kts:
            assert sum(restrict_to_hm(g, kt).values()) == weyl_dimension(g, kt)


def test_restrict_to_hm_split_parities():
    g = builtin_group("sl2r-split")
    assert restrict_to_hm(g, (3,)) == {((), 1): 1}
    assert restrict_to_hm(g, (2,)) == {((), 0): 1}


def test_restrict_to_hm_compact_cartan():
    g = builtin_group("sl2r-compact")
    assert restrict_to_hm(g, (5,)) == {((5,), 1): 1}


@pytest.mark.parametrize("name", builtin_group_names())
def test_enumerate_matches_coroot_dominance(name):
    g = builtin_group(name)
    for window in range(6):
        box = itertools.product(range(-window, window + 1),
                                repeat=g.k_roots.rank)
        want = [c for c in box
                if all(dot(g.t_weight(c), s) >= 0
                       for s in g.k_roots.simples)]
        assert enumerate_ktypes(g, window) == want


SP4R = load_group_data(Path(__file__).parent / "data" / "sp4r.json")
# U(2) with a Z' of order 2 on which its root has the nontrivial character,
# so the Z' index of a weight hw - t depends on t
U2_Z2_DOC = compact_group_doc("u2-z2-test", 2, [[1, -1], [-1, 1]], [[1, -1]],
                              [[1, -1]])
U2_Z2_DOC["zmprime"] = {"order": 2, "generators": [
    {"v": ["1/2", "0"], "char_table_row": [0, 1]}]}
U2_Z2 = load_group_data(json.dumps(U2_Z2_DOC))


@pytest.mark.parametrize("g", [*map(builtin_group, builtin_group_names()),
                               SP4R, U2, U2_Z2, *COMPACT.values(), U3xU1],
                         ids=lambda g: g.name)
def test_batch_restriction_is_the_per_weight_definition(g):
    # the translates of the class restrictions give each weight mu of each
    # K-type the key (R mu, zchar(mu))
    kts = enumerate_ktypes(g, 3)
    want = []
    for kt in kts:
        res = {}
        for mu, m in weight_multiplicities(g, kt).items():
            key = matvec(g.tm_in_t, mu), g.zchar(mu)
            res[key] = res.get(key, 0) + m
        want.append(res)
    assert [restrict_to_hm(g, kt) for kt in kts] == want
    inverted = {}
    for row, res in enumerate(want):
        for key, m in res.items():
            inverted.setdefault(key, []).append((row, m))
    box, index = ktypes.ktype_box(g, 3)
    assert box == tuple(kts)
    assert index == inverted


def _central(g, bound):
    """The integer vectors orthogonal to every K root, in a cube."""
    simples = [s.coords for s in g.k_roots.simples]
    return [c for c in itertools.product(range(-bound, bound + 1),
                                         repeat=g.k_roots.rank)
            if all(sum(map(mul, c, s)) == 0 for s in simples)]


@pytest.mark.parametrize("g", [builtin_group("su21"), SP4R, U2_Z2, U3xU1],
                         ids=lambda g: g.name)
def test_central_translate_of_a_restriction(g):
    # hw and hw + c, c central, share a class: the restriction of hw + c is
    # that of hw moved by c's own H-key
    rng = random.Random(20231)
    central = [c for c in _central(g, 3) if any(c)]
    assert central
    ztable = g.hm.ztable
    for hw in enumerate_ktypes(g, 3):
        c = rng.choice(central)
        rc, zc = matvec(g.tm_in_t, c), g.zchar(c)
        moved = {(tuple(map(add, r, rc)), ztable.mul(z, zc)): m
                 for (r, z), m in restrict_to_hm(g, hw).items()}
        assert restrict_to_hm(g, tuple(map(add, hw, c))) == moved


def test_restriction_runs_kostant_once_per_class(monkeypatch):
    # Kostant's formula runs once per class of K-types modulo the centre,
    # the dot products with the simple roots: on su21 once per a - b
    g = builtin_group("su21")
    kostant, translate = ktypes._kostant, ktypes._translate
    calls, translated = [], []

    def counted_kostant(g, *args):
        calls.append(args)
        return kostant(g, *args)

    def counted_translate(g, hw, pairings):
        translated.append(hw)
        return translate(g, hw, pairings)

    monkeypatch.setattr(ktypes, "_kostant", counted_kostant)
    monkeypatch.setattr(ktypes, "_translate", counted_translate)
    ktypes.ktype_box.cache_clear()
    ktypes._class_keys.cache_clear()
    box, _ = ktypes.ktype_box(g, 6)
    assert ktypes.ktype_box(g, 6)[0] is box  # one build per (group, window)
    assert len(box) == 1183 and translated == list(box)  # each K-type once
    assert len(calls) <= 13 == len({a - b for a, b, _ in box})
    ktypes._class_keys.cache_clear()
    calls.clear()
    sample = enumerate_ktypes(g, 8)[::7]
    for hw in sample:
        restrict_to_hm(g, hw)
    assert len(calls) == len({a - b for a, b, _ in sample})
