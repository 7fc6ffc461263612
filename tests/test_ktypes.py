"""K-type enumeration, dimensions, weight multiplicities, restriction."""

import itertools
import json

import pytest

from kbranch.groups import (builtin_group, builtin_group_names,
                            load_group_data, validate_dominant, weyl_group)
from kbranch.ktypes import (KType, enumerate_ktypes, restrict_to_hm,
                            weight_multiplicities, weyl_dimension)


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


def test_enumerate_circle_group():
    g = builtin_group("sl2r-compact")  # K = SO(2)
    kts = enumerate_ktypes(g, 3)
    assert [kt.highest.coords for kt in kts] == [(k,) for k in range(-3, 4)]
    assert [kt.highest.coords for kt in enumerate_ktypes(g, 0)] == [(0,)]


def test_enumerate_u2():
    kts = enumerate_ktypes(U2, 1)
    got = {kt.highest.coords for kt in kts}
    want = {(a, b) for a in range(-1, 2) for b in range(-1, 2) if a >= b}
    assert got == want
    # lexicographic order
    assert [kt.highest.coords for kt in kts] == sorted(got)


def test_weyl_dimension_examples():
    g = builtin_group("sl2r-compact")
    assert weyl_dimension(g, KType(g.t_weight([0]))) == 1
    assert weyl_dimension(g, KType(g.t_weight([7]))) == 1
    assert weyl_dimension(U2, KType(U2.t_weight([2, 0]))) == 3
    assert weyl_dimension(U3, KType(U3.t_weight([1, 0, -1]))) == 8


def test_weight_multiplicities_circle():
    g = builtin_group("sl2r-compact")
    wm = weight_multiplicities(g, KType(g.t_weight([5])))
    assert [(c.tweight.coords, m) for c, m in wm.items()] == [((5,), 1)]


def test_weight_multiplicities_u2_adjoint():
    wm = weight_multiplicities(U2, KType(U2.t_weight([1, -1])))
    assert {c.tweight.coords: m for c, m in wm.items()} == {
        (1, -1): 1, (0, 0): 1, (-1, 1): 1}


def test_weight_multiplicities_su3_adjoint():
    wm = weight_multiplicities(U3, KType(U3.t_weight([1, 0, -1])))
    table = {c.tweight.coords: m for c, m in wm.items()}
    assert table[(0, 0, 0)] == 2
    assert sum(table.values()) == 8
    assert all(m == 1 for w, m in table.items() if w != (0, 0, 0))


def test_rank_one_string():
    # U(2) irreducible with highest weight (h, 0): weights step down by the
    # root, the su(2)-string h, h-2, ..., -h in the difference coordinate
    h = 4
    wm = weight_multiplicities(U2, KType(U2.t_weight([h, 0])))
    diffs = sorted(c.tweight.coords[0] - c.tweight.coords[1]
                   for c in wm.support())
    assert diffs == list(range(-h, h + 1, 2))


@pytest.mark.parametrize("name", ["sl2r-compact", "sl2r-split", "su21"])
def test_dimension_sum_rule(name):
    g = builtin_group(name)
    for kt in enumerate_ktypes(g, 4):
        wm = weight_multiplicities(g, kt)
        assert wm.total_mass() == weyl_dimension(g, kt)


def test_weyl_invariance_of_weights():
    els = weyl_group(U3.k_roots)
    for coords in [(2, 1, 0), (3, 0, -1), (1, 1, -2)]:
        wm = weight_multiplicities(U3, KType(U3.t_weight(coords)))
        table = {c.tweight.coords: m for c, m in wm.items()}
        for w, m in table.items():
            for e in els:
                assert table.get(e.apply(U3.t_weight(w)).coords) == m


def test_restrict_preserves_total_multiplicity():
    gu = builtin_group("su21")
    for coords in [(2, 0, -1), (3, 1, -4), (1, 1, 1)]:
        kt = KType(gu.t_weight(coords))
        assert restrict_to_hm(gu, kt).total_mass() == weyl_dimension(gu, kt)


def test_restrict_to_hm_split_parities():
    g = builtin_group("sl2r-split")
    odd = restrict_to_hm(g, KType(g.t_weight([3])))
    assert [(c.tweight.coords, c.zchar, m) for c, m in odd.items()] == [
        ((), 1, 1)]
    even = restrict_to_hm(g, KType(g.t_weight([2])))
    assert [(c.tweight.coords, c.zchar, m) for c, m in even.items()] == [
        ((), 0, 1)]


def test_restrict_to_hm_compact_cartan():
    g = builtin_group("sl2r-compact")
    r = restrict_to_hm(g, KType(g.t_weight([5])))
    assert [(c.tweight.coords, c.zchar, m) for c, m in r.items()] == [
        ((5,), 1, 1)]


@pytest.mark.parametrize("name", builtin_group_names())
def test_enumerate_matches_coroot_dominance(name):
    g = builtin_group(name)
    for window in range(6):
        box = itertools.product(range(-window, window + 1),
                                repeat=g.k_roots.rank)
        want = [KType(g.t_weight(c)) for c in box
                if validate_dominant(g.k_roots, g.t_weight(c))]
        assert enumerate_ktypes(g, window) == want
