"""K-type enumeration, dimensions, weight multiplicities, restriction."""

import itertools
import json

import pytest

from kbranch import ktypes
from kbranch.characters import pairing
from kbranch.groups import (builtin_group, builtin_group_names,
                            load_group_data, weyl_group)
from kbranch.ktypes import (KType, enumerate_ktypes, is_dominant,
                            restrict_to_hm, weight_multiplicities,
                            weyl_dimension)


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
COMPACT = {"u3-test": U3, "b2-test": B2}


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
    assert weight_multiplicities(g, KType(g.t_weight([5]))) == {(5,): 1}


def test_weight_multiplicities_u2_adjoint():
    assert weight_multiplicities(U2, KType(U2.t_weight([1, -1]))) == {
        (1, -1): 1, (0, 0): 1, (-1, 1): 1}


def test_weight_multiplicities_su3_adjoint():
    for coords, zero, total in [((1, 0, -1), 2, 8), ((2, 0, -2), 3, 27)]:
        table = weight_multiplicities(U3, KType(U3.t_weight(coords)))
        assert table[(0, 0, 0)] == zero
        assert sum(table.values()) == total
        if total == 8:
            assert all(m == 1 for w, m in table.items() if w != (0, 0, 0))


def test_weight_multiplicities_b2_adjoint():
    table = weight_multiplicities(B2, KType(B2.t_weight([1, 1])))
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
    wm = weight_multiplicities(U2, KType(U2.t_weight([h, 0])))
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
                for e in els:
                    assert table.get(e.apply(g.t_weight(w)).coords) == m


def test_is_dominant_examples():
    assert is_dominant((0,), [(2,)])
    assert is_dominant((3,), [(2,)])
    assert not is_dominant((-3,), [(2,)])
    assert not is_dominant((2, 5), [(1, -1)])


def test_restrict_preserves_total_multiplicity():
    gu = builtin_group("su21")
    cases = [(gu, [KType(gu.t_weight(c))
                   for c in [(2, 0, -1), (3, 1, -4), (1, 1, 1)]])]
    cases += [(builtin_group(name), enumerate_ktypes(builtin_group(name), 4))
              for name in builtin_group_names()]
    cases += [(g, enumerate_ktypes(g, 3)) for g in COMPACT.values()]
    for g, kts in cases:
        for kt in kts:
            assert sum(restrict_to_hm(g, kt).values()) == weyl_dimension(g, kt)


def test_restrict_to_hm_split_parities():
    g = builtin_group("sl2r-split")
    assert restrict_to_hm(g, KType(g.t_weight([3]))) == {((), 1): 1}
    assert restrict_to_hm(g, KType(g.t_weight([2]))) == {((), 0): 1}
    with pytest.raises(TypeError):  # read-only: shared through the cache
        restrict_to_hm(g, KType(g.t_weight([2])))[((), 0)] = 2


def test_restrict_to_hm_compact_cartan():
    g = builtin_group("sl2r-compact")
    assert restrict_to_hm(g, KType(g.t_weight([5]))) == {((5,), 1): 1}


@pytest.mark.parametrize("name", builtin_group_names())
def test_enumerate_matches_coroot_dominance(name):
    g = builtin_group(name)
    for window in range(6):
        box = itertools.product(range(-window, window + 1),
                                repeat=g.k_roots.rank)
        want = [KType(g.t_weight(c)) for c in box
                if all(pairing(g.t_weight(c), s) >= 0
                       for s in g.k_roots.simples)]
        assert enumerate_ktypes(g, window) == want
