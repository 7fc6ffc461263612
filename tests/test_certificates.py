"""Schmid's certificates on the K-types of a table (W. Schmid, Ann. of
Math. 102, 1975; H. Hecht and W. Schmid, Invent. Math. 31, 1975).

With Lambda = lambda + rho_n - rho_c the base of the parameters, every
K-type mu with a nonzero row restricts into the noncompact cone over it,
R mu - Lambda in N . Delta_n^+, and carries the base's Z' character; the
K-type with R mu = Lambda has multiplicity exactly 1.  Neither check uses
an evaluator, only the root data and one partition_counts cone table.
The multiplicity-1 part needs R injective on K-types; on sl2r-split every
K-type restricts to the base's torus coordinates, so only the Z' part
applies there.
"""

import random
from pathlib import Path

import pytest

from kbranch import branching
from kbranch.branching import TemperedParams, ktype_table, validate_params
from kbranch.characters import partition_counts
from kbranch.groups import builtin_group, load_group_data, matvec
from kbranch.verify import _sl2_param_sets, random_su21_params

SP4R = load_group_data(Path(__file__).parent / "data" / "sp4r.json")


def assert_certificates(g, p, window, injective=True):
    prep = validate_params(g, p)
    base, z = prep.base
    rows = ktype_table(g, p, window).rows()
    assert rows
    assert all(g.zchar(mu) == z for mu, _ in rows)
    if not injective:
        return
    offsets = [(tuple(a - b for a, b in zip(matvec(g.tm_in_t, mu), base)), m)
               for mu, m in rows]
    hm = prep.chamber.hm
    cone = partition_counts(prep.chamber.noncompact, hm, max(
        sum(x * y for x, y in zip(d, hm.height_vec)) for d, _ in offsets))
    assert [d for d, _ in offsets if d not in cone] == []
    assert [m for d, m in offsets if not any(d)] == [1]


def test_su21_random_parameters():
    g, rng = builtin_group("su21"), random.Random(20261018)
    for _ in range(40):
        assert_certificates(g, random_su21_params(g, rng), 12)


@pytest.mark.parametrize("lam", [(2, 1), (3, 1), (5, 2), (6, 1),
                                 (2, -1), (3, -1), (4, -3), (1, -2)])
def test_sp4r_chambers(lam):
    # lam on its own chamber: the Levi roots it pairs positively with
    pos = tuple(
        r if sum(a * b for a, b in zip(lam, r)) > 0 else tuple([-x for x in r])
        for r in SP4R.m_roots.positives)
    assert_certificates(SP4R, TemperedParams(
        SP4R.tm_weight(list(lam)), pos, 0, SP4R.a_weight([])), 10)


SL2 = _sl2_param_sets()


@pytest.mark.parametrize("g, p", [(g, p) for _, g, p, _ in SL2],
                         ids=[label for label, *_ in SL2])
def test_sl2_families(g, p):
    assert_certificates(g, p, 12, injective=g.name != "sl2r-split")
