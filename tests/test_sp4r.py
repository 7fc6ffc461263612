"""Sp(4,R) on its compact Cartan, K = U(2): a group whose K-type
multiplicities exceed 1, so the terms of Blattner's signed W_K sum cancel.
The three evaluators must agree, and on the holomorphic chamber they must
give Schmid's closed form."""

from collections import Counter
from pathlib import Path

import pytest

from kbranch.branching import (TemperedParams, box_table, ktype_table,
                               ktype_table_series, validate_params)
from kbranch.groups import load_group_data

G = load_group_data(Path(__file__).parent / "data" / "sp4r.json")
HOLOMORPHIC = [(2, 1), (3, 1), (5, 2), (6, 1)]
LARGE = [(2, -1), (3, -1), (4, -3), (1, -2)]


def params(lam):
    """The parameter lam (regular) on its own chamber: the Levi positive
    system of the roots that pair positively with it."""
    pos = tuple(
        r if sum(a * b for a, b in zip(lam, r)) > 0 else tuple([-x for x in r])
        for r in G.m_roots.positives)
    return TemperedParams(G.tm_weight(list(lam)), pos, 0, G.a_weight([]))


def schmid(lam, window):
    """K-types of the holomorphic discrete series with parameter lam, in
    the window (W. Schmid, Invent. Math. 9, 1969): the lowest K-type V_L,
    L = lam + rho_n - rho_c = lam + (1, 2), tensored with
    S(p+) = sum over a >= b >= 0 of V_(2a, 2b), each product split by the
    U(2) Clebsch-Gordan rule
    V_p x V_q = sum over 0 <= k <= min(p1 - p2, q1 - q2) of
    V_(p1 + q1 - k, p2 + q2 + k).
    The first coordinate of each term is at least L2 + 2a > 2a, so a up to
    the window covers it."""
    l1, l2 = lam[0] + 1, lam[1] + 2
    table = Counter()
    for a in range(window + 1):
        for b in range(a + 1):
            for k in range(min(l1 - l2, 2 * a - 2 * b) + 1):
                mu = (l1 + 2 * a - k, l2 + 2 * b + k)
                if max(map(abs, mu)) <= window:
                    table[mu] += 1
    return dict(table)


def test_sp4r_loads_inside_blattners_formula():
    assert G.blattner_applies
    assert len(G.k_weyl) == 2 and G.dim_s_m == 6


@pytest.mark.parametrize("lam", HOLOMORPHIC + LARGE)
def test_sp4r_evaluators_agree(lam):
    p = params(lam)
    assert validate_params(G, p).verdict == "nonzero"
    for window in (6, 10):
        t = ktype_table(G, p, window)
        assert t.sign == -1
        assert t == ktype_table_series(G, p, window)
        assert t.entries == box_table(G, p, window, "partition").entries
        if lam in HOLOMORPHIC:
            assert t.entries == schmid(lam, window)
    assert t.entries  # window 10 reaches every chamber's K-types


def test_sp4r_multiplicities_exceed_one():
    peaks = {lam: max(ktype_table(G, params(lam), 10).entries.values())
             for lam in HOLOMORPHIC + LARGE}
    assert peaks[(5, 2)] == peaks[(6, 1)] == 2
    assert peaks[(2, -1)] == peaks[(1, -2)] == 4
