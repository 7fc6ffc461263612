"""Schmid's oracle: on a holomorphic chamber, where no sum of two noncompact
positives of Phi is a root, the discrete series of a regular lambda
restricts to K as V_Lambda (x) S(p_Phi), Lambda = lambda + rho_n - rho_c
and p_Phi the span of the noncompact positive root vectors, a K-module
(W. Schmid, Invent. Math. 9, 1969).

The oracle builds that whole table in closed form.  The weights of S(p_Phi)
are its monomials, the sums of noncompact positives with repetition, and
Brauer-Klimyk over W_K (tests/brauer_klimyk.py) splits V_Lambda times them
into K-types.  z = 2rho_n is orthogonal to the compact roots and positive
on every noncompact positive, so (X, z) only grows along a monomial, and a
monomial whose X is past the window's bound on (X, z) ends its line.  It
reads the parameters, K's roots and W_K's records: no partition count, no
series, no restriction and no chamber record.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from kbranch.branching import ktype_table
from kbranch.groups import matvec
from kbranch.presets import resolve_params
from brauer_klimyk import add, brauer_klimyk, dominant, dot, rho2_k
from test_branching import _WRONG, _plant, _planted_cases
from test_dirac_index import GROUPS, _rho_chambers


def holomorphic(g, p):
    """Whether no sum of two noncompact positives of p's Phi is a root."""
    noncompact = [a for a in p.rmplus if not g.compact_of[a]]
    return not any(add(a, b) in g.compact_of
                   for a in noncompact for b in noncompact)


def schmid_table(g, p, window):
    """{mu: m} of V_Lambda (x) S(p_Phi) over the window's K-types."""
    assert g.fibres.d == 1 and not g.fibres.dirs  # T_M = T
    lam2 = [2 // p.lam.denom * x for x in p.lam.coords]
    noncompact = [matvec(g.fibres.a, a) for a in p.rmplus
                  if not g.compact_of[a]]
    compact = [matvec(g.fibres.a, a) for a in p.rmplus if g.compact_of[a]]
    # 2Lambda = 2lambda + 2rho_n - 2rho_c, lifted to T
    lowest2 = add(matvec(g.fibres.a, lam2), *noncompact,
                  *[[-x for x in a] for a in compact])
    lowest = tuple(x // 2 for x in dominant(g, lowest2)[0])
    z = add((0,) * g.k_roots.rank, *noncompact)
    assert all(dot(z, a) == 0 for a in g.k_roots.roots)
    assert all(dot(z, b) > 0 for b in noncompact)
    radius, rho2 = 2 * window, rho2_k(g)
    bound = (radius + max(map(abs, rho2))) * sum(map(abs, z))
    start = dot(add([2 * x for x in lowest], rho2), z)
    # {s: multiplicity} of the monomials, doubled, with (X, z) in bound
    weights = {(0,) * g.k_roots.rank: 1}
    for b in noncompact:
        step, grown = [2 * x for x in b], {}
        for s, c in weights.items():
            while start + dot(s, z) <= bound:
                grown[s] = grown.get(s, 0) + c
                s = add(s, step)
        weights = grown
    table = brauer_klimyk(g, [(lowest, 1)], weights, radius)
    assert all(c > 0 and not any(x % 2 for x in nu) for nu, c in table.items())
    return {tuple(x // 2 for x in nu): c for nu, c in table.items()}


# (group, denominator of rho, window, its holomorphic chambers lambda = w rho)
_CASES = [("su21", 1, 8, 4), ("sp4r", 1, 8, 4), ("su22", 2, 6, 8),
          ("su31", 2, 6, 12)]


@pytest.mark.parametrize("name, denom, window, chambers", _CASES,
                         ids=[c[0] for c in _CASES])
def test_every_holomorphic_chamber_is_schmid_s_table(name, denom, window,
                                                      chambers):
    g = GROUPS[name]
    params = [p for p in _rho_chambers(g, denom) if holomorphic(g, p)]
    assert len(params) == chambers
    for p in params:
        assert ktype_table(g, p, window).entries == schmid_table(g, p, window)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3, unique=True),
       st.integers(0, 6))
def test_regular_holomorphic_su21_tables_are_schmid_s(lam, extra):
    # distinct coordinates: regular, and nonzero; holomorphic where the
    # noncompact coordinate, the last, is the least or the greatest
    g = GROUPS["su21"]
    p = resolve_params(g, {"lambda": lam})
    assume(holomorphic(g, p))
    window = max(map(abs, lam)) + extra
    assert ktype_table(g, p, window).entries == schmid_table(g, p, window)


# the tables a planted Blattner defect leaves wrong with every check of
# table_of passing: all lie on holomorphic chambers, and the oracle reads
# the whole window, so it also sees w on su31 at window 6
_LEFT = sorted((defect, window, name, lam) for (defect, window), cases in
               _WRONG.items() for name, lam in cases)


@pytest.mark.parametrize("defect, window, name, lam", _LEFT,
                         ids=[f"{d}-{n}-{w}" for d, w, n, _ in _LEFT])
def test_schmid_s_oracle_catches_the_tables_no_check_of_table_of_catches(
        monkeypatch, defect, window, name, lam):
    g, _, p = next(case for case in _planted_cases(defect, window)
                   if (case[0].name, case[1]) == (name, lam))
    assert holomorphic(g, p)
    table = schmid_table(g, p, window)
    assert ktype_table(g, p, window).entries == table
    with monkeypatch.context() as m:
        bad = _plant(m, defect, g)
        assert ktype_table(bad, p, window).entries != table
