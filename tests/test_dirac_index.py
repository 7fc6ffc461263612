"""The paper's index on the engine's tables: for a regular lambda the
discrete series pi|_K, tensored with the spin module S+ - S- of p, is the
one K-type +-E(lambda - rho_c) (R. Parthasarathy, Ann. of Math. 96, 1972;
M. Atiyah and W. Schmid, Invent. Math. 42, 1977; J.-S. Huang and
P. Pandzic, J. AMS 15, 2002).

The check reads only a table's rows, its chamber's positive roots and
W_K's records: no partition count, no series and no restriction, so it is
independent of all that Blattner's table and both box oracles share.  It
works in doubled coordinates.  The spin character is the product over the
noncompact positives beta of (e^beta - e^-beta), and Brauer-Klimyk over
W_K (tests/brauer_klimyk.py) expands each row times it.  A K-type nu is
read only where every row that reaches it lies in the window, on the
interior |nu| <= 2 window - max|s| - 2 |2rho_K| (max norms: W_K acts by
signed permutations on these groups).  Limits are out of scope: their
index needs a rule with its own citation first.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kbranch.branching import TemperedParams, table_of, validate_params
from kbranch.groups import builtin_group, load_group_data, matvec
from kbranch.presets import resolve_params
from brauer_klimyk import add, brauer_klimyk, dominant, dot, rho2_k
from test_branching import _WRONG, _plant, _planted_cases

DATA = Path(__file__).parent / "data"
GROUPS = {"sl2r-compact": builtin_group("sl2r-compact"),
          "su21": builtin_group("su21"),
          **{name: load_group_data(DATA / f"{name}.json")
             for name in ("sp4r", "su22", "su31", "so43")}}


def spin_character(g, chamber):
    """{s: coefficient} of S+ - S- in doubled coordinates of T: the
    product over the chamber's noncompact positives beta of (e^beta -
    e^-beta), lifted from the Levi lattice through the fibres' map."""
    assert g.fibres.d == 1 and not g.fibres.dirs  # T_M = T
    spin = {(0,) * g.k_roots.rank: 1}
    for beta in chamber.noncompact:
        b, product = matvec(g.fibres.a, beta), {}
        for s, c in spin.items():
            for sign in (1, -1):
                key = add(s, [sign * x for x in b])
                product[key] = product.get(key, 0) + sign * c
        spin = {s: c for s, c in product.items() if c}
    return spin


def dirac_index(g, rows, spin, window):
    """The K-types nu, in doubled coordinates, of rows (x) (S+ - S-) read
    on the window's interior, and that interior's radius."""
    radius = (2 * window - max(max(map(abs, s)) for s in spin)
              - 2 * max(map(abs, rho2_k(g))))
    return brauer_klimyk(g, rows, spin, radius), radius


def expected(g, p, chamber):
    """The K-dominant conjugate of 2lambda - 2rho_c, lifted to T."""
    lam2 = [2 // p.lam.denom * x for x in p.lam.coords]
    rho2_c = add((0,) * len(lam2), *chamber.compact)
    return dominant(g, matvec(g.fibres.a, [
        a - b for a, b in zip(lam2, rho2_c)]))[0]


def assert_index(g, p, window, spin=None):
    """The table of p at the window, tensored with the spin module (its
    own, or spin), is +-1 at the K-dominant conjugate of 2lambda - 2rho_c,
    which lies inside the interior, and 0 elsewhere on it."""
    assert all(dot(p.lam.coords, a) for a in p.rmplus)  # lambda regular
    verdict = validate_params(g, p)
    rows = table_of(verdict, window).rows()
    spin = spin_character(g, verdict.chamber) if spin is None else spin
    index, radius = dirac_index(g, rows, spin, window)
    nu = expected(g, p, verdict.chamber)
    assert max(map(abs, nu)) <= radius, (nu, radius)
    assert index in ({nu: 1}, {nu: -1}), (p.lam, index)


def _rho_chambers(g, denom):
    """lambda = w rho for every w in W, as parameters of the positive system
    that each makes dominant: rho's orbit under the Levi root reflections."""
    rho2 = add((0,) * g.hm.rank, *g.m_roots.positives)
    orbit, todo = {rho2}, [rho2]
    while todo:
        v = todo.pop()
        for a in g.m_roots.positives:
            r = tuple(x - 2 * dot(v, a) // dot(a, a) * y
                      for x, y in zip(v, a))
            if r not in orbit:
                orbit.add(r)
                todo.append(r)
    for lam2 in sorted(orbit):
        lam = g.tm_weight([x * denom // 2 for x in lam2], denom)
        yield TemperedParams(lam, tuple(
            r if dot(lam2, r) > 0 else tuple(-x for x in r)
            for r in g.m_roots.positives), 0, g.a_weight([]))


# (group, denominator of rho, window, its chambers)
_CASES = [("sl2r-compact", 1, 12, 2), ("su21", 1, 8, 6), ("sp4r", 1, 8, 8),
          ("su22", 2, 6, 24), ("su31", 2, 6, 24), ("so43", 2, 6, 48)]


@pytest.mark.parametrize("name, denom, window, chambers", _CASES,
                         ids=[c[0] for c in _CASES])
def test_every_regular_chamber_has_index_one_ktype(name, denom, window,
                                                   chambers):
    g = GROUPS[name]
    params = list(_rho_chambers(g, denom))
    assert len(params) == chambers
    for p in params:
        assert_index(g, p, window)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3, unique=True))
def test_regular_su21_tables_have_index_one_ktype(lam):
    # distinct coordinates: regular for every root of A_2, and off the
    # compact wall, so the verdict is nonzero
    g = GROUPS["su21"]
    assert_index(g, resolve_params(g, {"lambda": lam}), max(map(abs, lam)) + 6)


def test_an_off_by_one_in_the_spin_weights_fails():
    g = GROUPS["su21"]
    for lam in ([3, 1, -1], [5, -2, 0], [-1, 2, 4]):
        p = resolve_params(g, {"lambda": lam})
        spin = spin_character(g, validate_params(g, p).chamber)
        assert_index(g, p, 12, spin)
        shifted = {add(s, (1, 0, 0)): c for s, c in spin.items()}
        with pytest.raises(AssertionError):
            assert_index(g, p, 12, shifted)


# the tables a planted Blattner defect leaves wrong with every check of
# table_of passing; at window 6 only w on su31 is wrong, and its interior
# misses the rows it adds
_LEFT = sorted((defect, name, lam) for (defect, window), cases in
               _WRONG.items() if window == 12 for name, lam in cases)


@pytest.mark.parametrize("defect, name, lam", _LEFT,
                         ids=[f"{d}-{n}" for d, n, _ in _LEFT])
def test_the_index_catches_the_tables_no_check_of_table_of_catches(
        monkeypatch, defect, name, lam):
    g, _, p = next(case for case in _planted_cases(defect)
                   if (case[0].name, case[1]) == (name, lam))
    assert_index(g, p, 12)
    spin = spin_character(g, validate_params(g, p).chamber)
    with monkeypatch.context() as m:
        bad = _plant(m, defect, g)
        with pytest.raises(AssertionError):
            assert_index(bad, p, 12, spin)
