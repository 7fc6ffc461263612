"""Closed-form SL(2,R) tables and the diff report against engine tables."""

import pytest

from kbranch.branching import KTypeTable
from kbranch.sl2_oracles import SL2Series, oracle_match, sl2_branching


def support(kind, window, n=0):
    return sorted(k for (k,) in sl2_branching(SL2Series(kind, n), window).entries)


def test_discrete_plus_example():
    t = sl2_branching(SL2Series("discrete_plus", 2), 7)
    assert t.entries == {(3,): 1, (5,): 1, (7,): 1}
    assert t.sign == -1


def test_limit_minus_example():
    t = sl2_branching(SL2Series("limit_minus"), 4)
    assert t.entries == {(-1,): 1, (-3,): 1}


def test_principal_nonspherical_example():
    t = sl2_branching(SL2Series("principal_nonspherical"), 3)
    assert t.entries == {(-3,): 1, (-1,): 1, (1,): 1, (3,): 1}
    assert t.sign == 1


def test_negative_window_is_refused():
    with pytest.raises(ValueError) as e:
        sl2_branching(SL2Series("discrete_plus", 1), -1)
    assert str(e.value) == "window must be a nonnegative int, not -1"


def test_kind_validation():
    with pytest.raises(ValueError):
        SL2Series("discrete_plus", 0)
    with pytest.raises(ValueError):
        SL2Series("limit_plus", 2)
    with pytest.raises(ValueError):
        SL2Series("spherical")


def test_parity_homogeneity_and_multiplicity_freeness():
    for kind in ("discrete_plus", "discrete_minus", "limit_plus",
                 "limit_minus", "principal_spherical",
                 "principal_nonspherical"):
        n = 3 if kind.startswith("discrete") else 0
        t = sl2_branching(SL2Series(kind, n), 25)
        assert all(m == 1 for m in t.entries.values())
        parities = {k % 2 for (k,) in t.entries}
        assert len(parities) == 1
        if kind.endswith("plus") and kind != "principal_spherical":
            assert all(k > 0 for (k,) in t.entries)
        if kind.endswith("minus") and kind != "principal_nonspherical":
            assert all(k < 0 for (k,) in t.entries)


def test_discrete_interleaves_with_limit():
    for n in range(1, 6):
        dn = set(support("discrete_plus", 41, n))
        assert dn == {k for k in range(n + 1, 42, 2)}
        if n % 2 == 0:
            # even n has odd weights, nested inside the limit support
            assert dn <= set(support("limit_plus", 41))


def test_oracle_match_identical_and_disjoint():
    t = sl2_branching(SL2Series("discrete_plus", 3), 15)
    assert oracle_match(t, SL2Series("discrete_plus", 3)).ok
    # spherical table against the odd oracle: every weight differs
    ts = sl2_branching(SL2Series("principal_spherical"), 6)
    rep = oracle_match(ts, SL2Series("principal_nonspherical"))
    assert not rep.ok
    assert len(rep.diffs) == len(ts.entries) + 6  # 7 even got, 6 odd wanted


def test_oracle_match_window_mismatch():
    bad = KTypeTable({(12,): 1}, 9, -1)
    with pytest.raises(ValueError):
        oracle_match(bad, SL2Series("discrete_plus", 1))


def test_window_zero():
    assert sl2_branching(SL2Series("principal_nonspherical"), 0).entries == {}
    assert sl2_branching(SL2Series("principal_spherical"), 0).entries == {(0,): 1}
