"""The records' contract: frozen records refuse assignment, records with
equal fields are equal and hash equal, a group hashes by its name, and the
checked records refuse bad input with the same exception and message."""

from pathlib import Path

import pytest

from kbranch import branching
from kbranch.branching import KTypeTable, validate_params
from kbranch.characters import HMLattice, LatticeError, Weight, ZCharTable
from kbranch.groups import builtin_group, load_group_data
from kbranch.ktypes import KType
from kbranch.oscillator import GridError, GridSpec, KernelReport
from kbranch.presets import resolve_params
from kbranch.sl2_oracles import MatchReport, SL2Series
from kbranch.verify import Check

GU = builtin_group("su21")
DATA = Path(__file__).parent / "data"


def _params(g):
    return resolve_params(g, {"lambda": [3, 1, -1]})


# each frozen record, built from scratch on every call, with its fields
FROZEN = {
    "Weight": (lambda: Weight((1, -2), "t"), ("coords", "lattice", "denom")),
    "ZCharTable": (lambda: ZCharTable(2, ((0,), (1,))),
                   ("order", "rows", "products", "identity")),
    "HMLattice": (lambda: HMLattice(2, "t", (1, 1)),
                  ("rank", "lattice", "height_vec", "ztable")),
    "RootSystem": (lambda: builtin_group("su21").k_roots,
                   ("rank", "roots", "positives", "simples")),
    "RealGroupData": (lambda: builtin_group("su21"),
                      ("name", "k_roots", "m_roots", "a_lattice",
                       "tm_in_t", "zgen_w", "zchar_rows", "hm", "t_lattice",
                       "dim_s_m", "compact_of", "k_weyl", "fibres",
                       "k_pairings", "blattner_applies")),
    "Fibres": (lambda: builtin_group("su21").fibres,
               ("a", "dirs", "consistency", "d", "free")),
    "TemperedParams": (lambda: _params(GU), ("lam", "rmplus", "chi", "nu")),
    "ParamVerdict": (lambda: validate_params(GU, _params(GU)),
                     ("verdict", "group", "reason", "chamber", "base")),
    "Chamber": (lambda: branching._chamber.__wrapped__(
                    GU, _params(GU).rmplus),
                ("hm", "compact", "noncompact", "compact_simples",
                 "rho2_n", "top", "terms", "lowest", "tables")),
    "KType": (lambda: KType(Weight((2, 0, -1), "t")), ("highest",)),
    "GridSpec": (lambda: GridSpec(6.0, 0.1), ("halfwidth", "step")),
    "SL2Series": (lambda: SL2Series("discrete_plus", 3), ("kind", "n")),
    "MatchReport": (lambda: MatchReport((((1,), 0, 1),), (1, -1)),
                    ("diffs", "sign")),
}

# the records that hold a dict or list, built from scratch on every call
UNHASHED = {
    "KTypeTable": lambda: KTypeTable({(1,): 1, (3,): 2}, 3, -1),
    "KernelReport": lambda: KernelReport(1, 0, 1e-3, [1e-9, 0.5], [0.2]),
    "Check": lambda: Check("name", True, "1", "1"),
    "WeylTerm": lambda: builtin_group("su21").k_weyl[-1],
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    make, fields = FROZEN[name]
    rec = make()
    for f in fields:
        value = getattr(rec, f)
        with pytest.raises(AttributeError):
            setattr(rec, f, value)
        assert getattr(rec, f) is value


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_keep_nothing_outside_their_fields(name):
    make, _ = FROZEN[name]
    rec = make()
    with pytest.raises(TypeError):
        vars(rec)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert not hasattr(rec, "extra")


def test_a_grown_chamber_equals_a_cold_one():
    # the oracles' tables a chamber holds take no part in == and hash
    p = _params(GU)
    chamber = validate_params(GU, p).chamber
    branching.ktype_table(GU, p, 6)  # the partition table, by spot check
    branching.box_table(GU, p, 4, "series")
    assert sorted(chamber.tables) == ["partition", "series"]
    cold = branching._chamber.__wrapped__(GU, p.rmplus)
    assert cold.tables == {} and chamber.tables != cold.tables
    assert chamber == cold and not chamber != cold
    assert hash(chamber) == hash(cold)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_fields_compare_and_hash_equal(name):
    make, _ = FROZEN[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", UNHASHED)
def test_equal_fields_compare_equal(name):
    a, b = UNHASHED[name](), UNHASHED[name]()
    assert a is not b
    assert a == b and not a != b


def test_records_with_different_fields_differ():
    assert Weight((1, -2), "t") != Weight((1, -2), "tM")
    assert Weight((1, 3), "t", 2) != Weight((1, 3), "t")
    assert GridSpec(6.0, 0.1) != GridSpec(6.0, 0.05)
    assert SL2Series("discrete_plus", 3) != SL2Series("discrete_minus", 3)
    assert KTypeTable({(1,): 1}, 3, -1) != KTypeTable({(1,): 1}, 3, 1)


def test_a_group_refuses_item_assignment_to_its_compact_flags():
    # every chamber built later from the group reads the flags
    g = builtin_group("su21")
    root, flag = next(iter(g.compact_of.items()))
    with pytest.raises(TypeError):
        g.compact_of[root] = not flag
    assert g.compact_of[root] is flag and g == builtin_group("su21")
    assert g.compact_of == dict(g.compact_of)


@pytest.mark.parametrize("load", [
    lambda: builtin_group("su21"), lambda: builtin_group("sl2r-split"),
    lambda: load_group_data(DATA / "sp4r.json")])
def test_a_group_hashes_by_its_name(load):
    g = load()
    assert hash(g) == hash(g.name)


@pytest.mark.parametrize("make, exc, message", [
    (lambda: Weight((1, 2), "t", 3), LatticeError,
     "denom must be 1 or 2, got 3"),
    (lambda: Weight((1, 2), "t", 1.0), LatticeError,
     "denom must be 1 or 2, got 1.0"),
    (lambda: Weight((1, 2.0)), LatticeError,
     "coordinates (1, 2.0) are not integers"),
    (lambda: Weight((True, 0)), LatticeError,
     "coordinates (True, 0) are not integers"),
    (lambda: ZCharTable(0, ()), LatticeError, "group order must be >= 1"),
    (lambda: ZCharTable(2, ((0,),)), LatticeError,
     "expected 2 characters, got 1"),
    (lambda: ZCharTable(2, ((0,), (0,))), LatticeError,
     "duplicate character rows"),
    (lambda: ZCharTable(2, ((0,), (1, 0))), LatticeError,
     "ragged character table"),
    (lambda: ZCharTable(2, ((0,), (2,))), LatticeError,
     "character exponent out of range"),
    (lambda: ZCharTable(2, ((1, 0), (0, 1))), LatticeError,
     "character table not closed under product"),
    (lambda: HMLattice(2, "t", (1, 1, 0)), LatticeError,
     "height covector has wrong rank"),
    (lambda: GridSpec(0.0, 0.1), GridError, "halfwidth must be positive"),
    (lambda: GridSpec(6.0, 6.0), GridError, "need 0 < step < halfwidth"),
    (lambda: GridSpec(6.0, 0.001), GridError,
     "the grid would have 12001 points; at most 2000 are allowed"),
    (lambda: GridSpec(6.0, 0.07), GridError,
     "grid must have an odd point count symmetric through 0"),
    (lambda: SL2Series("discrete"), ValueError,
     "unknown series kind 'discrete'"),
    (lambda: SL2Series("discrete_plus"), ValueError,
     "discrete series need n >= 1"),
    (lambda: SL2Series("limit_plus", 2), ValueError,
     "limit_plus takes no integer parameter"),
])
def test_checked_records_refuse_bad_input(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_checked_records_take_keywords_and_defaults():
    assert Weight((1, 0)) == Weight(coords=(1, 0), lattice="t", denom=1)
    assert ZCharTable(order=1, rows=((),)).identity == 0
    assert HMLattice(1, "t", (2,)).ztable == ZCharTable(1, ((),))
    assert SL2Series("limit_minus").n == 0
