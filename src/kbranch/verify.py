"""Verification suites binding the combinatorial engine to its oracles.

Four suites, each a list of named checks with expected/actual values:

    sl2   -- every SL(2,R) family against its closed-form table, plus
             independence from the continuous parameter;
    su21  -- Weyl-denominator identity, evaluator agreement (tables
             against series tables and the partition evaluator, partition
             against series queries), and the multiplicity-free
             expectation on sampled tables;
    dirac -- oscillator kernel dimensions, the 2-D tensor rule (always on
             GridSpec(6, 0.1) at svd_tol 1e-5), the cylinder reconciliation
             and deformation-scaling stability; an inconclusive kernel fails
             its check, with the actual value "inconclusive";
    ring  -- ring laws of char_mul on (certificate, terms) series, the
             defining inverse identity and partition-vs-series agreement,
             of counts and of tables.

Each suite is one fixed workload, whose report the acceptance tests read;
they share the su21 table sampler for the one criterion that draws tables
of its own.  The partition oracle over the window's box is box_table(g, p,
window, "partition").
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from . import presets
from .branching import (TemperedParams, box_table, ktype_multiplicity,
                        ktype_table, validate_params)
from .characters import (HMLattice, ZCharTable, Weight, char_mul,
                         geometric_series, graded_exterior, partition_counts)
from .groups import (RootSystem, builtin_group, matvec, simple_roots,
                     weyl_group)
from .ktypes import KType, enumerate_ktypes
from .oscillator import (GridSpec, InconclusiveKernelError, cylinder_table,
                         oscillator_1d, oscillator_nd)
from .sl2_oracles import SL2Series, oracle_match, sl2_branching

_SEED = 20260811  # the one seed of every suite's samplers


class Check(NamedTuple):
    name: str
    passed: bool
    expected: str
    actual: str


def _check(name, passed, expected, actual) -> Check:
    return Check(name, bool(passed), str(expected), str(actual))


def _sl2_param_sets():
    """The fourteen SL(2,R) families as (label, group, parameters, closed
    form): the ten discrete series and two limits on the compact Cartan,
    then the two principal series on the split one."""
    gc, gs = builtin_group("sl2r-compact"), builtin_group("sl2r-split")
    pm = {"+": "plus", "-": "minus"}
    return ([(f"discrete n={n} sign {s}", gc, presets.sl2_discrete(gc, n, s),
              SL2Series(f"discrete_{pm[s]}", n))
             for n in range(1, 6) for s in "+-"]
            + [(f"limit sign {s}", gc, presets.sl2_discrete(gc, 0, s),
                SL2Series(f"limit_{pm[s]}")) for s in "+-"]
            + [(f"principal {chi}", gs, presets.sl2_principal(gs, chi),
                SL2Series(kind))
               for chi, kind in (("plus", "principal_spherical"),
                                 ("minus", "principal_nonspherical"))])


def suite_sl2() -> list[Check]:
    gs = builtin_group("sl2r-split")
    families = _sl2_param_sets()
    checks = []

    for label, g, p, series in families:
        t = ktype_table(g, p, 60)
        rep = oracle_match(t, series)
        checks.append(_check(f"sl2 {label} matches oracle", not rep.diffs,
                             "empty diff", f"{len(rep.diffs)} diffs"))
        sign = sl2_branching(series, 0).sign  # -1 compact, +1 split
        checks.append(_check(f"sl2 {label} sign", t.sign == sign, sign,
                             t.sign))

    rng = random.Random(_SEED)
    ok = True
    for _ in range(100):  # the table stays put as the continuous nu moves
        p = presets.sl2_principal(gs, rng.choice(["plus", "minus"]))
        t1, t2 = [ktype_table(gs, p._replace(nu=gs.a_weight(
            [rng.randint(-50, 50)])), 20) for _ in range(2)]
        if t1 != t2:
            ok = False
    checks.append(_check("sl2 nu independence (100 random pairs)", ok,
                         "identical tables", "identical" if ok else "diverged"))

    # support completeness: engine supports over all families tile the oracle
    engine_support = {k for _, g, p, _ in families
                      for k in ktype_table(g, p, 21).entries}
    oracle_support = {k for *_, series in families
                      for k in sl2_branching(series, 21).entries}
    checks.append(_check("sl2 support completeness", engine_support == oracle_support,
                         f"{len(oracle_support)} weights",
                         f"{len(engine_support)} weights"))
    return checks


def _exact(hm, terms) -> tuple[None, list]:
    """The exact series of {key: m}: its nonzero terms (doubled height, key,
    m) lowest first, each key checked as a character of H."""
    return None, sorted([(hm.key_height2(k), k, m)
                         for k, m in terms.items() if m])


def _weyl_denominator_check(name, hm, compact_positives) -> Check:
    """Graded exterior over compact positives equals the alternating sum of
    e^(rho_c - w rho_c) over the compact Weyl group."""
    lhs = graded_exterior(hm, compact_positives)
    roots = tuple(compact_positives) + tuple(
        tuple(-x for x in r) for r in compact_positives)
    rs = RootSystem(hm.rank, roots, tuple(compact_positives),
                    simple_roots(compact_positives))
    rho2 = HMLattice.graded(hm.rank, hm.lattice, compact_positives).height_vec
    terms = {}
    for w, det in weyl_group(rs):  # rho_c - w rho_c sums compact positives
        key = (tuple((x - y) // 2 for x, y in zip(rho2, matvec(w, rho2))),
               hm.ztable.identity)
        terms[key] = terms.get(key, 0) + det
    rhs = _exact(hm, terms)
    return _check(f"weyl denominator identity ({name})", lhs == rhs,
                  "formal equality", "equal" if lhs == rhs else "unequal")


def _tables_agree(g, p, window: int) -> bool:
    """ktype_table, the series table and the partition evaluator agree."""
    t = ktype_table(g, p, window)
    return (t == box_table(g, p, window, "series")
            and t.entries == box_table(g, p, window, "partition").entries)


def random_su21_params(g, rng) -> TemperedParams:
    """Sample nonzero discrete-series or limit parameters in [-4, 4]^3."""
    tie = (1, 0, -1)
    while True:
        a = rng.randint(-4, 4)
        b = rng.randint(-4, a)
        c = rng.randint(-4, 4)
        # r or -r, whichever lam pairs positively with; tie breaks ties
        p = presets.su21_from_lambda(g, [a, b, c], [
            r if (sum(map(mul, (a, b, c), r)), sum(map(mul, tie, r))) > (0, 0)
            else [-x for x in r] for r in g.m_roots.positives])
        if validate_params(g, p).verdict == "nonzero":
            return p


def su21_table_offender(gu, rng, samples: int):
    """Sample su21 parameters and their window-6 tables: each table must
    equal its series table and be multiplicity-free.  The first offender
    as (parameters, what failed), or None."""
    for _ in range(samples):
        p = random_su21_params(gu, rng)
        t = ktype_table(gu, p, 6)
        if t != box_table(gu, p, 6, "series"):
            return p, "mode disagreement"
        bad = [k for k, m in t.entries.items() if m > 1]
        if bad:
            return p, f"multiplicity > 1 at {bad[0]}"
    return None


def suite_su21() -> list[Check]:
    gc = builtin_group("sl2r-compact")
    gu = builtin_group("su21")
    checks = []

    checks.append(_weyl_denominator_check(
        "sl2r-compact", gc.hm, gc.compact_positives()))
    checks.append(_weyl_denominator_check(
        "su21", gu.hm, gu.compact_positives()))

    # mode equivalence, exhaustively on the SL(2,R) families
    ok = all(_tables_agree(g, p, 60) for _, g, p, _ in _sl2_param_sets())
    checks.append(_check("mode equivalence sl2 exhaustive window 60", ok,
                         "series == partition", "agree" if ok else "disagree"))

    # sampled parameters and K-types of window 6: the oracles agree on each
    rng = random.Random(_SEED)
    ktypes6 = enumerate_ktypes(gu, 6)
    drawn = ((random_su21_params(gu, rng),
              KType(gu.t_weight(rng.choice(ktypes6)))) for _ in range(200))
    ok = all(ktype_multiplicity(gu, p, kt, "partition")
             == ktype_multiplicity(gu, p, kt, "series") for p, kt in drawn)
    checks.append(_check("mode equivalence su21 (200 random queries)", ok,
                         "series == partition", "agree" if ok else "disagree"))

    # multiplicity-free expectation, falsifiable with a reproducer
    offender = su21_table_offender(gu, rng, 50)
    checks.append(_check(
        "su21 multiplicity-free + mode-equivalent (50 tables)",
        offender is None, "all multiplicities <= 1",
        "ok" if offender is None else
        f"violated: lam={offender[0].lam.coords} {offender[1]}"))
    return checks


_CYLINDERS = (("even", "principal_spherical"),
              ("odd", "principal_nonspherical"))


def _cylinder_diffs(rep, parity: str, kind: str):
    """How many K-types of the cylinder table read from a 1-D report differ
    from the principal series oracle; None when the report is inconclusive."""
    try:
        t = cylinder_table(rep, parity, 20)
    except InconclusiveKernelError:
        return None
    return len(oracle_match(t, SL2Series(kind)).diffs)


def suite_dirac(grid_L: float = 8.0, grid_h: float = 0.05,
                svd_tol: float = 1e-6) -> list[Check]:
    """Checks read from the 1-D kernel report at each potential scale f in
    {1, 2, 4} and the (even, odd) cylinder diff counts read from it, on
    GridSpec(grid_L, grid_h), checked first (GridError), at svd_tol, except
    the 2-D check: it ignores all three and runs on GridSpec(6, 0.1) at
    svd_tol 1e-5, as its smallest singular value, the residual 5.94e-8 (the
    truncation error at L = 6), lies 1.23 decades below the band at 1e-5,
    only 0.23 below [1e-7, 1e-5] at the default 1e-6."""
    checks, grid = [], GridSpec(grid_L, grid_h)
    scales = [(r, tuple(_cylinder_diffs(r, *c) for c in _CYLINDERS))
              for r in (oscillator_1d(grid, svd_tol, potential_scale=f)
                        for f in (1.0, 2.0, 4.0))]

    rep, diffs = scales[0]
    dims = (rep.kernel_dim_even, rep.kernel_dim_odd)
    checks.append(_check("oscillator kernel dims", dims == (1, 0), "(1, 0)",
                         "inconclusive" if rep.inconclusive else dims))
    checks.append(_check("oscillator gaussian error < 1e-3",
                         rep.gaussian_l2_error < 1e-3, "< 1e-3",
                         f"{rep.gaussian_l2_error:.3e}"))
    second = rep.even_singular_values[1]
    checks.append(_check("oscillator spectral gap > 0.5", second > 0.5,
                         "> 0.5", f"{second:.3f}"))

    try:
        r = oscillator_nd(2, GridSpec(6.0, 0.1), 1e-5)
        dims = (r.kernel_dim_even, r.kernel_dim_odd)
        ok = dims == (1, 0) and r.gaussian_l2_error < 5e-3
        actual = f"{dims}, {r.gaussian_l2_error:.3e}"
    except InconclusiveKernelError:
        ok, actual = False, "inconclusive"
    checks.append(_check("2-D tensor rule (1, 0) with explicit confirmation",
                         ok, "(1, 0), gaussian < 5e-3", actual))

    for (parity, _), n in zip(_CYLINDERS, diffs):
        checks.append(_check(f"cylinder {parity} matches principal oracle",
                             n == 0, "empty diff",
                             "inconclusive" if n is None else f"{n} diffs"))

    stable = all((r.kernel_dim_even, r.kernel_dim_odd) == (1, 0)
                 and d == (0, 0) for r, d in scales)
    inconclusive = any(r.inconclusive or None in d for r, d in scales)
    checks.append(_check("deformation scaling f in {1,2,4} stable", stable,
                         "kernel dims unchanged",
                         "inconclusive" if inconclusive else
                         "stable" if stable else "changed"))
    return checks


def suite_ring() -> list[Check]:
    checks = []
    gc = builtin_group("sl2r-compact")
    gu = builtin_group("su21")

    # defining identity: exterior line times its geometric inverse is trivial
    ok = True
    for g in (gc, gu):
        for beta in g.noncompact_positives():
            h = 10
            prod = char_mul(g.hm, graded_exterior(g.hm, [beta]),
                            geometric_series(g.hm, beta, h))
            if prod[1] != [(0, ((0,) * g.hm.rank, g.hm.ztable.identity), 1)]:
                ok = False
    checks.append(_check("inverse identity (1 - e^a) * sum e^na = 1", ok,
                         "trivial character", "ok" if ok else "broken"))

    # partition counts equal truncated-series coefficients
    rng = random.Random(_SEED)
    ok = True
    betas = gu.noncompact_positives()
    H = 12
    series = char_mul(gu.hm, geometric_series(gu.hm, betas[0], H),
                      geometric_series(gu.hm, betas[1], H))
    coefficients = {key: m for _, key, m in series[1]}
    counts = partition_counts(betas, gu.hm, 2 * H)
    for _ in range(200):
        n1, n2 = rng.randint(0, 4), rng.randint(0, 4)
        # doubled heights 4 n1 + 2 n2 <= 24 = 2H: within the series' cutoff
        key = (tuple(n1 * x + n2 * y for x, y in zip(betas[0], betas[1])),
               gu.hm.ztable.identity)
        got = counts.get(key[0], 0)
        want = coefficients.get(key, 0)
        if got != want:
            ok = False
    checks.append(_check("kostant partition equals series coefficient", ok,
                         "two code paths agree", "agree" if ok else "disagree"))

    # ring laws on random finite characters
    lat = HMLattice(2, "ringtest", (1, 1), ZCharTable(2, ((0,), (1,))))
    def rand_char():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            w = Weight((rng.randint(-3, 3), rng.randint(-3, 3)), "ringtest")
            terms[lat.char(w, rng.randint(0, 1))] = rng.randint(-4, 4)
        return _exact(lat, terms)
    ok = True
    for _ in range(100):
        a, b, c = rand_char(), rand_char(), rand_char()
        if char_mul(lat, a, b) != char_mul(lat, b, a):
            ok = False
        if (char_mul(lat, char_mul(lat, a, b), c)
                != char_mul(lat, a, char_mul(lat, b, c))):
            ok = False
    checks.append(_check("ring laws (commutative, associative)", ok,
                         "laws hold", "hold" if ok else "violated"))

    # partition-vs-series agreement at the representation level
    ok = _tables_agree(gc, presets.sl2_discrete(gc, 3, "+"), 30)
    checks.append(_check("partition vs series tables (sl2 discrete)", ok,
                         "equal tables", "equal" if ok else "differ"))
    return checks


SUITES = {
    "sl2": suite_sl2,
    "su21": suite_su21,
    "dirac": suite_dirac,
    "ring": suite_ring,
}


def run_suite(name: str, **kwargs) -> dict:
    """Run a named suite (kwargs: dirac's) and return a JSON-ready report."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks = SUITES[name](**kwargs)
    return {
        "suite": name,
        "pass": all(c.passed for c in checks),
        "checks": [c._asdict() for c in checks],
    }
