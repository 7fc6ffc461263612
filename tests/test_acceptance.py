"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every comparison is exact integer equality unless a
numerical tolerance is spelled out below.
"""

import random
import time

from kbranch.branching import (ktype_table, ktype_table_series,
                               nu_independence_check, sign_factor)
from kbranch.groups import builtin_group
from kbranch.oscillator import GridSpec, cylinder_sl2, oscillator_1d
from kbranch.presets import sl2_discrete, sl2_limit, sl2_principal
from kbranch.sl2_oracles import SL2Series, oracle_match
from kbranch.verify import (_sl2_param_sets, _weyl_denominator_check,
                            deformation_scales, su21_queries_agree,
                            su21_table_offender)

GC = builtin_group("sl2r-compact")
GS = builtin_group("sl2r-split")
GU = builtin_group("su21")
GRID = GridSpec(8.0, 0.05)
SVD_TOL = 1e-6
SEED = 20260811


def _report(num, desc, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:2d}] {status}  {desc}  ({elapsed:.2f}s, "
          f"budget {budget:g}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_discrete_series_window_60():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for sign, kind in (("+", "discrete_plus"), ("-", "discrete_minus")):
            t = ktype_table(GC, sl2_discrete(GC, n, sign), 60)
            ok &= oracle_match(t, SL2Series(kind, n)).ok
            ok &= t.sign == -1
    ok &= sign_factor(GC) == -1
    _report(1, "discrete series n=1..5 match closed form, sign -1", ok, t0, 1.0)


def test_criterion_02_limits_window_60():
    t0 = time.perf_counter()
    ok = True
    for sign, kind in (("+", "limit_plus"), ("-", "limit_minus")):
        t = ktype_table(GC, sl2_limit(GC, sign), 60)
        ok &= oracle_match(t, SL2Series(kind)).ok
    _report(2, "limits of discrete series match closed form", ok, t0, 1.0)


def test_criterion_03_principal_series_window_60():
    t0 = time.perf_counter()
    ok = True
    for chi, kind in (("plus", "principal_spherical"),
                      ("minus", "principal_nonspherical")):
        t = ktype_table(GS, sl2_principal(GS, chi), 60)
        ok &= oracle_match(t, SL2Series(kind)).ok
        ok &= t.sign == 1
    ok &= sign_factor(GS) == 1
    _report(3, "principal series match parity oracles, sign +1", ok, t0, 1.0)


def test_criterion_04_mode_equivalence():
    t0 = time.perf_counter()
    ok = True
    for _, g, p, _series in _sl2_param_sets():
        ok &= ktype_table(g, p, 60) == ktype_table_series(g, p, 60)
    ok &= su21_queries_agree(GU, random.Random(SEED), 200)
    _report(4, "series mode == partition mode (exhaustive sl2 + 200 random "
               "su21 queries)", ok, t0, 30.0)


def test_criterion_05_weyl_denominator_identity():
    t0 = time.perf_counter()
    ok = (_weyl_denominator_check("sl2", GC.hm, GC.compact_positives()).passed
          and _weyl_denominator_check("su21", GU.hm,
                                      GU.compact_positives()).passed)
    _report(5, "Weyl denominator identity (sl2 and su21 compact systems)",
            ok, t0, 1.0)


def test_criterion_06_nu_independence():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for _ in range(100):
        chi = rng.choice(["plus", "minus"])
        p = sl2_principal(GS, chi)
        nu1, nu2 = rng.randint(-50, 50), rng.randint(-50, 50)
        ok &= nu_independence_check(GS, p, GS.a_weight([nu1]),
                                    GS.a_weight([nu2]), 20)
    _report(6, "100 random nu pairs give identical principal tables",
            ok, t0, 5.0)


def test_criterion_07_oscillator_kernel():
    t0 = time.perf_counter()
    rep = oscillator_1d(GRID, SVD_TOL)
    ok = (rep.kernel_dim_even, rep.kernel_dim_odd) == (1, 0)
    ok &= rep.gaussian_l2_error < 1e-3
    ok &= rep.even_singular_values[1] > 0.5
    _report(7, "oscillator kernel (1,0), gaussian < 1e-3, gap > 0.5",
            ok, t0, 5.0)


def test_criterion_08_cylinder_reconciliation():
    t0 = time.perf_counter()
    ok = True
    for parity, kind in (("even", "principal_spherical"),
                         ("odd", "principal_nonspherical")):
        t = cylinder_sl2(parity, 20, GRID, SVD_TOL)
        ok &= oracle_match(t, SL2Series(kind)).ok
    _report(8, "cylinder kernels equal principal oracles, |weight| <= 20",
            ok, t0, 30.0)


def test_criterion_09_su21_multiplicity_free():
    t0 = time.perf_counter()
    offender = su21_table_offender(GU, random.Random(SEED), 50)
    if offender is not None:
        reproducer = offender[0]
        print(f"reproducer: lam={reproducer.lam.coords} "
              f"rmplus={[r.coords for r in reproducer.rmplus]}")
    _report(9, "50 sampled su21 tables multiplicity-free and mode-equivalent",
            offender is None, t0, 120.0)


def test_criterion_10_deformation_stability():
    t0 = time.perf_counter()
    # per scale: kernel dims (1, 0) and no diff against either principal
    # oracle in the cylinder tables read from that scale's report
    ok = all((rep.kernel_dim_even, rep.kernel_dim_odd) == (1, 0)
             and diffs == (0, 0)
             for rep, diffs in deformation_scales(GRID, SVD_TOL))
    _report(10, "potential scaling f in {1,2,4} leaves kernel dims unchanged",
            ok, t0, 15.0)
