"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every comparison is exact integer equality unless a
numerical tolerance is spelled out in a check's name.  Each criterion but
09 asserts named checks of one verification suite's run, made once per
session (conftest.suite_run), within its budget over that run; criterion
09 draws 50 tables of its own, which the su21 suite, drawing after its 200
queries, never draws.
"""

import random
import time

import pytest

from kbranch.groups import builtin_group
from kbranch.verify import su21_table_offender

GU = builtin_group("su21")
SEED = 20260811


def _report(num, desc, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:2d}] {status}  {desc}  ({elapsed:.2f}s, "
          f"budget {budget:g}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


@pytest.fixture
def criterion(suite_run):
    """(num, desc, suite, names, budget, signs=None): the checks named in
    names and in signs, a map of check name to sign, all pass in the
    suite's one run, each of the latter with its sign as the expected
    value, within the budget over that run."""
    def check(num, desc, suite, names, budget, signs=None):
        run, signs = suite_run(suite), signs or {}
        checks = {c["name"]: c for c in run.report["checks"]}
        assert [n for n in [*names, *signs] if n not in checks] == []
        ok = all(checks[n]["passed"] for n in [*names, *signs])
        ok &= all(checks[n]["expected"] == str(v) for n, v in signs.items())
        _report(num, desc, ok, run.seconds, budget)

    return check


def test_criterion_01_discrete_series_window_60(criterion):
    labels = [f"sl2 discrete n={n} sign {s}" for n in range(1, 6)
              for s in "+-"]
    criterion(1, "discrete series n=1..5 match closed form, sign -1", "sl2",
              [f"{label} matches oracle" for label in labels], 1.0,
              signs={f"{label} sign": -1 for label in labels})


def test_criterion_02_limits_window_60(criterion):
    criterion(2, "limits of discrete series match closed form", "sl2",
              [f"sl2 limit sign {s} matches oracle" for s in "+-"], 1.0)


def test_criterion_03_principal_series_window_60(criterion):
    labels = [f"sl2 principal {chi}" for chi in ("plus", "minus")]
    criterion(3, "principal series match parity oracles, sign +1", "sl2",
              [f"{label} matches oracle" for label in labels], 1.0,
              signs={f"{label} sign": 1 for label in labels})


def test_criterion_04_mode_equivalence(criterion):
    criterion(4, "series mode == partition mode (exhaustive sl2 + 200 "
                 "random su21 queries)", "su21",
              ["mode equivalence sl2 exhaustive window 60",
               "mode equivalence su21 (200 random queries)"], 30.0)


def test_criterion_05_weyl_denominator_identity(criterion):
    criterion(5, "Weyl denominator identity (sl2 and su21 compact systems)",
              "su21", ["weyl denominator identity (sl2r-compact)",
                       "weyl denominator identity (su21)"], 1.0)


def test_criterion_06_nu_independence(criterion):
    criterion(6, "100 random nu pairs give identical principal tables",
              "sl2", ["sl2 nu independence (100 random pairs)"], 5.0)


def test_criterion_07_oscillator_kernel(criterion):
    criterion(7, "oscillator kernel (1,0), gaussian < 1e-3, gap > 0.5",
              "dirac", ["oscillator kernel dims",
                        "oscillator gaussian error < 1e-3",
                        "oscillator spectral gap > 0.5"], 5.0)


def test_criterion_08_cylinder_reconciliation(criterion):
    criterion(8, "cylinder kernels equal principal oracles, |weight| <= 20",
              "dirac", [f"cylinder {parity} matches principal oracle"
                        for parity in ("even", "odd")], 30.0)


def test_criterion_09_su21_multiplicity_free():
    t0 = time.perf_counter()
    offender = su21_table_offender(GU, random.Random(SEED), 50)
    if offender is not None:
        reproducer = offender[0]
        print(f"reproducer: lam={reproducer.lam.coords} "
              f"rmplus={list(reproducer.rmplus)}")
    _report(9, "50 sampled su21 tables multiplicity-free and mode-equivalent",
            offender is None, time.perf_counter() - t0, 120.0)


def test_criterion_10_deformation_stability(criterion):
    # per scale: kernel dims (1, 0) and no diff against either principal
    # oracle in the cylinder tables read from that scale's report
    criterion(10, "potential scaling f in {1,2,4} leaves kernel dims "
                  "unchanged", "dirac",
              ["deformation scaling f in {1,2,4} stable"], 15.0)
