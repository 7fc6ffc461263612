"""Verification suites end to end, each the fixed workload that
`kbranch verify` runs, read from the session's one run of it."""

from kbranch import verify
from kbranch.oscillator import InconclusiveKernelError
from kbranch.verify import run_suite


def _assert_all_pass(report):
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["pass"] and not failed, f"failed checks: {failed}"


def test_suite_sl2(suite_run):
    _assert_all_pass(suite_run("sl2").report)


def test_sl2_oracle_check_reads_the_entries_and_sign_check_the_sign(
        monkeypatch):
    # every table's sign negated: the entries still match their closed
    # forms, and the sign checks alone fail
    table = verify.ktype_table

    def flipped(*args):
        t = table(*args)
        return t._replace(sign=-t.sign)

    monkeypatch.setattr(verify, "ktype_table", flipped)
    checks = verify.suite_sl2()
    match = [c for c in checks if c.name.endswith(" matches oracle")]
    sign = [c for c in checks if c.name.endswith(" sign")]
    assert len(match) == len(sign) == 14
    assert all(c.passed and c.actual == "0 diffs" for c in match)
    assert not any(c.passed for c in sign)


def test_suite_su21(suite_run):
    _assert_all_pass(suite_run("su21").report)


def test_suite_dirac(suite_run):
    # one 1-D kernel solve per scale f in {1, 2, 4}, and one inside the 2-D
    # check
    run = suite_run("dirac")
    _assert_all_pass(run.report)
    assert run.solves == 4


def test_suite_dirac_reports_inconclusive_kernels(monkeypatch):
    def inconclusive(*args, **kwargs):
        raise InconclusiveKernelError("singular value inside the band")

    monkeypatch.setattr(verify, "oscillator_nd", inconclusive)
    monkeypatch.setattr(verify, "cylinder_table", inconclusive)
    report = run_suite("dirac")
    assert not report["pass"]
    failed = {c["name"]: c["actual"] for c in report["checks"]
              if not c["passed"]}
    assert failed == {
        "2-D tensor rule (1, 0) with explicit confirmation": "inconclusive",
        "cylinder even matches principal oracle": "inconclusive",
        "cylinder odd matches principal oracle": "inconclusive",
        "deformation scaling f in {1,2,4} stable": "inconclusive"}


def test_suite_ring(suite_run):
    _assert_all_pass(suite_run("ring").report)


def test_unknown_suite_rejected():
    import pytest
    with pytest.raises(KeyError):
        run_suite("nosuch")
