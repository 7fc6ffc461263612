"""Verification suites end to end (reduced sampling where it only
repeats the acceptance gate)."""

from kbranch import oscillator, verify
from kbranch.oscillator import InconclusiveKernelError
from kbranch.verify import run_suite


def _assert_all_pass(report):
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["pass"] and not failed, f"failed checks: {failed}"


def test_suite_sl2():
    _assert_all_pass(run_suite("sl2", window=30, nu_samples=10))


def test_suite_su21_reduced():
    _assert_all_pass(run_suite("su21", samples=8, queries=40))


def test_suite_dirac(monkeypatch):
    # one 1-D kernel solve per scale f in {1, 2, 4}, and one inside the 2-D
    # check
    calls = []
    solve = oscillator.oscillator_1d

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(oscillator, "oscillator_1d", counted)
    monkeypatch.setattr(verify, "oscillator_1d", counted)
    _assert_all_pass(run_suite("dirac"))
    assert len(calls) == 4


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


def test_suite_ring():
    _assert_all_pass(run_suite("ring"))


def test_unknown_suite_rejected():
    import pytest
    with pytest.raises(KeyError):
        run_suite("nosuch")
