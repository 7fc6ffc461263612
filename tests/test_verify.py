"""Verification suites end to end, each the fixed workload that
`kbranch verify` runs, read from the session's one run of it."""

import json

import pytest

from kbranch import verify
from kbranch.cli import main
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
    with pytest.raises(KeyError):
        run_suite("nosuch")



# Each verify check seen to fail: a defect planted in an evaluator or series
# function that the check reads, never in the check, makes `kbranch verify`
# exit 1 with that check, and no other, failed.

def _failed_checks(capsys, suite: str) -> dict[str, str]:
    """Run `kbranch verify suite`, which must exit 1: its failed checks,
    name -> actual."""
    assert main(["verify", suite]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["pass"]
    return {c["name"]: c["actual"] for c in report["checks"]
            if not c["passed"]}


def test_sl2_nu_independence_fails_on_a_table_that_reads_nu(
        capsys, monkeypatch):
    # at negative nu a table loses its lowest K-type; the fourteen families
    # have nu = 1 or no nu, so only the random pairs see it
    table = verify.ktype_table

    def reads_nu(g, p, window):
        t = table(g, p, window)
        if sum(p.nu.coords) >= 0:
            return t
        return t._replace(entries=dict(sorted(t.entries.items())[1:]))

    monkeypatch.setattr(verify, "ktype_table", reads_nu)
    assert _failed_checks(capsys, "sl2") == {
        "sl2 nu independence (100 random pairs)": "diverged"}


def test_su21_sampled_tables_fail_on_a_series_table_off_by_one(
        capsys, monkeypatch):
    # su21's series tables lose their lowest K-type: the sampled tables no
    # longer match them, while the sl2 tables and all queries still agree
    box = verify.box_table

    def series_short(g, p, window, mode):
        t = box(g, p, window, mode)
        if g.name != "su21" or mode != "series":
            return t
        return t._replace(entries=dict(sorted(t.entries.items())[1:]))

    monkeypatch.setattr(verify, "box_table", series_short)
    (name, actual), = _failed_checks(capsys, "su21").items()
    assert name == "su21 multiplicity-free + mode-equivalent (50 tables)"
    assert actual.startswith("violated: lam=")
    assert actual.endswith(" mode disagreement")


def test_su21_sampled_tables_fail_on_a_multiplicity_of_two(
        capsys, monkeypatch):
    # every table doubled by both evaluators: the evaluators still agree,
    # and the multiplicity-free expectation alone fails
    def doubled(evaluator):
        def run(*args):
            t = evaluator(*args)
            return t._replace(entries={k: 2 * m for k, m in t.entries.items()})
        return run

    monkeypatch.setattr(verify, "ktype_table", doubled(verify.ktype_table))
    monkeypatch.setattr(verify, "box_table", doubled(verify.box_table))
    (name, actual), = _failed_checks(capsys, "su21").items()
    assert name == "su21 multiplicity-free + mode-equivalent (50 tables)"
    assert actual.startswith("violated: lam=")
    assert " multiplicity > 1 at " in actual


def test_ring_inverse_identity_fails_on_a_plus_sign(capsys, monkeypatch):
    # the exterior line reads 1 + e^a for 1 - e^a
    exterior = verify.graded_exterior
    monkeypatch.setattr(verify, "graded_exterior", lambda hm, roots: (
        None, [(h, k, abs(m)) for h, k, m in exterior(hm, roots)[1]]))
    assert _failed_checks(capsys, "ring") == {
        "inverse identity (1 - e^a) * sum e^na = 1": "broken"}


def test_ring_partition_check_fails_on_a_count_off_by_one(capsys,
                                                          monkeypatch):
    # one partition too many of the zero weight
    counts = verify.partition_counts

    def one_more(roots, hm, bound2):
        c = counts(roots, hm, bound2)
        return {**c, (0,) * hm.rank: c[(0,) * hm.rank] + 1}

    monkeypatch.setattr(verify, "partition_counts", one_more)
    assert _failed_checks(capsys, "ring") == {
        "kostant partition equals series coefficient": "disagree"}


@pytest.mark.parametrize("law", ["commutative", "associative"])
def test_ring_laws_fail_on_a_product_that_breaks_one(capsys, monkeypatch,
                                                     law):
    # on the ring-law lattice alone: a product returning its first factor is
    # associative but not commutative, and one dropping its negative terms
    # is commutative but not associative
    product = verify.char_mul

    def broken(hm, a, b):
        if hm.lattice != "ringtest":
            return product(hm, a, b)
        if law == "commutative":
            return a
        bound, terms = product(hm, a, b)
        return bound, [term for term in terms if term[2] > 0]

    monkeypatch.setattr(verify, "char_mul", broken)
    assert _failed_checks(capsys, "ring") == {
        "ring laws (commutative, associative)": "violated"}
