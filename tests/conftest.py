"""Shared fixtures: each verification suite's default workload, run once."""

import time
from typing import NamedTuple

import pytest

from kbranch import oscillator, verify
from kbranch.verify import run_suite


class SuiteRun(NamedTuple):
    report: dict     # run_suite(name), as `kbranch verify <name>` prints it
    seconds: float   # the run's wall time
    solves: int      # its calls of oscillator_1d, the 1-D kernel solve


@pytest.fixture(scope="session")
def suite_run():
    """name -> the SuiteRun of run_suite(name) with no settings, made once
    per session, so that each seeded workload runs once however many tests
    read its checks.  run_suite is bound at import, so a test may stand
    this fixture in for verify.run_suite."""
    runs = {}

    def run(name: str) -> SuiteRun:
        if name not in runs:
            calls, solve = [], oscillator.oscillator_1d

            def counted(*args, **kwargs):
                calls.append(args)
                return solve(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oscillator, "oscillator_1d", counted)
                mp.setattr(verify, "oscillator_1d", counted)
                t0 = time.perf_counter()
                report = run_suite(name)
                runs[name] = SuiteRun(report, time.perf_counter() - t0,
                                      len(calls))
        return runs[name]

    return run
