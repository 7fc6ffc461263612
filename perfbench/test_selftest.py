"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, reports every metric of BENCHMARK.json with its unit and no error.

    python3 -m pytest -q perfbench/test_selftest.py
"""

import json
import os

import pytest

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for trace, declared in ((False, SPEC["end_to_end"]),
                            (True, SPEC["per_layer"])):
        report, result = run.measure(workload, seed=7, seconds=1, trace=trace,
                                     root=ROOT, tiny=True)
        assert result["correct"], report["errors"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} \
            == {m["name"]: m["unit"] for m in declared}
        if not trace:
            assert report["metrics"]["error_rate"] == {"value": 0.0,
                                                       "unit": "ratio"}
            assert all(m["value"] > 0 for m in result["metrics"].values())
