"""The repository's pytest settings, as a run of the suite meets them."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

# one failing plain test, one failing property and one passing test
_MODULE = '''
from hypothesis import given, settings, strategies as st


def test_plain_fails():
    assert False


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_is_reported_as_one_failure(tmp_path):
    # filterwarnings turns warnings into errors, and hypothesis's failure
    # report imports libcst, where mypy_extensions warns: unless that one
    # warning is ignored, the report is an INTERNALERROR and the run stops
    (tmp_path / "test_module.py").write_text(_MODULE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
