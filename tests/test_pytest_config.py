"""The suite's pytest settings let a failing property test end normally.

Warnings are errors in this suite. Hypothesis's report hook can raise a
deprecation warning of its own while it reports a failure, which pytest
then turns into an internal error that ends the session; the settings
ignore that one warning. This runs a failing and a passing test under
the suite's settings in a fresh pytest and checks that both are reported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    argv = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py",
    ]
    run = subprocess.run(
        argv, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
