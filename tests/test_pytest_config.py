"""The repository's pytest configuration reports a failing test as a failure, not as a broken session.

`filterwarnings = ["error"]` turns every warning into an error.  A failing
Hypothesis test imports libcst to explain its example, and that import
warns; the configuration must let the session report the failure and run
the tests after it.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_a_fails.py").write_text(FAILING)
    (tmp_path / "test_b_passes.py").write_text("def test_passes():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-q", "test_a_fails.py", "test_b_passes.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
