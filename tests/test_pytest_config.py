"""The repository's pytest configuration reports a failing property test as
one failed test: the run goes on to the tests after it and exits 1, with no
INTERNALERROR from a warning raised inside Hypothesis's failure reporter."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
