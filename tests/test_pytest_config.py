"""The repository's pytest configuration keeps a failing property test a
plain failure.

Under ``filterwarnings = ["error"]``, a warning raised while hypothesis
reports a failing example (it imports libcst to write the failure patch,
and libcst imports the deprecated ``mypy_extensions.TypedDict``) aborted
the session with INTERNALERROR, and no later test ran.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    text = out.stdout + out.stderr
    assert "INTERNALERROR" not in text, text
    assert "1 failed, 1 passed" in out.stdout, text
