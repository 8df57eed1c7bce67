"""The suite's pytest configuration: its warning filters leave a failing
test readable."""

import subprocess
import sys
import textwrap
from pathlib import Path


def test_failing_example_is_reported_as_a_failure(tmp_path):
    # a failing example must read as a plain failure under the suite's
    # warning filters: hypothesis's report imports libcst, whose
    # DeprecationWarning used to end the run in an INTERNALERROR
    (tmp_path / "test_throwaway.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed" in result.stdout
