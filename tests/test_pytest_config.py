"""The repo's pytest settings report every test's result."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # with every warning an error, the report of a falsified example must
    # not raise inside hypothesis' plugin, which would abort the session
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
