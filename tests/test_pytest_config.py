"""The pytest configuration in pyproject.toml: which warnings fail a test."""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.just(0))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # reporting the failure imports libcst, whose import warns that
    # mypy_extensions.TypedDict is deprecated
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:benchmark",
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_other_deprecation_warnings_still_fail():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other API is deprecated", DeprecationWarning)
