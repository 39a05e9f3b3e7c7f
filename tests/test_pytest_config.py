"""The suite's own pytest configuration: a failing test fails alone."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis imports libcst only where it is installed")
def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report imports libcst, whose mypy_extensions import
    # warns; under filterwarnings = error that warning once became an
    # INTERNALERROR that ended the whole run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
