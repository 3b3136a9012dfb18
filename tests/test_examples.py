"""Smoke tests: every shipped example must run cleanly."""

import glob
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_EXAMPLES = sorted(os.path.basename(path) for path in
                   glob.glob(os.path.join(_ROOT, "examples", "*.py")))


@pytest.mark.parametrize("script", _EXAMPLES)
def test_example_runs(script):
    path = os.path.join(_ROOT, "examples", script)
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), f"{script} produced no output"
