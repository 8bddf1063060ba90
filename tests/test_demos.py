"""Every narrative walkthrough in demos/ runs to completion."""

import pathlib
import subprocess
import sys

import pytest

from test_cli import SUBPROCESS_ENV

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
