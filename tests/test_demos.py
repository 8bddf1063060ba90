"""Every narrative walkthrough in demos/ runs to completion and prints
exactly what it printed before."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

from test_cli import SUBPROCESS_ENV

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: sha256 of each demo's stdout.  Every demo is deterministic, so any change
#: in what it prints shows here, down to the printed type of a scalar
#: (``3`` against ``Fraction(3, 1)``).
STDOUT_SHA256 = {
    "commutator_identity.py": "1679dc265a9b1e94461b5c2c82b28d4bd9d51ec71aea9de0936a583d19fbe991",
    "exceptional_algebra.py": "51a8c940b52a5c0ffa99e4bc43ed9f7d8ed8880fc9c2bf4d15e6d1641f65c954",
    "free_algebra_basics.py": "9b260dee2fe28dfea8e52ccbb4ccb737accb5a164914764d1265316ab2246e92",
    "ideal_gap_counterexample.py": "7282333a9ac6716465525b53633a3bbff24fc916b90b5c2df6bf7e674a509c02",
    "multilinear_dimensions.py": "0f4b360fd16dcf6a0b0002f269955078f40466ce8c17514c3ca0e48780aadaec",
}


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
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name], proc.stdout
