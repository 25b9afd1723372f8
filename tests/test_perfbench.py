"""The benchmark's own self-tests, run against this checkout.

The benchmark traces the package by rebinding names such as
`multiplicity_tree.make_semigroup` and `cli.sieve`, and its golden
builder reads `PackedFamily.members`.  Running its self-tests here makes
the removal of any name it relies on fail the package's test run too.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
