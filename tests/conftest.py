"""Shared test set-up.

`pyproject.toml` puts `src/` on the test process's import path; the CLI
tests that start `python -m semigroup_forge.cli` in a child process need
it on the child's path too, so a plain `python -m pytest` works from a
fresh checkout.
"""
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def package_on_child_path():
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield
