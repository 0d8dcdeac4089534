"""Shared fixture: run Python in a fresh interpreter on the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_python():
    """``run(*args, cwd=None, **env)`` runs ``python *args`` with chaoslab
    imported from ``src`` and ``env`` added to the environment, fails the
    test on a nonzero exit, and returns the stdout."""
    def run(*args: str, cwd=None, **env: str) -> str:
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, *args],
            cwd=cwd,
            env={**os.environ, **env, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        return done.stdout
    return run
