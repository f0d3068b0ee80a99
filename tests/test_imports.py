"""Each module of the package imports on its own in a fresh interpreter.

The package re-exports nothing, so no import order is fixed for callers:
a module that works only after another has been imported fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "deta").glob("*.py") if p.stem != "__init__")


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = run_python("-c", f"import deta.{module}")
    assert done.returncode == 0, done.stderr


def test_cli_runs_as_a_module():
    done = run_python("-m", "deta.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: deta")
