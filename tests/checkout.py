"""Fresh interpreters that import hamsel from this checkout's src/, whatever
the caller's PYTHONPATH holds, for the tests that start one."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict:
    """os.environ with src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def fresh_python(code: str) -> str:
    """The stdout of code run in a fresh interpreter; raises if it fails or
    if its output stays open for a minute, as a process it left behind
    would hold it."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=checkout_env(), timeout=60,
    ).stdout
