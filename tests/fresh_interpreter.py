"""Run Python in a fresh interpreter on this checkout's `src`.

The tests that check what a process loads, or how the program starts and
exits, cannot ask the test process: other tests have loaded every module
into it.  They run their programs through `python` instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def python(*args: str, pythonpath=("src",)) -> subprocess.CompletedProcess:
    """`python *args` from the repository root, with the `pythonpath`
    directories (relative to the root) as the whole PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / p) for p in pythonpath)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
