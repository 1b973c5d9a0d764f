"""`fgmod.verify` is registered lazily by the package: one-shot queries never
run its body, and every way of importing it yields the same module object.

Each check runs in a fresh interpreter, because other tests load the harness
into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str, pythonpath=("src",)) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / p) for p in pythonpath)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_one_shot_query_does_not_run_the_harness():
    # object.__getattribute__ reads the module dict without triggering the load
    proc = _python(
        "-c",
        "import sys\n"
        "from fgmod.cli import main\n"
        "code = main(['canon', 'Z/4'])\n"
        "mod = sys.modules['fgmod.verify']\n"
        "body = object.__getattribute__(mod, '__dict__')\n"
        "print(code, 'run_suite' in body, '_REGISTRY' in body)\n"
        "mod.registered_claims\n"
        "print('run_suite' in body, '_REGISTRY' in body)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["Z/4", "0 False False", "True True"]


def test_every_import_gives_the_registered_module():
    proc = _python(
        "-c",
        "import sys\n"
        "import fgmod.cli\n"
        "mod = sys.modules['fgmod.verify']\n"
        "import fgmod.verify\n"
        "from fgmod.verify import run_suite\n"
        "from fgmod import verify\n"
        "print(fgmod.verify is mod, fgmod.cli.verify is mod, verify is mod, run_suite is mod.run_suite)\n"
        "print(sys.modules['fgmod.verify'] is mod)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True True True", "True"]


def test_verify_lists_every_claim_in_a_fresh_process():
    proc = _python("-m", "fgmod.cli", "verify", "--list-claims")
    assert proc.returncode == 0, proc.stderr
    claims = proc.stdout.splitlines()
    assert len(claims) == 38 and len(set(claims)) == 38


def test_traced_launcher_runs_a_one_shot_query(tmp_path):
    # the benchmark's launcher reads sys.modules['fgmod.verify'] right after importing fgmod.cli
    prefix = tmp_path / "op"
    proc = _python("perfbench/launcher.py", str(prefix), "canon", "Z/4", pythonpath=("src", "perfbench"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Z/4\n"
    assert (tmp_path / "op.json").exists() and (tmp_path / "op.spans").exists()
