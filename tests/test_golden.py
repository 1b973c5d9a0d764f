"""`fgmod verify` on a small grid must reproduce its recorded output byte
for byte, in both output formats.

The files under `golden/` were written by `fgmod verify --grid
golden/verify_small_grid.json` (and `--format json-lines`) before the kernel
stopped computing unused Smith transforms; any change to the arithmetic that
moves a verdict, a count or a counterexample shows up here.
`verify_extra.txt` and `verify_extra.jsonl` were written the same way from
`verify_extra_grid.json`, grids that no other golden covers in full: `Z`
at free rank 2, and `Z/12` and `Z/30` with every principal ideal.
`default-suite.txt` and `default-suite.jsonl` are the report on the
built-in grids, which only the program run checks.
Canonical forms hash by identity, so the report is also run in fresh
interpreters whose forms sit at different addresses.  Each demo's stdout is
recorded too, as `golden/demos/<demo stem>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from fresh_interpreter import ROOT, python

from fgmod.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRID = GOLDEN / "verify_small_grid.json"
# each golden `<name>.txt` or `<name>.jsonl` is the report on `<name>_grid.json`
GOLDENS = [
    ("text", "verify_small.txt"), ("json-lines", "verify_small.jsonl"),
    ("text", "verify_extra.txt"), ("json-lines", "verify_extra.jsonl"),
]
DEFAULT_SUITE = [("text", "default-suite.txt"), ("json-lines", "default-suite.jsonl")]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def grid_of(golden: str) -> Path:
    return GOLDEN / (golden.rsplit(".", 1)[0] + "_grid.json")


def grid_args(golden: str) -> list[str]:
    # the default suite runs on the built-in grids
    return [] if golden.startswith("default-suite.") else ["--grid", str(grid_of(golden))]


@pytest.mark.parametrize("fmt, expected", GOLDENS)
def test_verify_small_grid_matches_golden(capsys, fmt, expected):
    code = main(["verify", "--grid", str(grid_of(expected)), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / expected).read_text()


@pytest.mark.parametrize("fmt, expected", GOLDENS + DEFAULT_SUITE)
def test_the_program_matches_golden(fmt, expected):
    # the program as a whole process, where any warning is an error
    proc = python("-W", "error", "-m", "fgmod.cli", "verify", *grid_args(expected), "--format", fmt)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / expected).read_text()


_TWO_FORMATS = """
import random, sys
from fgmod import cyclic
from fgmod.cli import main
from fgmod.rings import ZZ
keep = []
if sys.argv[1] == "scrambled":
    # unrelated live forms move every later form to other addresses
    shapes = [((d,) * k, r) for d in range(100, 200) for k in range(1, 16) for r in (0, 1)]
    random.Random(sys.argv[2]).shuffle(shapes)
    keep = [cyclic.CanonicalForm(ZZ, *shape) for shape in shapes]
for fmt in ("text", "json-lines"):
    assert main(["verify", "--grid", sys.argv[3], "--format", fmt]) == 0
    print("\\f", end="")
"""


@pytest.mark.parametrize("mode, hash_seed", [("plain", "0"), ("scrambled", "4099")])
def test_output_does_not_depend_on_object_addresses(mode, hash_seed):
    # forms hash by identity, so their hashes, and the order of any set or
    # dict of forms, change with where the forms were allocated; the report
    # must not
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_FORMATS, mode, hash_seed, str(GRID)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    text, jsonl, rest = proc.stdout.split("\f")
    assert text == (GOLDEN / "verify_small.txt").read_text()
    assert jsonl == (GOLDEN / "verify_small.jsonl").read_text()
    assert rest == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_each_demo_prints_its_recorded_output(demo):
    proc = python(str(demo.relative_to(ROOT)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "demos" / f"{demo.stem}.txt").read_text()
