"""`fgmod verify` on a small grid must reproduce its recorded output byte
for byte, in both output formats.

The files under `golden/` were written by `fgmod verify --grid
golden/verify_small_grid.json` (and `--format json-lines`) before the kernel
stopped computing unused Smith transforms; any change to the arithmetic that
moves a verdict, a count or a counterexample shows up here.
"""

from pathlib import Path

import pytest

from fgmod.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRID = GOLDEN / "verify_small_grid.json"


@pytest.mark.parametrize(
    "fmt, expected", [("text", "verify_small.txt"), ("json-lines", "verify_small.jsonl")]
)
def test_verify_small_grid_matches_golden(capsys, fmt, expected):
    code = main(["verify", "--grid", str(GRID), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / expected).read_text()
