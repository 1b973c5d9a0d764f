"""The `fgmod` program: `cli.run()` is the one entry of `python -m fgmod.cli`
and of the installed command.  It runs `main` with the cyclic garbage
collector off and freezes every object before the exit, so no collection
runs in the process; that frees all it should only while fgmod's own code
makes no reference cycles, which the last test checks.

The program checks run in fresh interpreters; `main` is checked in process.
"""

import gc
import json
import os

import pytest
from fresh_interpreter import ROOT, python

import fgmod
from fgmod import cli, verify

GRID = "tests/golden/verify_small_grid.json"  # relative to ROOT


def test_the_installed_command_is_the_program_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().splitlines() == ['fgmod = "fgmod.cli:run"']


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gammagen", "--ideal", "2", "Z/4 + Z", "Z/8"], 0),
        (["hom", "Z/2"], 2),  # argparse exits
        (["check", "reduced", "--ideal", "2", "Z", "Z"], 2),  # main returns the code
        (["glc", "1", "--ideal", "2", "Z", "Z"], 3),
        (["verify", "--grid", GRID], 0),
    ],
)
def test_run_prints_and_exits_as_python_m(argv, code):
    via_run = python("-c", "from fgmod.cli import run; run()", *argv)
    via_module = python("-m", "fgmod.cli", *argv)
    assert via_module.returncode == code, via_module.stderr
    assert (via_run.returncode, via_run.stdout, via_run.stderr) == (
        via_module.returncode, via_module.stdout, via_module.stderr,
    )


@pytest.mark.parametrize(
    "argv",
    [["canon", "Z/0"], ["verify", "--claims", ","], ["verify", "--claims", "nope"], ["verify", "--ring", "Z/6"],
     ["verify", "--grid", "missing.json"]],
)
def test_a_usage_error_prints_one_error_line_and_exits_2(argv):
    # main catches each of these by its class, which the value layer and
    # the harness raise from modules it loads only on use
    proc = python("-m", "fgmod.cli", *argv)
    lines = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert [line for line in lines if line.startswith("error:")] == lines[:1], proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["verify", "--list-claims"], ["canon", "--format", "json-lines", "Z/2"], ["verify", "--grid", GRID]],
)
def test_the_program_exits_1_quietly_when_the_reader_has_closed_the_pipe(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = python("-m", "fgmod.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses every write")
def test_the_program_prints_one_error_line_and_exits_1_when_it_cannot_write():
    with open("/dev/full", "w") as full:
        proc = python("-m", "fgmod.cli", "canon", "Z/2", stdout=full)
    assert (proc.returncode, proc.stderr) == (1, "error: cannot write the output: No space left on device\n")


def _started_with_stdout_closed(*argv: str):
    # its interpreter sets sys.stdout to None, and print() writes nothing
    return python(
        "-c", "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, '-m', 'fgmod.cli', *sys.argv[1:]])",
        *argv,
    )


def test_the_program_started_with_stdout_closed_writes_nothing_and_exits_0():
    proc = _started_with_stdout_closed("canon", "Z/2")
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_a_claims_run_started_with_stdout_closed_writes_nothing_and_exits_0(fmt):
    proc = _started_with_stdout_closed("verify", "--grid", GRID, "--claims", "reflexive", "--format", fmt)
    assert (proc.returncode, proc.stderr) == (0, "")


# `main` is read from the module at call time, so the recording one runs
_RECORD_COLLECTOR = """
import atexit, gc, sys
from fgmod import cli

during_main = []
main = cli.main

def recording_main(argv=None):
    during_main.append(gc.isenabled())
    return main(argv)

cli.main = recording_main
atexit.register(lambda: print(gc.isenabled(), during_main, gc.get_freeze_count() > 0))
print(gc.isenabled())
cli.run()
"""


@pytest.mark.parametrize("argv, code", [(["canon", "Z/4"], 0), (["hom", "Z/2"], 2)])
def test_the_program_runs_main_without_the_collector_and_exits_frozen(argv, code):
    proc = python("-c", _RECORD_COLLECTOR, *argv)
    assert proc.returncode == code, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "True"
    assert lines[-1] == "False [False] True"


_FAIL_ONE_CLAIM = """
import sys
from fgmod import cli, verify
claim = verify._BY_ID[sys.argv[1]]
verify._BY_ID[claim.claim_id] = claim._replace(check=verify._each(lambda *values: False))
del sys.argv[1]
cli.run()
"""


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_the_program_flags_an_unexpected_verdict_and_exits_4(tmp_path, fmt):
    path = tmp_path / "z6.json"
    path.write_text(json.dumps([{"ring": "Z/6", "max_torsion_order": 6, "ideal_generators": [2]}]))
    proc = python(
        "-c", _FAIL_ONE_CLAIM, "gamma-hom-commute",
        "verify", "--grid", str(path), "--claims", "gamma-reflect,gamma-hom-commute", "--format", fmt,
    )
    assert proc.returncode == 4, proc.stderr
    lines = proc.stdout.splitlines()
    if fmt == "text":
        reports = [line for line in lines if not line.startswith(("note:", " ", "summary:"))]
        assert reports[0].startswith("FAIL    gamma-hom-commute [") and reports[0].endswith(" (UNEXPECTED)")
        assert reports[1].startswith("PASS    gamma-reflect [") and reports[1].endswith(" skipped=0")
        assert lines[-1] == "summary: 2 reports, 1 unexpected verdicts"
    else:
        assert json.loads(lines[-1]) == {"summary": {"reports": 2, "all_expected": False}}


def test_main_leaves_the_collector_as_it_was(capsys):
    before = (gc.isenabled(), gc.get_freeze_count())
    assert cli.main(["canon", "Z/4"]) == 0
    assert cli.main(["verify", "--grid", str(ROOT / GRID), "--claims", "reflexive"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["hom", "Z/2"])
    capsys.readouterr()
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_a_suite_run_leaves_no_reference_cycles():
    grids = [verify.grid_from_dict(d) for d in json.loads((ROOT / GRID).read_text())]
    fgmod.clear_caches()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()  # a collection during the run would free the cycles it left
    try:
        verify.run_suite(grids)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
