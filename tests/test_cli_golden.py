"""Every CLI subcommand must keep its recorded exit code and stdout.

`golden/cli-answers.jsonl` holds one JSON object per query: its argv (after
`fgmod`), its exit code and its stdout.  The queries cover every subcommand
over Z, Z/6, Z/8 and Z/12 in both output formats, on seeded sums of atoms
and non-diagonal `coker` operands, plus usage errors (exit 2),
limits that are not finitely generated (exit 3) and limits whose chains
settle only after many steps.  Degree-0 `glc`/`glh` queries that exit 3
are left out: degree 0 is answered from Γ_a(Hom(M, N)) and Λ_a(M (x) N),
which exist on more inputs than the stabilized chain did (see
`test_cli.py` for those cases).

The corpus was captured, from the repository root, with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli-answers.jsonl

and this test replays it in process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "cli-answers.jsonl"
GRID = "tests/golden/verify_small_grid.json"  # relative to ROOT

RINGS = ("Z", "Z/6", "Z/8", "Z/12")
FORMATS = ("text", "json-lines")
# name, module arguments, takes --ideal, takes a degree
COMMANDS = (
    ("canon", 1, False, False),
    ("hom", 2, False, False),
    ("tensor", 2, False, False),
    ("dual", 1, False, False),
    ("ext", 2, False, True),
    ("tor", 2, False, True),
    ("gamma", 1, True, False),
    ("lambda", 1, True, False),
    ("gammagen", 2, True, False),
    ("lambdagen", 2, True, False),
    ("glc", 2, True, True),
    ("glh", 2, True, True),
    ("check reduced", 1, True, False),
    ("check coreduced", 1, True, False),
    ("check reduced-wrt", 2, True, False),
    ("check coreduced-wrt", 2, True, False),
)
PER_CELL = 4
# its chains along (2) settle at k = 70
LONG = f"Z/{2**70}"

# usage errors, limits outside finitely generated modules and long chains
EXTRA = (
    ["glc", "1", "--ideal", "2", "Z", "Z"],
    ["glh", "1", "--ideal", "2", "Z", "Z/4"],
    ["lambda", "--ideal", "2", "Z + Z/4"],
    ["lambdagen", "--ideal", "3", "Z", "Z"],
    ["gamma", "--ideal", "2", LONG],
    ["lambda", "--ideal", "2", LONG],
    ["gammagen", "--ideal", "2", LONG, LONG],
    ["glc", "0", "--ideal", "2", LONG, LONG],
    ["gamma", "Z/4"],
    ["glc", "0", "Z", "Z"],
    ["check", "reduced", "--ideal", "2", "Z", "Z"],
    ["check", "reduced-wrt", "--ideal", "2", "Z"],
    ["check", "nonsense", "--ideal", "2", "Z"],
    ["dual", "Z + Z/2"],
    ["dual", "--ring", "Z/6", "Z/6 + Z/2"],
    ["canon", "Z/"],
    ["canon", "--ring", "Z/6", "Z"],
    ["canon", "--ring", "Z/1", "0"],
    ["canon", "coker[[1,2],[3]]"],
    ["hom", "coker[[True]]", "Z"],
    ["tensor", "Z/2^300", "Z"],
    ["ext", "-1", "Z/2", "Z"],
    ["glc", "1", "--ideal", "", "Z/2", "Z"],
    ["glh", "1", "--ideal", "x", "Z/2", "Z"],
    ["ext", "one", "Z/2", "Z"],
    ["hom", "Z/2"],
    ["verify", "--list-claims"],
    ["verify", "--claims", "reflexive,finiteness", "--grid", GRID],
    ["verify", "--claims", "reflexive", "--grid", GRID, "--format", "json-lines"],
    ["verify", "--claims", "no-such-claim", "--grid", GRID],
    ["verify", "--grid", "tests/golden/no-such-grid.json"],
)


def _operand(rng: random.Random, ring: str) -> str:
    """A sum of one to three atoms, or a non-diagonal coker literal."""
    if rng.random() < 0.3:
        gens, rels = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-9, 9) for _ in range(rels)] for _ in range(gens)]
        return "coker[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if ring == "Z" and rng.random() < 0.3:
            atoms.append("Z")
        else:
            atoms.append(f"Z/{rng.randint(2, 16)}")
    return " + ".join(atoms)


def queries() -> list[list[str]]:
    rng = random.Random("cli-answers")
    out = []
    for name, arity, needs_ideal, degree in COMMANDS:
        for ring in RINGS:
            for fmt in FORMATS:
                for _ in range(PER_CELL):
                    argv = name.split()
                    if degree:
                        argv.append(str(rng.randint(0, 3)))
                    argv += ["--ring", ring, "--format", fmt]
                    if needs_ideal:
                        argv += ["--ideal", str(rng.choice((0, 1, 2, 3, 4, 6)))]
                    argv += [_operand(rng, ring) for _ in range(arity)]
                    out.append(argv)
    for ring in RINGS:
        for fmt in FORMATS:
            out.append(["verify", "--ring", ring, "--format", fmt, "--list-claims"])
    for argv in EXTRA:
        out.append(list(argv))
        out.append(argv + ["--format", "json-lines"])
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of `fgmod argv`, run in this process from ROOT."""
    from fgmod.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _degree_zero_limit(argv: list[str]) -> bool:
    return argv[0] in ("glc", "glh") and argv[1] == "0"


def capture() -> None:
    for argv in queries():
        code, out = run(argv)
        if code == 3 and _degree_zero_limit(argv):
            continue
        print(json.dumps({"argv": argv, "exit": code, "stdout": out}))


def test_corpus_covers_every_subcommand_ring_and_format():
    from fgmod import cli

    # the query list names every subcommand and `check` predicate the CLI has
    assert {name.split()[0] for name, *_ in COMMANDS} | {"verify"} == set(cli._COMMANDS)
    predicates = {name.split()[1]: arity for name, arity, *_ in COMMANDS if name.startswith("check ")}
    assert predicates == {name: count for name, (_, count) in cli._PREDICATES.items()}
    records = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    seen = set()
    for r in records:
        argv = r["argv"]
        name = " ".join(argv[:2]) if argv[0] == "check" else argv[0]
        ring = argv[argv.index("--ring") + 1] if "--ring" in argv else "Z"
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        seen.add((name, ring, fmt))
    for name, *_ in COMMANDS + (("verify",),):
        for ring in RINGS:
            for fmt in FORMATS:
                assert (name, ring, fmt) in seen
    assert {r["exit"] for r in records} == {0, 2, 3}


def test_cli_answers_match_the_corpus():
    mismatches = []
    for line in CORPUS.read_text().splitlines():
        r = json.loads(line)
        got = run(r["argv"])
        if got != (r["exit"], r["stdout"]):
            mismatches.append((r["argv"], (r["exit"], r["stdout"]), got))
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    sys.exit(capture())
