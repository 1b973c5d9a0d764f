"""Seeded inputs for the benchmark workloads.

Every operation is the argv of one `fgmod` CLI invocation (everything after
`python -m fgmod.cli`).  Generation is pure: the same workload, seed and run
length always give the same list.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("verify-reduced", "cli-small", "cli-coker")

# Operations per second of requested run length, sized so that the timed
# phase, reference probes included, lasts about `--seconds` on the 2-vCPU
# machine the benchmark was sized on.  The operation count is fixed by the
# arguments, never by measured time.
OPS_PER_SECOND = {"verify-reduced": 1 / 10.0, "cli-small": 3.3, "cli-coker": 2.2}

# Per-operation deadline in seconds; an operation still running at its
# deadline is killed and counts as failed.
DEADLINE_S = {"verify-reduced": 120.0, "cli-small": 30.0, "cli-coker": 5.0}

# Reference probes run before each operation and after the last (see
# spawn.PROBE); long operations get more, so that one probe's noise does not
# set their scale.
PROBES_PER_GAP = {"verify-reduced": 8, "cli-small": 1, "cli-coker": 1}

# cli-coker draws from one fixed population; the run seed only permutes it
# (see README.md: per-seed draws of heavy-tailed queries make totals unsteady).
COKER_POPULATION_SEED = 0

# Reduced verification grids.  Z/8 is listed by module so that it keeps the
# modules carrying the expected glc/glh fast-path counterexamples.
VERIFY_GRIDS = (
    {"ring": "Z", "max_torsion_order": 6, "max_free_rank": 1,
     "ideal_generators": [0, 2, 3, 4, 6], "label": "Z"},
    {"ring": "Z/6", "max_torsion_order": 6, "max_free_rank": 0,
     "ideal_generators": [0, 1, 2, 3], "label": "Z/6"},
    {"ring": "Z/8", "max_free_rank": 0, "ideal_generators": [0, 1, 2, 4],
     "module_whitelist": ["0", "Z/2", "Z/4", "Z/8", "Z/2 + Z/2"], "label": "Z/8"},
)


def op_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds * OPS_PER_SECOND[workload]))


def coker_literal(rng: random.Random, gens: int, rels: int) -> str:
    rows = [[rng.randint(-9, 9) for _ in range(rels)] for _ in range(gens)]
    return "coker[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"


def _small_operand(rng: random.Random, ring: str) -> str:
    if rng.random() < 0.25:
        return coker_literal(rng, rng.randint(1, 2), rng.randint(1, 2))
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if ring == "Z" and rng.random() < 0.25:
            atoms.append("Z")
        else:
            atoms.append(f"Z/{rng.randint(2, 12)}")
    return " + ".join(atoms)


SMALL_COMMANDS = (
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


SMALL_RINGS = ("Z", "Z/6", "Z/8", "Z/12")


def cli_small_ops(seed: int, n: int) -> list[list[str]]:
    """Independent queries of every subcommand except verify, degrees 0-2.

    Every (subcommand, ring) pair occurs equally often, up to the remainder,
    so the mix, and with it the median latency, does not drift with the seed.
    """
    rng = random.Random(f"cli-small:{seed}")
    pairs = [(c, r) for c in SMALL_COMMANDS for r in SMALL_RINGS]
    mix = (pairs * (n // len(pairs) + 1))[:n]
    rng.shuffle(mix)
    ops = []
    for (name, arity, needs_ideal, degree), ring in mix:
        argv = name.split()
        if degree:
            argv.append(str(rng.randint(0, 2)))
        argv += ["--ring", ring]
        if needs_ideal:
            argv += ["--ideal", str(rng.choice((0, 2, 3, 4, 6)))]
        argv += [_small_operand(rng, ring) for _ in range(arity)]
        ops.append(argv)
    return ops


def _coker_query(rng: random.Random) -> list[str]:
    ring = rng.choice(("Z", "Z/8", "Z/12"))
    ideal = ["--ideal", str(rng.choice((2, 3, 4, 6)))]
    kind = rng.choices(
        ("glc", "glh", "gammagen", "lambdagen", "check reduced-wrt", "check coreduced-wrt"),
        weights=(3, 3, 1, 1, 1, 1),
    )[0]
    argv = kind.split()
    if kind in ("glc", "glh"):
        argv.append(str(rng.randint(1, 2)))
    return argv + ["--ring", ring] + ideal + [coker_literal(rng, 3, 3), coker_literal(rng, 3, 3)]


def cli_coker_ops(seed: int, n: int) -> list[list[str]]:
    """The first n queries of the fixed population, in a seed-permuted order."""
    pop = random.Random(COKER_POPULATION_SEED)
    ops = [_coker_query(pop) for _ in range(n)]
    random.Random(f"cli-coker:{seed}").shuffle(ops)
    return ops


def verify_ops(seed: int, n: int, claims: list[str], grid_path: str) -> tuple[str, list[list[str]]]:
    """The grid file text and n identical full-suite verify invocations, with
    grids and claim ids in a seed-permuted order."""
    rng = random.Random(f"verify-reduced:{seed}")
    grids = list(VERIFY_GRIDS)
    claims = list(claims)
    rng.shuffle(grids)
    rng.shuffle(claims)
    argv = ["verify", "--grid", grid_path, "--claims", ",".join(claims)]
    return json.dumps(grids, indent=1) + "\n", [list(argv) for _ in range(n)]
