"""`fgmod.verify` is registered lazily by the package: one-shot queries never
run its body, a suite run never runs the body of `fgmod.adic`, nor of the
matrix route even when a grid whitelists a `coker` module, and every way of
importing it yields the same module object.

Each check runs in a fresh interpreter, because other tests load the harness
into this one.
"""

import json

from fresh_interpreter import python


def test_one_shot_query_does_not_run_the_harness():
    # object.__getattribute__ reads the module dict without triggering the load
    proc = python(
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


def test_a_suite_run_leaves_adic_unloaded():
    # the harness asks cyclic, not the matrix route, for every
    # torsion or completion, so the body of fgmod.adic never runs
    proc = python(
        "-c",
        "import contextlib, io, sys\n"
        "from fgmod.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--grid', 'tests/golden/verify_small_grid.json'])\n"
        "def ran(name):\n"
        "    return 'StabilizationResult' in object.__getattribute__(sys.modules[name], '__dict__')\n"
        "print(code, 'run_suite' in object.__getattribute__(sys.modules['fgmod.verify'], '__dict__'), ran('fgmod.adic'))\n"
        "sys.modules['fgmod.adic'].torsion\n"
        "print(ran('fgmod.adic'))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 True False", "True"]


def test_every_import_gives_the_registered_module():
    proc = python(
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
    proc = python("-m", "fgmod.cli", "verify", "--list-claims")
    assert proc.returncode == 0, proc.stderr
    claims = proc.stdout.splitlines()
    assert len(claims) == 38 and len(set(claims)) == 38


def test_traced_launcher_runs_a_one_shot_query(tmp_path):
    # the benchmark's launcher reads sys.modules['fgmod.verify'] right after importing fgmod.cli
    prefix = tmp_path / "op"
    proc = python("perfbench/launcher.py", str(prefix), "canon", "Z/4", pythonpath=("src", "perfbench"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Z/4\n"
    assert (tmp_path / "op.json").exists() and (tmp_path / "op.spans").exists()


def test_clear_caches_empties_every_table_without_loading_the_harness():
    # the tables are found here by type among all live objects, not the way
    # clear_caches finds them
    proc = python(
        "-c",
        "import functools, gc, sys\n"
        "import fgmod\n"
        "from fgmod.cli import main\n"
        "def filled():\n"
        "    return sorted(f.__qualname__ for f in gc.get_objects() if type(f) is functools._lru_cache_wrapper\n"
        "                  and f.__module__.startswith('fgmod') and f.cache_info().currsize)\n"
        "main(['hom', 'coker[[2,1],[0,4]]', 'Z/6'])\n"
        "body = object.__getattribute__(sys.modules['fgmod.verify'], '__dict__')\n"
        "print(bool(filled()))\n"
        "fgmod.clear_caches()\n"
        "print(filled(), 'run_suite' in body)\n"
        "from fgmod import verify\n"
        "verify.run_suite(verify.default_grids()[1:2], ['gamma-left-exact', 'closure-sums'])\n"
        "print('_sequences_in' in filled(), '_exact_on_summand' in filled())\n"
        "fgmod.clear_caches()\n"
        "print(filled())\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["Z/2", "True", "[] False", "True True", "[]"]


def test_a_verify_run_runs_neither_the_matrix_route_nor_dataclasses():
    # the harness reads its Smith forms off fgmod.elimination and its records
    # are hand-written classes; only enumerate_modules, which returns
    # presentations, loads fgmod.modules; a well-formed verify line is read
    # without the parser
    proc = python(
        "-c",
        "import contextlib, io, sys\n"
        "from fgmod.cli import main\n"
        "def ran(name):\n"
        "    return '__builtins__' in object.__getattribute__(sys.modules[name], '__dict__')\n"
        "def loaded():\n"
        "    return [ran('fgmod.verify'), ran('fgmod.linalg'), ran('fgmod.modules'), 'dataclasses' in sys.modules,\n"
        "            'argparse' in sys.modules]\n"
        "for argv in (['verify', '--list-claims'], ['verify', '--grid', 'tests/golden/verify_small_grid.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code, *loaded())\n"
        "from fgmod import verify\n"
        "found = verify.enumerate_modules(verify.default_grids()[1])\n"
        "from fgmod.modules import Presentation\n"
        "print(len(found), all(type(p) is Presentation for p in found), *loaded())\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 True False False False False",
        "0 True False False False False",
        "9 True True True True True False",
    ]


def test_a_grid_that_whitelists_a_coker_module_runs_neither_linalg_nor_modules(tmp_path):
    # the grammar reads a coker atom's invariant factors off fgmod.elimination;
    # the reports are those of the grid that names the same module by its form
    grids = []
    for name, module in (("coker", "coker[[2,4],[6,8]]"), ("form", "Z/2 + Z/4")):
        grids.append(tmp_path / f"{name}.json")
        grids[-1].write_text(json.dumps([{"ring": "Z/8", "ideal_generators": [0, 2], "module_whitelist": ["0", module]}]))
    proc = python(
        "-c",
        "import contextlib, io, sys\n"
        "from fgmod.cli import main\n"
        "def ran(name):\n"
        "    return '__builtins__' in object.__getattribute__(sys.modules[name], '__dict__')\n"
        "outs = []\n"
        f"for path in {list(map(str, grids))!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        main(['verify', '--grid', path])\n"
        "    outs.append(out.getvalue())\n"
        "    print(ran('fgmod.verify'), ran('fgmod.linalg'), ran('fgmod.modules'), 'dataclasses' in sys.modules)\n"
        "print(outs[0] == outs[1], outs[0].splitlines()[-1])\n",
    )
    assert proc.returncode == 0, proc.stderr
    # (two modules are too few for every expected verdict; both grids agree on that)
    assert proc.stdout.splitlines() == [
        "True False False False",
        "True False False False",
        "True summary: 36 reports, 4 unexpected verdicts",
    ]
