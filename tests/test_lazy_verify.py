"""`fgmod.verify` is registered lazily by the package: one-shot queries never
run its body, a suite run never runs the body of `fgmod.adic`, nor of the
matrix route even when a grid whitelists a `coker` module, and every way of
importing it yields the same module object.  A value query runs only the
value path, and listing the claims only the claim index; the harness's
induced maps (`maps`) and the help parser (`usage`) run only in the
processes that use them, and no module imports `fgmod.cli`, which
`python -m fgmod.cli` runs as `__main__`.

Each check runs in a fresh interpreter, because other tests load the harness
into this one.
"""

import ast
import json

from fresh_interpreter import ROOT, python

from fgmod import verify


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


# reports at exit, on stderr, whether the harness's body ran and which of
# elimination and json the process imported
_LOADED_AT_EXIT = """
import atexit, sys
def loaded():
    body = object.__getattribute__(sys.modules['fgmod.verify'], '__dict__')
    print('_REGISTRY' in body, 'fgmod.elimination' in sys.modules, 'json' in sys.modules, file=sys.stderr)
atexit.register(loaded)
from fgmod.cli import run
run()
"""


def test_verify_lists_every_claim_in_a_fresh_process():
    # the listing reads the claim index alone: neither the body of
    # fgmod.verify nor fgmod.elimination runs, and only json-lines loads json
    for fmt in ("text", "json-lines"):
        proc = python("-c", _LOADED_AT_EXIT, "verify", "--list-claims", "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"False False {fmt == 'json-lines'}\n"
        lines = proc.stdout.splitlines()
        claims = lines if fmt == "text" else [json.loads(line)["id"] for line in lines]
        assert len(claims) == 38 and len(set(claims)) == 38
        assert claims == verify.registered_claims()


def test_traced_launcher_runs_a_one_shot_query(tmp_path):
    # the benchmark's launcher reads sys.modules['fgmod.verify'] right after importing fgmod.cli
    prefix = tmp_path / "op"
    proc = python("perfbench/launcher.py", str(prefix), "canon", "Z/4", pythonpath=("src", "perfbench"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Z/4\n"
    assert (tmp_path / "op.json").exists() and (tmp_path / "op.spans").exists()


def test_importing_the_cli_registers_every_traced_layer_unrun():
    # the launcher looks each of its LAYERS up in sys.modules right after
    # `import fgmod.cli`; the tuple is read off its source, not imported
    tree = ast.parse((ROOT / "perfbench" / "launcher.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"])
    assert "grammar" in layers and "verify" in layers
    proc = python(
        "-c",
        "import sys\n"
        "import fgmod.cli\n"
        f"for name in {layers!r}:\n"
        "    module = sys.modules.get('fgmod.' + name)\n"
        "    ran = module is not None and '__builtins__' in object.__getattribute__(module, '__dict__')\n"
        "    print(name, module is not None, ran)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{name} True False" for name in layers]


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
    # presentations, loads fgmod.modules, whose records need no dataclasses
    # either; a well-formed verify line is read without the parser, and
    # --list-claims reads the claim index without the harness
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
        "0 False False False False False",
        "0 True False False False False",
        "9 True True True True False False",
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


# a sitecustomize that reports at exit, on stderr, each entry of sys.modules
# whose file is a source of the fgmod package: its name, the file and
# whether its body ran
_PROBE = """
import atexit, os, sys

def report():
    package = os.path.dirname(object.__getattribute__(sys.modules['fgmod'], '__dict__')['__file__'])
    for name, module in list(sys.modules.items()):
        body = object.__getattribute__(module, '__dict__')
        path = body.get('__file__') or ''
        if os.path.dirname(path) == package:
            print('module:', name, os.path.basename(path), '__builtins__' in body, file=sys.stderr)

atexit.register(report)
"""


def _program(tmp_path, *argv: str) -> tuple[int, list[tuple[str, str, bool]]]:
    """The exit code of `python -m fgmod.cli *argv`, as the installed command
    and the benchmark run it, and the (name, file, ran) of each fgmod entry
    of its sys.modules at exit."""
    (tmp_path / "sitecustomize.py").write_text(_PROBE)
    proc = python("-m", "fgmod.cli", *argv, pythonpath=("src", str(tmp_path)))
    rows = [line.split()[1:] for line in proc.stderr.splitlines() if line.startswith("module: ")]
    return proc.returncode, [(name, path, ran == "True") for name, path, ran in rows]


def _ran(rows) -> dict[str, str]:
    return {name: path for name, path, ran in rows if ran}


def test_a_value_query_runs_exactly_the_value_path(tmp_path):
    value_path = {
        "fgmod": "__init__.py", "fgmod.errors": "errors.py", "fgmod.rings": "rings.py",
        "fgmod.cyclic": "cyclic.py", "fgmod.grammar": "grammar.py", "__main__": "cli.py",
    }
    for argv in (["canon", "Z/2"], ["hom", "Z/4", "Z/6"], ["glc", "1", "--ideal", "2", "Z/4", "Z/8"],
                 ["check", "reduced-wrt", "--ideal", "2", "Z/4", "Z/8"]):
        code, rows = _program(tmp_path, *argv)
        assert code == 0, argv
        assert _ran(rows) == value_path, argv


def test_a_claims_run_loads_no_source_twice(tmp_path):
    code, rows = _program(tmp_path, "verify", "--grid", "tests/golden/verify_small_grid.json", "--claims", "reflexive")
    assert code == 0
    files = [path for _, path, _ in rows]
    assert len(files) == len(set(files)), sorted(files)
    assert "fgmod.cli" not in [name for name, _, _ in rows]
    assert {"fgmod.verify", "fgmod.maps", "fgmod.elimination"} <= set(_ran(rows))


def test_listing_the_claims_runs_exactly_the_claim_index(tmp_path):
    # neither the harness, its maps, elimination nor the value layer
    # (rings, cyclic, grammar) runs
    listing = {"fgmod": "__init__.py", "fgmod.errors": "errors.py", "fgmod.claims": "claims.py", "__main__": "cli.py"}
    for fmt in ("text", "json-lines"):
        code, rows = _program(tmp_path, "verify", "--list-claims", "--format", fmt)
        assert code == 0, fmt
        assert _ran(rows) == listing, fmt


def test_a_usage_error_runs_the_parser_but_not_the_harness(tmp_path):
    for argv in (["hom", "Z/2"], ["verify", "--grid"]):
        code, rows = _program(tmp_path, *argv)
        assert code == 2, argv
        assert "fgmod.usage" in _ran(rows) and "fgmod.verify" not in _ran(rows), argv


def test_cyclic_resolves_the_induced_maps_in_maps_on_first_read():
    proc = python(
        "-c",
        "import sys\n"
        "from fgmod import cyclic\n"
        "print('fgmod.maps' in sys.modules)\n"
        "hom_postcompose, tensor_postcompose = cyclic.hom_postcompose, cyclic.tensor_postcompose\n"
        "from fgmod import maps\n"
        "print(hom_postcompose is maps.hom_postcompose, tensor_postcompose is maps.tensor_postcompose)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True True"]
