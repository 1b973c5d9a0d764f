"""One-shot queries run only the value path.

The package registers the matrix route (`linalg`, `modules`, `functors`,
`adic`, `cohomology`) and the harness (`verify`) lazily, and parses module
expressions straight to canonical forms, so a query runs none of those
modules and never imports `dataclasses`.  A query on sums of cyclic atoms
does not import `elimination` either; a `coker` atom reads its invariant
factors off `elimination` alone.  Module dicts are read with
`object.__getattribute__`, which does not trigger a load; a module whose
body has run has `__builtins__` in its dict.

Each check runs in a fresh interpreter, because other tests load every
module into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAZY = ("linalg", "modules", "functors", "adic", "cohomology", "verify")

# a program fragment: prints which lazy modules have run their bodies
RAN = (
    "import sys\n"
    f"lazy = {LAZY!r}\n"
    "def ran():\n"
    "    return [n for n in lazy if '__builtins__' in object.__getattribute__(sys.modules['fgmod.' + n], '__dict__')]\n"
)


def _python(program: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", program], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _query(*argv: str) -> list[str]:
    return _python(
        RAN + "from fgmod.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(code, ran(), 'dataclasses' in sys.modules)\n"
    )


def test_queries_on_cyclic_atoms_run_no_lazy_module_and_no_dataclasses():
    queries = {
        ("canon", "Z/4"): "Z/4",
        ("tensor", "Z/6 + Z", "Z/4"): "Z/2 + Z/4",
        ("glc", "1", "--ideal", "2", "Z/4", "Z/8"): "Z/4",
        ("check", "reduced-wrt", "--ideal", "2", "Z/4", "Z/8"): "false",
    }
    for argv, answer in queries.items():
        assert _query(*argv) == [answer, "0 [] False"], argv


def test_a_coker_atom_runs_no_lazy_module_and_no_dataclasses():
    queries = {
        ("canon", "coker[[2,4],[6,8]]"): "Z/2 + Z/4",
        ("hom", "coker[[2,3],[4,5]]", "Z/8"): "Z/2",
        ("glc", "0", "--ring", "Z/8", "--ideal", "2", "coker[[2,0],[0,4]]", "Z/8"): "Z/2 + Z/4",
        ("check", "reduced-wrt", "--ideal", "2", "Z/4", "coker[[-2,12],[6,8]] + coker[]"): "false",
    }
    for argv, answer in queries.items():
        assert _query(*argv) == [answer, "0 [] False"], argv


def test_only_a_coker_atom_imports_elimination():
    program = (
        "import sys\n"
        "from fgmod.cli import main\n"
        "main({argv!r})\n"
        "print('fgmod.elimination' in sys.modules)\n"
    )
    for argv, answer in ((["tensor", "Z/6 + Z", "Z/4"], "Z/2 + Z/4"), (["canon", "coker[[2]]"], "Z/2")):
        elimination = argv[1].startswith("coker")
        assert _python(program.format(argv=argv)) == [answer, str(elimination)], argv


def test_the_ran_probe_sees_a_loaded_module():
    out = _python(RAN + "import fgmod\nprint(ran())\nfgmod.functors.hom_module\nprint(ran())\n")
    assert out == ["[]", "['linalg', 'modules', 'functors']"]


def test_every_import_path_gives_one_object():
    out = _python(
        "import sys\n"
        "import fgmod\n"
        "registered = {n: sys.modules['fgmod.' + n] for n in ('linalg', 'modules', 'functors')}\n"
        "import fgmod.functors\n"
        "from fgmod import hom_module\n"
        "from fgmod.functors import hom_module as direct\n"
        "print(fgmod.functors is registered['functors'], hom_module is direct)\n"
        "print(fgmod.MatrixR is registered['linalg'].MatrixR, fgmod.modules is registered['modules'])\n"
        "print(fgmod.modules.CanonicalForm is fgmod.cyclic.CanonicalForm is fgmod.CanonicalForm)\n"
        "print(all(sys.modules['fgmod.' + n] is m for n, m in registered.items()))\n"
    )
    assert out == ["True True", "True True", "True", "True"]


def test_an_unknown_package_attribute_raises_attribute_error():
    out = _python(
        RAN + "import fgmod\n"
        "try:\n"
        "    fgmod.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "print(hasattr(fgmod, 'no_such_name'), ran())\n"
    )
    assert out == ["AttributeError module 'fgmod' has no attribute 'no_such_name'", "False []"]


def test_clear_caches_loads_nothing():
    out = _python(
        RAN + "import fgmod\n"
        "from fgmod.cli import main\n"
        "main(['hom', 'Z/6 + Z', 'Z/4'])\n"
        "fgmod.clear_caches()\n"
        "print(ran(), fgmod.cyclic.hom.cache_info().currsize)\n"
    )
    assert out == ["Z/2 + Z/4", "[] 0"]


def test_a_large_sum_of_atoms_is_answered_without_elimination():
    argv = ["tensor", "Z/6^128 + Z/10^128", "Z/15^128 + Z/4^128"]
    out = _python(
        RAN + "from fgmod import cyclic\n"
        "from fgmod.cli import main\n"
        f"main({argv!r})\n"
        "print(ran())\n"
        "from fgmod.grammar import format_canonical\n"
        "from fgmod.rings import ZZ\n"
        "M = cyclic.CanonicalForm(ZZ, (2,) * 128 + (30,) * 128, 0)\n"
        "N = cyclic.CanonicalForm(ZZ, (60,) * 128, 0)\n"
        "print(format_canonical(cyclic.tensor(M, N)))\n"
    )
    assert out[1] == "[]"
    assert out[0] == out[2]
    assert out[0].count("Z/30") == 128 * 128
