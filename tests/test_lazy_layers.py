"""One-shot queries run only the value path.

The package registers the matrix route (`linalg`, `modules`, `functors`,
`adic`, `cohomology`) and the harness (`verify`) lazily, and parses module
expressions straight to canonical forms, so a query runs none of those
modules and never imports `dataclasses`.  A query on sums of cyclic atoms
does not import `elimination` either; a `coker` atom reads its invariant
factors off `elimination` alone.  No query loads `argparse`: only help and
usage errors build the parser.  Module dicts are read with
`object.__getattribute__`, which does not trigger a load; a module whose
body has run has `__builtins__` in its dict.

Each check of what has run is made in a fresh interpreter, because other
tests load every module into this one.  Every name the package re-exports
and every name in a module's `__all__` must resolve.
"""

import pytest
from fresh_interpreter import python

from fgmod.cli import main

LAZY = ("linalg", "modules", "functors", "adic", "cohomology", "verify")

# a program fragment: prints which lazy modules have run their bodies
RAN = (
    "import sys\n"
    f"lazy = {LAZY!r}\n"
    "def ran():\n"
    "    return [n for n in lazy if '__builtins__' in object.__getattribute__(sys.modules['fgmod.' + n], '__dict__')]\n"
)


def _stdout_lines(program: str) -> list[str]:
    proc = python("-c", program)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _query(*argv: str) -> list[str]:
    return _stdout_lines(
        RAN + "from fgmod.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(code, ran(), 'dataclasses' in sys.modules, 'argparse' in sys.modules)\n"
    )


def test_queries_on_cyclic_atoms_run_no_lazy_module_and_no_dataclasses():
    queries = {
        ("canon", "Z/4"): "Z/4",
        ("tensor", "Z/6 + Z", "Z/4"): "Z/2 + Z/4",
        ("glc", "1", "--ideal", "2", "Z/4", "Z/8"): "Z/4",
        ("check", "reduced-wrt", "--ideal", "2", "Z/4", "Z/8"): "false",
    }
    for argv, answer in queries.items():
        assert _query(*argv) == [answer, "0 [] False False"], argv


def test_a_coker_atom_runs_no_lazy_module_and_no_dataclasses():
    queries = {
        ("canon", "coker[[2,4],[6,8]]"): "Z/2 + Z/4",
        ("hom", "coker[[2,3],[4,5]]", "Z/8"): "Z/2",
        ("glc", "0", "--ring", "Z/8", "--ideal", "2", "coker[[2,0],[0,4]]", "Z/8"): "Z/2 + Z/4",
        ("check", "reduced-wrt", "--ideal", "2", "Z/4", "coker[[-2,12],[6,8]] + coker[]"): "false",
    }
    for argv, answer in queries.items():
        assert _query(*argv) == [answer, "0 [] False False"], argv


def test_only_help_and_usage_errors_load_argparse(capsys):
    # the program prints what `main` prints in process; `-X importtime` adds
    # a line to stderr for each module the process imports
    for argv in (["hom", "--help"], ["hom", "--no-such-option"]):
        proc = python("-X", "importtime", "-m", "fgmod.cli", *argv)
        lines = proc.stderr.splitlines(keepends=True)
        imported = [line.split("|")[-1].strip() for line in lines if line.startswith("import time:")]
        err = "".join(line for line in lines if not line.startswith("import time:"))
        with pytest.raises(SystemExit) as stop:
            main(argv)
        out = capsys.readouterr()
        assert (proc.returncode, proc.stdout, err) == (stop.value.code, out.out, out.err), argv
        assert "argparse" in imported and proc.returncode in (0, 2), argv


def test_only_a_coker_atom_imports_elimination():
    program = (
        "import sys\n"
        "from fgmod.cli import main\n"
        "main({argv!r})\n"
        "print('fgmod.elimination' in sys.modules)\n"
    )
    for argv, answer in ((["tensor", "Z/6 + Z", "Z/4"], "Z/2 + Z/4"), (["canon", "coker[[2]]"], "Z/2")):
        elimination = argv[1].startswith("coker")
        assert _stdout_lines(program.format(argv=argv)) == [answer, str(elimination)], argv


def test_the_ran_probe_sees_a_loaded_module():
    out = _stdout_lines(RAN + "import fgmod\nprint(ran())\nfgmod.functors.hom_module\nprint(ran())\n")
    assert out == ["[]", "['linalg', 'modules', 'functors']"]


def test_every_import_path_gives_one_object():
    out = _stdout_lines(
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
    out = _stdout_lines(
        RAN + "import fgmod\n"
        "try:\n"
        "    fgmod.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "print(hasattr(fgmod, 'no_such_name'), ran())\n"
    )
    assert out == ["AttributeError module 'fgmod' has no attribute 'no_such_name'", "False []"]


def test_clear_caches_loads_nothing():
    out = _stdout_lines(
        RAN + "import fgmod\n"
        "from fgmod.cli import main\n"
        "main(['hom', 'Z/6 + Z', 'Z/4'])\n"
        "fgmod.clear_caches()\n"
        "print(ran(), fgmod.cyclic.hom.cache_info().currsize)\n"
    )
    assert out == ["Z/2 + Z/4", "[] 0"]


def test_a_large_sum_of_atoms_is_answered_without_elimination():
    argv = ["tensor", "Z/6^128 + Z/10^128", "Z/15^128 + Z/4^128"]
    out = _stdout_lines(
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


def test_every_exported_name_resolves():
    # a name dropped from its module but left in `_EXPORTS` or in an
    # `__all__` would fail only when someone first asks for it
    import importlib
    import pkgutil

    import fgmod

    for name, home in fgmod._EXPORTS.items():
        assert getattr(fgmod, name) is getattr(importlib.import_module(f"fgmod.{home}"), name), name
    listed = 0
    for info in pkgutil.iter_modules(fgmod.__path__):
        module = importlib.import_module(f"fgmod.{info.name}")
        names = getattr(module, "__all__", ())
        assert [n for n in names if not hasattr(module, n)] == [], info.name
        listed += bool(names)
    assert listed >= 8
