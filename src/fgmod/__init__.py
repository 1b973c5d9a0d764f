"""Exact computation with finitely generated modules over Z and Z/n.

The package provides presentations and canonical forms for finitely
generated modules, the Hom/tensor/Ext/Tor functors, torsion and completion
along an ideal with the associated reduced/coreduced membership predicates,
generalized local (co)homology, and an exhaustive verification harness for
the structural identities relating all of these.

A one-shot query runs only `errors`, `rings`, `cyclic`, `grammar` and `cli`,
and `elimination` for a `coker` atom: its operands parse straight to
canonical forms, and `cyclic` reads the answer off their invariant factors.
The matrix route (`linalg`, `modules`, `functors`, `adic`, `cohomology`)
and the harness (`verify`) are loaded lazily: each module's source is
compiled and run when one of its attributes is first read, the matrix
route's by a library caller and the harness by `fgmod verify`.  A `coker`
atom and the harness read their Smith forms off the plain `elimination`
module and leave the matrix route unrun.
They are registered in `sys.modules` from the start, so that every way of
importing one yields the same module object and tools that look a module up
there by name find it.  The names this package re-exports from them, such
as `fgmod.MatrixR` or `from fgmod import hom_module`, resolve on first use.
"""

import importlib as _importlib
import importlib.util as _importlib_util
import sys as _sys


def _register_lazily(name: str):
    """Put a lazily loading module object for `name` in `sys.modules`.

    Registering here, before anything else can import the submodule, keeps
    one module object for `import fgmod.verify`, `from fgmod.verify import
    ...` and `from fgmod import verify` alike.
    """
    spec = _importlib_util.find_spec(name)
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Bound as package attributes too: `from . import verify` finds them here and
# stays lazy, where a `sys.modules` lookup would read `__spec__` and load it.
linalg = _register_lazily(__name__ + ".linalg")
modules = _register_lazily(__name__ + ".modules")
functors = _register_lazily(__name__ + ".functors")
adic = _register_lazily(__name__ + ".adic")
cohomology = _register_lazily(__name__ + ".cohomology")
verify = _register_lazily(__name__ + ".verify")

from .rings import RingSpec, Ideal, ZZ, canonicalize_ideal, ideal_power, principal  # noqa: E402
from .errors import FgmodError, NonStabilizing  # noqa: E402

__version__ = "0.1.0"

# re-exported names by the module that defines them; read by `__getattr__`
_EXPORTS = {
    name: home
    for home, names in {
        "cyclic": "CanonicalForm",
        "linalg": "MatrixR SmithDecomposition smith_normal_form solve_linear kernel_generators",
        "modules": "Presentation ModuleMap Submodule canonical_form canonical_presentation iso_test direct_sum"
        " quotient_by_ideal ideal_multiple kernel_of_map mult_map submodule_equal",
        "functors": "hom_module tensor_module matlis_dual free_resolution_prefix ext tor",
        "adic": "StabilizationResult torsion completion torsion_wrt completion_wrt is_reduced is_coreduced"
        " is_reduced_wrt is_coreduced_wrt is_in_both_classes",
        "cohomology": "local_cohomology local_homology is_adically_complete",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


def clear_caches() -> None:
    """Empty every memo table of the package, for long-lived callers that
    want the memory back; later calls compute their answers again.

    Every table is a module-level function, so each loaded `fgmod` module's
    own functions are searched.  Nothing here reads an attribute of a lazily
    registered module: module dicts are read with `object.__getattribute__`
    and values are tested by their type, so a lazy module, until it is first
    used, has no tables and stays unloaded.
    """
    for name, module in list(_sys.modules.items()):
        if name != __name__ and not name.startswith(__name__ + "."):
            continue
        for value in list(object.__getattribute__(module, "__dict__").values()):
            if hasattr(type(value), "cache_clear") and value.__module__ == name:
                value.cache_clear()
