"""Exact computation with finitely generated modules over Z and Z/n.

The package provides presentations and canonical forms for finitely
generated modules, the Hom/tensor/Ext/Tor functors, torsion and completion
along an ideal with the associated reduced/coreduced membership predicates,
generalized local (co)homology, and an exhaustive verification harness for
the structural identities relating all of these.

The harness, `fgmod.verify`, is loaded lazily: its source is compiled and
run when one of its attributes is first read, so a one-shot computation does
not pay for it.
"""

import importlib.util as _importlib_util
import sys as _sys

from .rings import RingSpec, Ideal, ZZ, canonicalize_ideal, ideal_power, principal
from .linalg import MatrixR, SmithDecomposition, smith_normal_form, solve_linear, kernel_generators
from .modules import (
    Presentation,
    CanonicalForm,
    ModuleMap,
    Submodule,
    canonical_form,
    canonical_presentation,
    iso_test,
    direct_sum,
    quotient_by_ideal,
    ideal_multiple,
    kernel_of_map,
    mult_map,
    submodule_equal,
)
from .functors import hom_module, tensor_module, matlis_dual, free_resolution_prefix, ext, tor
from .adic import (
    StabilizationResult,
    torsion,
    completion,
    torsion_wrt,
    completion_wrt,
    is_reduced,
    is_coreduced,
    is_reduced_wrt,
    is_coreduced_wrt,
    is_in_both_classes,
)
from .cohomology import local_cohomology, local_homology, is_adically_complete
from .errors import FgmodError, NonStabilizing

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo table of the package, for long-lived callers that
    want the memory back; later calls compute their answers again.

    Each loaded `fgmod` module and each class defined there is searched for
    tables.  Nothing here reads an attribute of a lazily registered module:
    module dicts are read with `object.__getattribute__` and values are
    tested by their type, so `fgmod.verify`, until it is first used, has no
    tables and stays unloaded.
    """
    for name, module in list(_sys.modules.items()):
        if name != __name__ and not name.startswith(__name__ + "."):
            continue
        for value in list(object.__getattribute__(module, "__dict__").values()):
            members = vars(value).values() if type(value) is type and value.__module__ == name else (value,)
            for table in members:
                if type(table) is staticmethod:
                    table = table.__func__
                if hasattr(type(table), "cache_clear") and table.__module__ == name:
                    table.cache_clear()


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


# Bound as a package attribute too: `from . import verify` finds it here and
# stays lazy, where a `sys.modules` lookup would read `__spec__` and load it.
verify = _register_lazily(__name__ + ".verify")
