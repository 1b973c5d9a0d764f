"""The torsion submodule and the exactness checks ask submodules directly.

`adic.torsion_submodule` reads its exponent k from `cyclic.torsion` and
builds one kernel, that of d^k; `matrix_torsion_exponent` in
`test_cyclic` stays the independent reference for k.  The exactness and
equivalence claims of `fgmod verify` test kernels, images and scaled
submodules for zero and equality, and build no inclusion map: the
sequences they walk carry theirs as integer matrices on cyclic summands.
"""

import json
from pathlib import Path

import pytest
from test_cyclic import matrix_torsion_exponent

import fgmod
from fgmod import adic, verify
from fgmod.adic import torsion_submodule
from fgmod.modules import Presentation, Submodule, kernel_submodule, mult_map
from fgmod.rings import RingSpec, ZZ, principal

GRID = Path(__file__).parent / "golden" / "verify_small_grid.json"
CLAIMS = ["gamma-left-exact", "lambda-right-exact", "equiv-reduced-wrt", "equiv-coreduced-wrt"]


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return kernel_submodule(f)

    monkeypatch.setattr(adic, "kernel_submodule", counted)
    return calls


def test_torsion_submodule_builds_one_kernel(kernel_calls):
    N = Presentation.cyclic(ZZ, 2**10)
    sub, k = torsion_submodule(N, principal(ZZ, 2))
    assert len(kernel_calls) == 1
    assert k == 10 == matrix_torsion_exponent(N, 2)
    assert sub.columns == kernel_submodule(mult_map(N, 2**10)).columns


def test_torsion_submodule_settles_a_long_kernel_chain(kernel_calls):
    # no step budget: Z/2^70 settles at k = 70, still with one kernel
    N = Presentation.cyclic(ZZ, 2**70)
    sub, k = torsion_submodule(N, principal(ZZ, 2))
    assert len(kernel_calls) == 1
    assert k == 70 == matrix_torsion_exponent(N, 2, 70)
    assert sub.columns == kernel_submodule(mult_map(N, 2**70)).columns


def test_torsion_submodule_at_exponent_zero_builds_no_kernel(kernel_calls):
    for ring, n, d in ((ZZ, 9, 2), (RingSpec.mod(6), 3, 2), (ZZ, 0, 5)):
        N = Presentation.cyclic(ring, n)
        sub, k = torsion_submodule(N, principal(ring, d))
        assert k == 0 == matrix_torsion_exponent(N, d)
        assert sub.columns.cols == 0 and sub.ambient == N
    assert kernel_calls == []


def test_exactness_and_equivalence_include_only_the_sequences(monkeypatch):
    grids = [verify.grid_from_dict(d) for d in json.loads(GRID.read_text())]
    included = []
    inclusion_map = Submodule.inclusion_map

    def recorded(self):
        included.append(self)
        return inclusion_map(self)

    monkeypatch.setattr(Submodule, "inclusion_map", recorded)
    fgmod.clear_caches()
    suite = verify.run_suite(grids, CLAIMS)
    assert suite.all_expected
    assert included == []
