"""The value route of the two-argument functions and of local (co)homology.

`cyclic.local_cohomology` and `cyclic.local_homology` must agree with the
matrix route they replaced (`cohomology_reference`) on seeded random
non-diagonal presentations over Z, Z/6, Z/8 and Z/12, in degrees 0-3,
wherever that route answers.  So must the harness's graded value
`verify._collapsed`, one entry per degree the claims compare, off the
(co)reduced class relative to M, where it is None exactly where that route
raises; on the class it is Ext (Tor) of M/aM by a free resolution.  The
four `cyclic.*_wrt` functions must agree with the compositions they
replaced, and with the torsion, quotient chain and kernel comparisons on
the Hom and tensor presentations themselves.
"""

import pytest
from cohomology_reference import local_cohomology_by_chain, local_homology_by_chain
from resolution_reference import ext_by_resolution, tor_by_resolution
from test_cyclic import DEGREES, ideals, pairs, power

from fgmod import cyclic, verify
from fgmod.adic import power_quotient, torsion_submodule
from fgmod.cohomology import local_cohomology, local_homology
from fgmod.errors import NonStabilizing
from fgmod.functors import hom_module, tensor_module
from fgmod.modules import (
    canonical_form, kernel_submodule, mult_map, quotient_by_ideal, scaled_submodule, submodule_equal,
)


def test_local_cohomology_and_homology_match_the_chain_route():
    answered = 0
    for ring, M, N in pairs(seed=7001, count=60):
        cm, cn = canonical_form(M), canonical_form(N)
        degrees = verify._degrees(ring)
        for a in ideals(ring):
            d = a.canonical
            for by_chain, value, public, side, derived in (
                (local_cohomology_by_chain, cyclic.local_cohomology, local_cohomology, verify._RED, ext_by_resolution),
                (local_homology_by_chain, cyclic.local_homology, local_homology, verify._COR, tor_by_resolution),
            ):
                harness = verify._collapsed(side, cm, cn, d)
                in_class = side.in_class(cm, cn, d)
                if in_class:
                    mq = quotient_by_ideal(M, a)
                    assert harness == tuple(canonical_form(derived(i, mq, N)) for i in degrees), (M, N, a)
                else:
                    assert harness is None or len(harness) == len(degrees), (M, N, a)
                for i in DEGREES:
                    try:
                        want = canonical_form(by_chain(i, M, N, a))
                    except NonStabilizing:
                        assert in_class or harness is None, (i, M, N, a)
                        continue
                    answered += 1
                    assert value(i, cm, cn, d) == want, (i, M, N, a)
                    assert canonical_form(public(i, M, N, a)) == want, (i, M, N, a)
                    if not in_class and i in degrees:
                        assert harness is not None and harness[i] == want, (i, M, N, a)
    assert answered > 1000


def test_two_argument_functions_match_their_compositions():
    for ring, M, N in pairs(seed=7003, count=80):
        cm, cn = canonical_form(M), canonical_form(N)
        H, T = hom_module(M, N), tensor_module(M, N)
        for a in ideals(ring):
            d = a.canonical
            hom, tensor = cyclic.hom(cm, cn), cyclic.tensor(cm, cn)
            gamma = cyclic.torsion_wrt(cm, cn, d)
            assert gamma == cyclic.torsion(hom, d)[0]
            assert gamma == canonical_form(torsion_submodule(H, a)[0].to_presentation()), (M, N, d)
            try:
                lam, k = cyclic.completion(tensor, d)
            except NonStabilizing:
                with pytest.raises(NonStabilizing):
                    cyclic.completion_wrt(cm, cn, d)
            else:
                assert cyclic.completion_wrt(cm, cn, d) == lam
                assert lam == canonical_form(power_quotient(T, a, k)), (M, N, d)

            reduced = cyclic.is_reduced_wrt(cm, cn, d)
            assert reduced == cyclic.is_reduced(hom, d)
            assert reduced == submodule_equal(
                kernel_submodule(mult_map(H, d)), kernel_submodule(mult_map(H, power(ring, d, 2)))
            ), (M, N, d)
            coreduced = cyclic.is_coreduced_wrt(cm, cn, d)
            assert coreduced == cyclic.is_coreduced(tensor, d)
            assert coreduced == submodule_equal(scaled_submodule(T, d), scaled_submodule(T, power(ring, d, 2))), (M, N, d)
