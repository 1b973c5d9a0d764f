"""The value layer against the matrix routes it replaced, on seeded random
non-diagonal presentations.

Every value `fgmod.cyclic` reads off invariant factors must equal the
canonical form of the same value computed on the raw presentation: Hom and
tensor modules, Ext and Tor from a free resolution (`resolution_reference`),
the torsion submodule with its exponent, and the chain of scaled submodules
d^k N with its exponent, down to where each raises NonStabilizing.  The two
routes of `is_reduced` that used to be checked against each other inside the
function (comparing the kernels of d and d^2, and asking whether the ideal
kills the torsion) are checked here instead.
"""

import random

import pytest
from resolution_reference import ext_by_resolution, tor_by_resolution

from fgmod import cyclic
from fgmod.adic import DEFAULT_KMAX, torsion_submodule
from fgmod.errors import FreePartNotSupported, NonStabilizing, RingMismatch
from fgmod.functors import hom_module, tensor_module
from fgmod.linalg import hstack, spans_include
from fgmod.modules import (
    CanonicalForm,
    Presentation,
    canonical_form,
    direct_sum,
    ideal_multiple,
    kernel_submodule,
    mult_map,
    quotient_by_ideal,
    scaled_submodule,
    submodule_equal,
)
from fgmod.rings import RingSpec, ZZ, principal

RINGS = [ZZ, RingSpec.mod(6), RingSpec.mod(8), RingSpec.mod(12)]
DEGREES = range(4)


def random_coker(rng: random.Random, ring: RingSpec) -> Presentation:
    gens, rels = rng.randint(1, 3), rng.randint(0, 3)
    rows = [[rng.randint(-5, 5) for _ in range(rels)] for _ in range(gens)]
    return Presentation.from_relations(ring, rows) if rels else Presentation.free(ring, gens)


def pairs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        ring = rng.choice(RINGS)
        yield ring, random_coker(rng, ring), random_coker(rng, ring)


def ideals(ring: RingSpec):
    return [principal(ring, d) for d in (0, 1, 2, 3, 4, 6)]


def power(ring: RingSpec, d: int, k: int) -> int:
    return ring.reduce(d**k)


def matrix_torsion_exponent(N: Presentation, d: int, kmax: int) -> int:
    """Least k with ker d^k = ker d^(k+1), by kernel submodules."""
    for k in range(kmax + 1):
        low = kernel_submodule(mult_map(N, power(N.ring, d, k)))
        high = kernel_submodule(mult_map(N, power(N.ring, d, k + 1)))
        if low.contains(high):
            return k
    raise NonStabilizing(f"kernel chain of ({d})", kmax)


def matrix_completion_exponent(N: Presentation, d: int, kmax: int) -> int:
    """Least k with d^k N = d^(k+1) N, by the chain of scaled submodules."""
    for k in range(kmax + 1):
        low = scaled_submodule(N, power(N.ring, d, k + 1))
        if spans_include(hstack(low.columns, N.rels), scaled_submodule(N, power(N.ring, d, k)).columns):
            return k
    raise NonStabilizing(f"chain of ideal multiples of ({d})", kmax)


def test_hom_tensor_ext_tor_match_the_matrix_routes():
    for ring, M, N in pairs(seed=6001, count=300):
        cm, cn = canonical_form(M), canonical_form(N)
        assert cyclic.hom(cm, cn) == canonical_form(hom_module(M, N)), (M, N)
        assert cyclic.tensor(cm, cn) == canonical_form(tensor_module(M, N)), (M, N)
        for i in DEGREES:
            assert cyclic.ext(i, cm, cn) == canonical_form(ext_by_resolution(i, M, N)), (i, M, N)
            assert cyclic.tor(i, cm, cn) == canonical_form(tor_by_resolution(i, M, N)), (i, M, N)


def test_torsion_and_completion_match_the_chains():
    rng = random.Random(6002)
    for _ in range(250):
        ring = rng.choice(RINGS)
        N = random_coker(rng, ring)
        C = canonical_form(N)
        for a in ideals(ring):
            d = a.canonical
            sub, k = torsion_submodule(N, a)
            assert cyclic.torsion(C, d, DEFAULT_KMAX) == (canonical_form(sub.to_presentation()), k)
            assert k == matrix_torsion_exponent(N, d, DEFAULT_KMAX)
            for kmax in (0, 1, 3):
                try:
                    want = matrix_completion_exponent(N, d, kmax)
                except NonStabilizing as exc:
                    with pytest.raises(NonStabilizing) as got:
                        cyclic.completion(C, d, kmax)
                    assert str(got.value) == str(exc)
                    continue
                value, k = cyclic.completion(C, d, kmax)
                assert k == want
                assert value == canonical_form(quotient_by_ideal(N, principal(ring, power(ring, d, k))))


def test_torsion_past_kmax_raises_like_the_kernel_chain():
    C = canonical_form(Presentation.cyclic(ZZ, 2**10))
    assert cyclic.torsion(C, 2, 10) == (C, 10)
    with pytest.raises(NonStabilizing, match=r"kernel chain of \(2\) did not stabilize within 9"):
        cyclic.torsion(C, 2, 9)
    with pytest.raises(NonStabilizing):
        matrix_torsion_exponent(Presentation.cyclic(ZZ, 2**10), 2, 9)


def test_predicates_match_both_former_routes():
    rng = random.Random(6003)
    for _ in range(250):
        ring = rng.choice(RINGS)
        N = random_coker(rng, ring)
        C = canonical_form(N)
        for a in ideals(ring):
            d = a.canonical
            by_kernels = submodule_equal(
                kernel_submodule(mult_map(N, d)), kernel_submodule(mult_map(N, power(ring, d, 2)))
            )
            gam = torsion_submodule(N, a)[0].to_presentation()
            by_obstruction = canonical_form(ideal_multiple(gam, a)[0]).is_trivial
            assert cyclic.is_reduced(C, d) == by_kernels == by_obstruction, (N, d)
            by_multiples = submodule_equal(scaled_submodule(N, d), scaled_submodule(N, power(ring, d, 2)))
            assert cyclic.is_coreduced(C, d) == by_multiples, (N, d)


def test_quotient_sum_and_dual_match_presentations():
    for ring, M, N in pairs(seed=6004, count=60):
        cm, cn = canonical_form(M), canonical_form(N)
        assert cyclic.direct_sum([cm, cn]) == canonical_form(direct_sum(ring, [M, N]))
        for a in ideals(ring):
            assert cyclic.quotient(cm, a.canonical) == canonical_form(quotient_by_ideal(M, a))
        if ring.is_integers and cm.free_rank:
            with pytest.raises(FreePartNotSupported):
                cyclic.dual(cm)
        elif not ring.is_integers:
            # the ring is its own injective cogenerator
            assert cyclic.dual(cm) == canonical_form(hom_module(M, Presentation.free(ring, 1)))


def test_invariant_factors_are_merged_without_factoring():
    rng = random.Random(6005)
    big = [2**61 - 1, 10**40 + 1, 3**50, 2**70, 6**30]
    for _ in range(200):
        orders = [rng.choice([2, 3, 4, 6, 8, 9, 12, 18, 30, 36] + big) for _ in range(rng.randint(1, 6))]
        diag = Presentation.from_relations(ZZ, [[m if i == j else 0 for j in range(len(orders))] for i, m in enumerate(orders)])
        got = cyclic.direct_sum([canonical_form(Presentation.cyclic(ZZ, m)) for m in orders])
        assert got == canonical_form(diag), orders


def test_moduli_of_thousands_of_digits():
    m = 10**3000 + 7
    C = CanonicalForm(ZZ, (m, 2 * m), 0)
    assert cyclic.hom(C, C).torsion_factors == (m, m, m, 2 * m)
    assert cyclic.tensor(C, CanonicalForm(ZZ, (4,), 0)).torsion_factors == (2,)
    assert cyclic.is_reduced(C, 2) and not cyclic.is_coreduced(CanonicalForm(ZZ, (), 1), m)


def test_operands_over_different_rings_are_rejected():
    a = canonical_form(Presentation.cyclic(ZZ, 2))
    b = canonical_form(Presentation.cyclic(RingSpec.mod(6), 2))
    for value in (cyclic.hom, cyclic.tensor):
        with pytest.raises(RingMismatch):
            value(a, b)
    with pytest.raises(RingMismatch):
        cyclic.ext(1, a, b)
    with pytest.raises(RingMismatch):
        cyclic.hom_postcompose(a, a, b, ((1,),))
    with pytest.raises(RingMismatch):
        cyclic.direct_sum([a, b])
    with pytest.raises(ValueError):
        cyclic.tor(-1, a, a)


def test_every_memo_table_is_bounded():
    tables = [f for f in vars(cyclic).values() if hasattr(f, "cache_info")]
    assert tables and all(f.cache_info().maxsize for f in tables)
