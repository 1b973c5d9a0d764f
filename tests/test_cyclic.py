"""The value layer against the matrix routes it replaced, on seeded random
non-diagonal presentations.

Every value `fgmod.cyclic` reads off invariant factors must equal the
canonical form of the same value computed on the raw presentation: Hom and
tensor modules, Ext and Tor from a free resolution (`resolution_reference`),
the torsion submodule with its exponent, and the chain of scaled submodules
d^k N with its exponent.  Completion raises NonStabilizing exactly where the
chain of scaled submodules never settles: on a free Z summand along d not
in {0, +-1}.  The closed-form exponent of a cyclic summand is checked
against the step-by-step gcd chain it replaced.  The two
routes of `is_reduced` that used to be checked against each other inside the
function (comparing the kernels of d and d^2, and asking whether the ideal
kills the torsion) are checked here instead.
"""

import random
from math import gcd

import pytest
from resolution_reference import ext_by_resolution, tor_by_resolution

from fgmod import cyclic
from fgmod.adic import torsion_submodule
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


# the most steps the matrix references take: every chain on the random
# presentations below settles well within it
KMAX = 64


def matrix_torsion_exponent(N: Presentation, d: int, kmax: int = KMAX) -> int | None:
    """Least k <= kmax with ker d^k = ker d^(k+1), by kernel submodules;
    None past kmax."""
    for k in range(kmax + 1):
        low = kernel_submodule(mult_map(N, power(N.ring, d, k)))
        high = kernel_submodule(mult_map(N, power(N.ring, d, k + 1)))
        if low.contains(high):
            return k
    return None


def matrix_completion_exponent(N: Presentation, d: int, kmax: int = KMAX) -> int | None:
    """Least k <= kmax with d^k N = d^(k+1) N, by the chain of scaled
    submodules; None past kmax."""
    for k in range(kmax + 1):
        low = scaled_submodule(N, power(N.ring, d, k + 1))
        if spans_include(hstack(low.columns, N.rels), scaled_submodule(N, power(N.ring, d, k)).columns):
            return k
    return None


def settled_by_steps(d: int, m: int) -> tuple[int, int]:
    """gcd(d^k, m) and the least k with gcd(d^k, m) = gcd(d^(k+1), m), one
    gcd per step."""
    g, k = 1, 0
    while (nxt := gcd(g * d, m)) != g:
        g, k = nxt, k + 1
    return g, k


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
            assert cyclic.torsion(C, d) == (canonical_form(sub.to_presentation()), k)
            assert k == matrix_torsion_exponent(N, d)
            want = matrix_completion_exponent(N, d)
            if C.free_rank and abs(d) > 1:
                assert want is None, (N, d)
                with pytest.raises(NonStabilizing, match="free summand"):
                    cyclic.completion(C, d)
                continue
            value, k = cyclic.completion(C, d)
            assert k == want, (N, d)
            assert value == canonical_form(quotient_by_ideal(N, principal(ring, power(ring, d, k))))


def test_torsion_settles_at_the_kernel_chain_exponent():
    for e in (10, 70):
        N = Presentation.cyclic(ZZ, 2**e)
        C = canonical_form(N)
        assert cyclic.torsion(C, 2) == cyclic.completion(C, 2) == (C, e)
        assert matrix_torsion_exponent(N, 2, e) == e and matrix_torsion_exponent(N, 2, e - 1) is None


def test_closed_form_exponent_matches_the_step_chain():
    rng = random.Random(6006)
    for _ in range(20000):
        m = rng.choice((rng.randint(2, 64), rng.randint(2, 10**9), 2 ** rng.randint(1, 90) * 3 ** rng.randint(0, 40)))
        # 0, the units, multiples of m, and small, large and negative d
        small, large, sixes = rng.randint(-64, 64), rng.randint(-(10**9), 10**9), -(6 ** rng.randint(0, 9))
        d = rng.choice((0, 1, -1, m, -m, 3 * m, small, large, sixes))
        assert cyclic._settled(d, m) == settled_by_steps(d, m), (d, m)


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
    for negative in (cyclic.ext, cyclic.tor):
        with pytest.raises(ValueError):
            negative(-1, a, a)
    for negative in (cyclic.local_cohomology, cyclic.local_homology):
        with pytest.raises(ValueError):
            negative(-1, a, a, 2)


def test_every_memo_table_is_bounded():
    tables = [f for f in vars(cyclic).values() if hasattr(f, "cache_info")]
    assert tables and all(f.cache_info().maxsize for f in tables)
