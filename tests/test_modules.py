import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fgmod import adic, cohomology, functors
from fgmod.errors import FreePartNotSupported, NonStabilizing, RingMismatch
from fgmod.linalg import MatrixR, determinant, from_columns
from fgmod.modules import (
    Presentation,
    Submodule,
    canonical_form,
    canonicalize,
    direct_sum,
    express_in_span,
    ideal_multiple,
    identity_map,
    iso_test,
    is_zero_module,
    kernel_of_map,
    module_order,
    mult_map,
    quotient_by_ideal,
    scaled_submodule,
    submodule_equal,
)
from fgmod.oracle import invariant_factors_from_cyclic
from fgmod.rings import RingSpec, ZZ, principal


Z2 = Presentation.cyclic(ZZ, 2)
Z3 = Presentation.cyclic(ZZ, 3)
Z4 = Presentation.cyclic(ZZ, 4)
Z6 = Presentation.cyclic(ZZ, 6)
R1 = Presentation.free(ZZ, 1)
I2 = principal(ZZ, 2)


def test_canonical_form_examples():
    assert canonical_form(Z4).torsion_factors == (4,)
    assert canonical_form(Presentation.free(ZZ, 2)).free_rank == 2
    # oracle for coker[[2,4],[6,8]]: order = |det| = 8, smallest factor = gcd of entries = 2
    assert abs(2 * 8 - 4 * 6) == 8
    P = Presentation.from_relations(ZZ, [[2, 4], [6, 8]])
    cf = canonical_form(P)
    assert cf.torsion_factors == (2, 4) and cf.free_rank == 0


def test_canonical_form_order_matches_determinant():
    # for a square full-rank relation matrix over Z the group order is |det|
    rng = random.Random(11)
    hits = 0
    while hits < 25:
        g = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(g)]
        A = MatrixR.from_rows(ZZ, rows)
        det = determinant(A)
        if det == 0:
            continue
        hits += 1
        assert module_order(Presentation(ZZ, g, A)) == abs(det)


def brute_order_modular(P):
    """Order of a presented Z/n-module by exhaustive coset counting."""
    n = P.ring.modulus
    span = set()
    for coeffs in itertools.product(range(n), repeat=P.rels.cols):
        v = tuple(
            sum(c * P.rels.entries[i][j] for j, c in enumerate(coeffs)) % n
            for i in range(P.gens)
        )
        span.add(v)
    return n**P.gens // len(span)


def test_canonical_form_order_matches_enumeration_modular():
    rng = random.Random(13)
    for n in (4, 6):
        ring = RingSpec.mod(n)
        for _ in range(12):
            g = rng.randint(1, 2)
            c = rng.randint(0, 3)
            P = Presentation(
                ring, g, MatrixR.from_rows(ring, [[rng.randrange(n) for _ in range(c)] for _ in range(g)])
                if g else MatrixR(ring, 0, c, ()),
            )
            assert module_order(P) == brute_order_modular(P)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_form_invariant_under_shuffles_and_redundancy(seed):
    rng = random.Random(seed)
    g, c = rng.randint(1, 3), rng.randint(1, 3)
    rows = [[rng.randint(-8, 8) for _ in range(c)] for _ in range(g)]
    P = Presentation.from_relations(ZZ, rows)
    base = canonical_form(P)

    perm_rows = rows[:]
    rng.shuffle(perm_rows)
    cols = list(range(c))
    rng.shuffle(cols)
    shuffled = [[r[j] for j in cols] for r in perm_rows]
    assert canonical_form(Presentation.from_relations(ZZ, shuffled)) == base

    # adding a redundant relation (a combination of existing columns) changes nothing
    coeffs = [rng.randint(-2, 2) for _ in range(c)]
    extra = [sum(coeffs[j] * rows[i][j] for j in range(c)) for i in range(g)]
    padded = [rows[i] + [extra[i]] for i in range(g)]
    assert canonical_form(Presentation.from_relations(ZZ, padded)) == base


def test_iso_test_examples():
    assert iso_test(direct_sum(ZZ, [Z2, Z4]), direct_sum(ZZ, [Z4, Z2]))
    assert not iso_test(Z4, direct_sum(ZZ, [Z2, Z2]))
    assert iso_test(R1, R1)
    with pytest.raises(RingMismatch):
        iso_test(R1, Presentation.free(RingSpec.mod(4), 1))


def test_iso_test_is_an_equivalence_on_samples():
    mods = [Z2, Z3, Z4, direct_sum(ZZ, [Z2, Z2]), direct_sum(ZZ, [Z2, Z4]), R1]
    for a in mods:
        assert iso_test(a, a)
        for b in mods:
            assert iso_test(a, b) == iso_test(b, a)
            for c in mods:
                if iso_test(a, b) and iso_test(b, c):
                    assert iso_test(a, c)


def test_direct_sum_examples():
    assert is_zero_module(direct_sum(ZZ, []))
    # oracle: gcd(2,3)=1 so the sum of cyclic orders 2 and 3 is cyclic of order 6
    assert invariant_factors_from_cyclic([2, 3]) == (6,)
    assert canonical_form(direct_sum(ZZ, [Z2, Z3])).torsion_factors == (6,)
    s = canonical_form(direct_sum(ZZ, [R1, Z2]))
    assert s.free_rank == 1 and s.torsion_factors == (2,)


def test_quotient_by_ideal_examples():
    assert canonical_form(quotient_by_ideal(R1, I2)).torsion_factors == (2,)
    # oracle: Z/4 / 2*(Z/4) has exactly the cosets of {0,2}, so order 2
    assert len({0, 2}) == 2 and 4 // 2 == 2
    assert module_order(quotient_by_ideal(Z4, I2)) == 2
    assert is_zero_module(quotient_by_ideal(Z4, principal(ZZ, 1)))


def test_quotient_by_ideal_idempotent_up_to_iso():
    for P in (Z4, Z6, direct_sum(ZZ, [R1, Z4])):
        for d in (2, 3, 4):
            a = principal(ZZ, d)
            once = quotient_by_ideal(P, a)
            twice = quotient_by_ideal(once, a)
            assert iso_test(once, twice)


def test_ideal_multiple_examples():
    sub, incl = ideal_multiple(Z4, I2)
    assert module_order(sub) == 2  # 2*(Z/4) = {0, 2}
    assert incl.target == Z4
    z, _ = ideal_multiple(Z6, principal(ZZ, 0))
    assert is_zero_module(z)
    # oracle: 2*(Z/6) = {0, 2, 4}, three elements
    assert sorted({(2 * x) % 6 for x in range(6)}) == [0, 2, 4]
    sub6, _ = ideal_multiple(Z6, I2)
    assert canonical_form(sub6).torsion_factors == (3,)


def test_kernel_of_map_examples():
    k, _ = kernel_of_map(mult_map(Z4, 0))
    assert iso_test(k, Z4)
    # oracle: doubling on Z/4 kills {0, 2}
    assert [x for x in range(4) if (2 * x) % 4 == 0] == [0, 2]
    k2, incl = kernel_of_map(mult_map(Z4, 2))
    assert module_order(k2) == 2
    assert incl.target == Z4
    k3, _ = kernel_of_map(identity_map(Z4))
    assert is_zero_module(k3)


def test_mult_map_examples():
    assert mult_map(Z4, 1).matrix.entries == ((1,),)
    assert mult_map(Z4, 0).is_zero_map()
    img = mult_map(Z4, 2).image()
    assert module_order(img.to_presentation()) == 2


def test_express_in_span_writes_each_vector_or_answers_none():
    # in Z modulo 6Z the column 4 spans 2Z: 2 = 4 * (-1) + 6, but 1 is outside
    columns, rels = MatrixR(ZZ, 1, 1, ((4,),)), MatrixR(ZZ, 1, 1, ((6,),))
    coeffs = express_in_span(columns, rels, MatrixR(ZZ, 1, 2, ((2, 8),)))
    assert coeffs.rows == 1 and coeffs.cols == 2
    assert all((4 * c - v) % 6 == 0 for c, v in zip(coeffs.entries[0], (2, 8)))
    assert express_in_span(columns, rels, MatrixR(ZZ, 1, 2, ((2, 1),))) is None
    # over Z/8 the column 2 spans 2Z/8, which holds 6 but not 3
    ring = RingSpec.mod(8)
    columns, rels = MatrixR(ring, 1, 1, ((2,),)), MatrixR(ring, 1, 0, ((),))
    assert express_in_span(columns, rels, MatrixR(ring, 1, 1, ((6,),))) is not None
    assert express_in_span(columns, rels, MatrixR(ring, 1, 1, ((3,),))) is None


def test_submodule_equal_examples():
    s = scaled_submodule(Z4, 2)
    assert submodule_equal(s, s)
    # 2*(Z/4) is nonzero but 4*(Z/4) is zero
    assert not submodule_equal(scaled_submodule(Z4, 2), scaled_submodule(Z4, 4))
    two_gens = Submodule(Z6, from_columns(ZZ, [(2,), (4,)], 1))
    assert submodule_equal(scaled_submodule(Z6, 2), two_gens)


def test_ill_defined_map_is_rejected_at_construction():
    from fgmod.modules import ModuleMap

    # sending the generator of Z/4 to the generator of Z/3 does not respect 4g = 0
    with pytest.raises(ValueError):
        ModuleMap(Z4, Z3, MatrixR.from_rows(ZZ, [[1]]))
    # the legal variant: the zero map
    ModuleMap(Z4, Z3, MatrixR.from_rows(ZZ, [[0]]))


def test_zero_module_is_accepted_everywhere():
    zero = Presentation.zero(ZZ)
    assert is_zero_module(quotient_by_ideal(zero, I2))
    assert is_zero_module(ideal_multiple(zero, I2)[0])
    assert is_zero_module(kernel_of_map(identity_map(zero))[0])
    assert is_zero_module(canonicalize(zero))


# every function of the presentation route that takes an ideal, on one
# module N (passed as M too where it takes two)
IDEAL_TAKERS = {
    "quotient_by_ideal": quotient_by_ideal,
    "ideal_multiple": ideal_multiple,
    "torsion_submodule": adic.torsion_submodule,
    "torsion": adic.torsion,
    "completion_exponent": adic.completion_exponent,
    "power_quotient": lambda N, a: adic.power_quotient(N, a, 2),
    "completion": adic.completion,
    "torsion_wrt": lambda N, a: adic.torsion_wrt(N, N, a),
    "completion_wrt": lambda N, a: adic.completion_wrt(N, N, a),
    "is_reduced": adic.is_reduced,
    "is_coreduced": adic.is_coreduced,
    "is_reduced_wrt": lambda N, a: adic.is_reduced_wrt(N, N, a),
    "is_coreduced_wrt": lambda N, a: adic.is_coreduced_wrt(N, N, a),
    "is_in_both_classes": lambda N, a: adic.is_in_both_classes(N, N, a),
    "local_cohomology": lambda N, a: cohomology.local_cohomology(0, N, N, a),
    "local_homology": lambda N, a: cohomology.local_homology(0, N, N, a),
    "is_adically_complete": cohomology.is_adically_complete,
}


@pytest.mark.parametrize(
    "module, ideal",
    [
        (Presentation.cyclic(RingSpec.mod(6), 2), principal(ZZ, 4)),
        (Presentation.cyclic(RingSpec.mod(6), 2), principal(RingSpec.mod(4), 2)),
        (Z4, principal(RingSpec.mod(6), 2)),
    ],
    ids=["Z-ideal-on-Z/6", "Z/4-ideal-on-Z/6", "Z/6-ideal-on-Z"],
)
@pytest.mark.parametrize("name", IDEAL_TAKERS)
def test_an_ideal_over_another_ring_is_refused(name, module, ideal):
    with pytest.raises(RingMismatch):
        IDEAL_TAKERS[name](module, ideal)


Z6_2 = Presentation.cyclic(RingSpec.mod(6), 2)
I2_Z6 = principal(RingSpec.mod(6), 2)

# the value functions that ask `cyclic` on the other operands they refuse,
# each with the exception the hand-written functions they replaced raised:
# operands over two rings (the ideal over the ring of the module before it),
# a negative degree, the dual of a free part and a limit that leaves the
# finitely generated modules
REFUSALS = {
    "torsion_wrt-two-rings": (lambda: adic.torsion_wrt(Z4, Z6_2, I2_Z6), RingMismatch),
    "completion_wrt-two-rings": (lambda: adic.completion_wrt(Z6_2, Z4, I2), RingMismatch),
    "is_reduced_wrt-two-rings": (lambda: adic.is_reduced_wrt(Z4, Z6_2, I2_Z6), RingMismatch),
    "is_coreduced_wrt-two-rings": (lambda: adic.is_coreduced_wrt(Z6_2, Z4, I2), RingMismatch),
    "is_in_both_classes-two-rings": (lambda: adic.is_in_both_classes(Z4, Z6_2, I2_Z6), RingMismatch),
    "local_cohomology-two-rings": (lambda: cohomology.local_cohomology(1, Z4, Z6_2, I2_Z6), RingMismatch),
    "local_homology-two-rings": (lambda: cohomology.local_homology(0, Z6_2, Z4, I2), RingMismatch),
    "ext-two-rings": (lambda: functors.ext(0, Z4, Z6_2), RingMismatch),
    "tor-two-rings": (lambda: functors.tor(1, Z6_2, Z4), RingMismatch),
    "ext-negative-degree": (lambda: functors.ext(-1, Z4, Z2), ValueError),
    "tor-negative-degree": (lambda: functors.tor(-1, Z4, Z2), ValueError),
    "local_cohomology-negative-degree": (lambda: cohomology.local_cohomology(-1, Z4, Z2, I2), ValueError),
    "local_homology-negative-degree": (lambda: cohomology.local_homology(-1, Z4, Z2, I2), ValueError),
    "matlis_dual-free-part": (lambda: functors.matlis_dual(direct_sum(ZZ, [Z2, R1])), FreePartNotSupported),
    "completion_wrt-free": (lambda: adic.completion_wrt(R1, R1, I2), NonStabilizing),
    "local_homology-free": (lambda: cohomology.local_homology(0, R1, R1, I2), NonStabilizing),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_operands_raise_as_before(case):
    call, error = REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error
