import math
import random

import pytest

from fgmod.errors import InfiniteModule, UnsupportedShape
from fgmod.modules import CanonicalForm
from fgmod.oracle import (
    brute_hom_count,
    brute_hom_count_by_enumeration,
    brute_tensor_count,
    enumerate_elements,
    formula_ext1,
    formula_hom,
    formula_tor1,
    invariant_factors_from_cyclic,
)
from fgmod.rings import ZZ


def cf(*factors, rank=0):
    return CanonicalForm(ZZ, tuple(factors), rank)


def test_enumerate_elements():
    assert enumerate_elements(cf(2)) == [(0,), (1,)]
    assert enumerate_elements(cf()) == [()]
    assert len(enumerate_elements(cf(2, 3 * 2))) == 12
    with pytest.raises(InfiniteModule):
        enumerate_elements(cf(rank=1))


def test_hom_counts():
    assert brute_hom_count(cf(2), cf(4)) == 2
    assert brute_hom_count(cf(2), cf(3)) == 1
    assert brute_hom_count(cf(), cf(4)) == 1
    assert brute_tensor_count(cf(2), cf(4)) == 2


def test_hom_count_two_routes_agree():
    rng = random.Random(99)
    samples = [cf(), cf(2), cf(3), cf(4), cf(2, 2), cf(2, 4), cf(6), cf(2, 6)]
    for _ in range(30):
        a, b = rng.choice(samples), rng.choice(samples)
        assert brute_hom_count(a, b) == brute_hom_count_by_enumeration(a, b)


def test_both_hom_counts_refuse_a_free_part_of_either_module():
    finite, free = [cf(), cf(2), cf(2, 4)], [cf(rank=1), cf(2, rank=1)]
    pairs = [(a, b) for a in free for b in finite + free] + [(a, b) for a in finite for b in free]
    for a, b in pairs:
        for count in (brute_hom_count, brute_hom_count_by_enumeration):
            with pytest.raises(InfiniteModule, match="hom counting needs finite modules"):
                count(a, b)


def test_invariant_factor_merging():
    assert invariant_factors_from_cyclic([]) == ()
    assert invariant_factors_from_cyclic([1, 1]) == ()
    assert invariant_factors_from_cyclic([2, 3]) == (6,)
    assert invariant_factors_from_cyclic([4, 6]) == (2, 12)
    assert invariant_factors_from_cyclic([2, 2, 2]) == (2, 2, 2)
    assert invariant_factors_from_cyclic([12, 18]) == (6, 36)


def test_merging_preserves_order_and_divisibility():
    rng = random.Random(3)
    for _ in range(50):
        orders = [rng.randint(1, 12) for _ in range(rng.randint(0, 4))]
        chain = invariant_factors_from_cyclic(orders)
        # gcd/lcm swaps preserve the total group order
        assert math.prod(chain) == math.prod(orders)
        assert all(d >= 2 for d in chain)
        for x, y in zip(chain, chain[1:]):
            assert y % x == 0


def test_formula_hom():
    assert formula_hom(cf(2), cf(4)) == cf(2)
    assert formula_hom(cf(2, 4), cf(6)) == cf(2, 2)
    assert formula_hom(cf(), cf(6)) == cf()


def test_formula_ext_and_tor():
    assert formula_ext1(cf(2), cf(2)) == cf(2)
    assert formula_tor1(cf(2), cf(4)) == cf(2)
    assert formula_ext1(cf(2), cf(rank=1)) == cf(2)
    assert formula_tor1(cf(2), cf(rank=1)) == cf()
    assert formula_ext1(cf(4), cf(2, rank=2)) == cf(2, 4, 4)
    with pytest.raises(UnsupportedShape):
        formula_ext1(cf(rank=1), cf(2))
