import math

import pytest

from fgmod.errors import EmptyGeneratorList
from fgmod.rings import Ideal, RingSpec, ZZ, canonicalize_ideal, ideal_power, principal


def test_canonicalize_gcd_over_z():
    assert canonicalize_ideal(ZZ, [4, 6]).canonical == 2
    assert canonicalize_ideal(ZZ, [0]).canonical == 0
    assert canonicalize_ideal(ZZ, [-6, 15]).canonical == 3


def test_canonicalize_over_modular_ring():
    # oracle: the ideal (4) in Z/6 is generated by gcd(4, 6) = 2
    assert math.gcd(4, 6) == 2
    assert canonicalize_ideal(RingSpec.mod(6), [4]).canonical == 2
    assert canonicalize_ideal(RingSpec.mod(6), [0]).canonical == 0
    assert canonicalize_ideal(RingSpec.mod(8), [12, 20]).canonical == 4


def test_canonicalize_rejects_empty():
    with pytest.raises(EmptyGeneratorList):
        canonicalize_ideal(ZZ, [])


def bezout_combination(target, gens):
    """Integer coefficients writing target as a combination of gens, or None."""
    import itertools

    bound = 12
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
        if sum(c * g for c, g in zip(coeffs, gens)) == target:
            return coeffs
    return None


def test_canonical_generates_the_same_ideal():
    for gens in ([4, 6], [6, 10, 15], [0, 9], [5]):
        a = canonicalize_ideal(ZZ, gens)
        # each generator is a multiple of the canonical generator
        for g in gens:
            assert a.canonical == 0 or g % a.canonical == 0
        # and the canonical generator is a combination of the generators
        assert bezout_combination(a.canonical, gens) is not None


def test_canonicalize_idempotent():
    for ring in (ZZ, RingSpec.mod(6), RingSpec.mod(9)):
        for gens in ([4, 6], [0], [5], [3, 9, 12]):
            a = canonicalize_ideal(ring, gens)
            again = canonicalize_ideal(ring, [a.canonical])
            assert again.canonical == a.canonical


def test_ideal_power_examples():
    assert ideal_power(principal(ZZ, 2), 2).canonical == 4
    assert ideal_power(principal(RingSpec.mod(8), 2), 3).canonical == 0  # 8 | 2^3
    assert ideal_power(principal(ZZ, 0), 5).canonical == 0
    assert ideal_power(principal(ZZ, 7), 0).canonical == 1


def test_ideal_power_multiplicativity():
    for ring in (ZZ, RingSpec.mod(12)):
        for d in (0, 1, 2, 3, 6):
            a = principal(ring, d)
            assert ideal_power(a, 1) == a
            for j in range(4):
                for k in range(4):
                    lhs = ideal_power(a, j + k).canonical
                    rhs = canonicalize_ideal(
                        ring, [ideal_power(a, j).canonical * ideal_power(a, k).canonical]
                    ).canonical
                    assert lhs == rhs


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec.mod(1)
    assert str(RingSpec.mod(6)) == "Z/6"
    assert str(ZZ) == "Z"
    assert RingSpec.mod(6).reduce(-1) == 5


def test_a_record_takes_its_fields_in_order_and_refuses_a_wrong_count():
    ideal = Ideal(ZZ, (4, 6), 2)
    assert (ideal.ring, ideal.generators, ideal.canonical) == (ZZ, (4, 6), 2)
    assert ideal == canonicalize_ideal(ZZ, [4, 6])
    for values in ((ZZ, (2,)), (ZZ, (2,), 2, 2)):
        with pytest.raises(TypeError, match=f"Ideal takes 3 fields, got {len(values)}"):
            Ideal(*values)
