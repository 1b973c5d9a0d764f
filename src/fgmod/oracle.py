"""Brute-force ground truth for finite modules.

Everything here works directly on canonical forms with elementary number
theory: element enumeration, counting homomorphisms two independent ways, and
the classical closed forms for degree-one Ext and Tor over Z.  Nothing in
this module touches the matrix functors, so agreement between the two is
meaningful evidence rather than a shared bug.
"""

from __future__ import annotations

import itertools
import math

from .cyclic import CanonicalForm
from .errors import InfiniteModule, UnsupportedShape
from .rings import ZZ

__all__ = [
    "enumerate_elements",
    "brute_hom_count",
    "brute_hom_count_by_enumeration",
    "brute_tensor_count",
    "invariant_factors_from_cyclic",
    "formula_hom",
    "formula_tensor",
    "formula_ext1",
    "formula_tor1",
]


def enumerate_elements(C: CanonicalForm) -> list[tuple[int, ...]]:
    """All residue tuples of a finite module."""
    if C.free_rank:
        raise InfiniteModule("cannot enumerate a module with free part")
    return [tuple(t) for t in itertools.product(*(range(d) for d in C.torsion_factors))]


def brute_hom_count(M: CanonicalForm, N: CanonicalForm) -> int:
    """Number of homomorphisms between finite modules: the gcd product."""
    if M.free_rank or N.free_rank:
        raise InfiniteModule("hom counting needs finite modules")
    count = 1
    for d in M.torsion_factors:
        for e in N.torsion_factors:
            count *= math.gcd(d, e)
    return count


def brute_hom_count_by_enumeration(M: CanonicalForm, N: CanonicalForm) -> int:
    """Same count by filtering generator assignments.

    A homomorphism is a choice of image for each cyclic generator of M whose
    order divides that generator's annihilator; the choices are independent.
    A free summand of either module makes the count infinite.
    """
    if M.free_rank or N.free_rank:
        raise InfiniteModule("hom counting needs finite modules")
    elements = enumerate_elements(N)
    count = 1
    for d in M.torsion_factors:
        good = 0
        for x in elements:
            if all((d * xi) % e == 0 for xi, e in zip(x, N.torsion_factors)):
                good += 1
        count *= good
    return count


def brute_tensor_count(M: CanonicalForm, N: CanonicalForm) -> int:
    """Order of the tensor product of finite modules: also the gcd product."""
    return brute_hom_count(M, N)


def invariant_factors_from_cyclic(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups of given orders.

    Repeatedly replaces pairs (a, b) by (gcd, lcm) until the list is a
    divisibility chain; orders of 0 or 1 contribute nothing here (callers
    track free rank separately).
    """
    factors = [d for d in orders if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    g = math.gcd(a, b)
                    factors[i], factors[j] = g, a * b // g
                    changed = True
    return tuple(sorted(d for d in factors if d > 1))


def formula_hom(M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Hom of finite modules over Z: one cyclic factor gcd(d, e) per pair."""
    if M.ring != ZZ or M.free_rank or N.free_rank:
        raise UnsupportedShape("closed form covers finite modules over Z")
    orders = [math.gcd(d, e) for d in M.torsion_factors for e in N.torsion_factors]
    return CanonicalForm(ZZ, invariant_factors_from_cyclic(orders), 0)


def formula_tensor(M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Tensor of finite modules over Z: the same gcd pattern as Hom."""
    return formula_hom(M, N)


def formula_ext1(M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Degree-one Ext over Z: Ext(Z/d, N) = N/dN, extended additively."""
    if M.ring != ZZ or M.free_rank:
        raise UnsupportedShape("first argument must be torsion over Z")
    orders = []
    for d in M.torsion_factors:
        orders.extend([d] * N.free_rank)  # N/dN picks up (Z/d)^rank from the free part
        orders.extend(math.gcd(d, e) for e in N.torsion_factors)
    return CanonicalForm(ZZ, invariant_factors_from_cyclic(orders), 0)


def formula_tor1(M: CanonicalForm, N: CanonicalForm) -> CanonicalForm:
    """Degree-one Tor over Z: Tor(Z/d, N) = d-torsion of N, additively."""
    if M.ring != ZZ or M.free_rank:
        raise UnsupportedShape("first argument must be torsion over Z")
    orders = [math.gcd(d, e) for d in M.torsion_factors for e in N.torsion_factors]
    return CanonicalForm(ZZ, invariant_factors_from_cyclic(orders), 0)
