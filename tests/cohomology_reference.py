"""Generalized local (co)homology by the matrix route.

These are the bodies the library used before `fgmod.cyclic` answered local
(co)homology from invariant factors.  They stay here as the differential
reference for that layer: degree 0 on the relative (co)reduced class
collapses to Hom or tensor against M/aM, and everything else builds the
quotient presentation M/a^kM at the exponent where the chain a^kM
stabilizes.  Ext and Tor of those quotients come from a free resolution
(`resolution_reference`), so the answer shares no gcd formula with the value
layer.  The reference does not answer degree 0 off the (co)reduced class
when the chain never flattens: it raises NonStabilizing there.
"""

from resolution_reference import ext_by_resolution, tor_by_resolution

from fgmod.adic import completion_exponent, is_coreduced_wrt, is_reduced_wrt, power_quotient
from fgmod.modules import Presentation, quotient_by_ideal
from fgmod.rings import Ideal


def local_cohomology_by_chain(i: int, M: Presentation, N: Presentation, a: Ideal) -> Presentation:
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if i == 0 and is_reduced_wrt(M, N, a):
        return ext_by_resolution(0, quotient_by_ideal(M, a), N)
    k = completion_exponent(M, a)
    return ext_by_resolution(i, power_quotient(M, a, k), N)


def local_homology_by_chain(i: int, M: Presentation, N: Presentation, a: Ideal) -> Presentation:
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if i == 0 and is_coreduced_wrt(M, N, a):
        return tor_by_resolution(0, quotient_by_ideal(M, a), N)
    k = completion_exponent(M, a)
    return tor_by_resolution(i, power_quotient(M, a, k), N)
