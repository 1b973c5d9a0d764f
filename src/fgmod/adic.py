"""Torsion and completion along an ideal, and the (co)reduced predicates.

Values are read off invariant factors by `fgmod.cyclic`.  The two-argument
torsion and completion and the four predicates are made by the adapter
`modules._by_invariants`, which canonicalizes the operands once and reads
the ideal through `modules._generator`.  The torsion and completion of a
summand Z/m along (d) are both Z/gcd(d^k, m), at the least k where the
chain gcd(d^k, m) stops growing.  The module's exponent is the largest k
over its summands.  The completion of a free Z-part along d not in
{0, +-1} is not finitely generated, and NonStabilizing is raised rather
than a wrong value returned.
The predicates compare gcd(d, m) with gcd(d^2, m), so they are total.

The torsion submodule and the quotients N / a^k N are submodules and
quotients of N's own presentation.  Their exponents come from `cyclic` as
well, so the matrix route builds only the module at that exponent: the
kernel of multiplication by d^k, or the relations d^k e_i appended to N's.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cyclic
from .linalg import MatrixR
from .modules import (
    Presentation,
    Submodule,
    _by_invariants,
    _generator,
    canonical_form,
    canonical_presentation,
    kernel_submodule,
    mult_map,
    quotient_by_ideal,
)
from .rings import Ideal, ideal_power

__all__ = [
    "StabilizationResult",
    "torsion",
    "torsion_submodule",
    "completion",
    "completion_exponent",
    "power_quotient",
    "torsion_wrt",
    "completion_wrt",
    "is_reduced",
    "is_coreduced",
    "is_reduced_wrt",
    "is_coreduced_wrt",
    "is_in_both_classes",
]


@dataclass(frozen=True)
class StabilizationResult:
    """Value of an adic limit plus the exponent where its chain went flat."""

    value: Presentation
    exponent: int


def torsion_submodule(N: Presentation, a: Ideal) -> tuple[Submodule, int]:
    """Elements killed by some power of the ideal, with the stabilization
    exponent: the least k with ker(d^k) = ker(d^(k+1)).  The exponent comes
    from `cyclic.torsion`; the submodule is the kernel of d^k on N."""
    d = _generator(N, a)
    k = cyclic.torsion(canonical_form(N), d)[1]
    if k == 0:
        return Submodule(N, MatrixR(N.ring, N.gens, 0, ((),) * N.gens)), 0
    return kernel_submodule(mult_map(N, pow(d, k, N.ring.modulus))), k


def torsion(N: Presentation, a: Ideal) -> StabilizationResult:
    """The submodule of elements killed by a power of the ideal."""
    value, k = cyclic.torsion(canonical_form(N), _generator(N, a))
    return StabilizationResult(canonical_presentation(value), k)


def completion_exponent(N: Presentation, a: Ideal) -> int:
    """Least k with d^k N = d^(k+1) N; raises when the chain keeps shrinking."""
    return cyclic.completion(canonical_form(N), _generator(N, a))[1]


def power_quotient(N: Presentation, a: Ideal, k: int) -> Presentation:
    """N / a^k N."""
    return quotient_by_ideal(N, ideal_power(a, k))


def completion(N: Presentation, a: Ideal) -> StabilizationResult:
    """The limit of N / a^k N, available once the chain a^k N is constant."""
    value, k = cyclic.completion(canonical_form(N), _generator(N, a))
    return StabilizationResult(canonical_presentation(value), k)


torsion_wrt = _by_invariants(__name__, "torsion_wrt", "M N a", "Two-argument torsion: the ideal-torsion of Hom(M, N).")
completion_wrt = _by_invariants(__name__, "completion_wrt", "M N a", "Two-argument completion: the ideal-completion of M (x) N.")
is_reduced = _by_invariants(__name__, "is_reduced", "N a", "Whether d^2 x = 0 forces d x = 0 for every element x.")
is_coreduced = _by_invariants(__name__, "is_coreduced", "N a", "Whether d N = d^2 N as submodules of N.")
is_reduced_wrt = _by_invariants(__name__, "is_reduced_wrt", "M N a", "Whether Hom(M, N) is a reduced module for this ideal.")
is_coreduced_wrt = _by_invariants(__name__, "is_coreduced_wrt", "M N a", "Whether M (x) N is a coreduced module for this ideal.")


def is_in_both_classes(M: Presentation, N: Presentation, a: Ideal) -> bool:
    """Reduced and coreduced relative to M simultaneously."""
    return is_reduced_wrt(M, N, a) and is_coreduced_wrt(M, N, a)
