"""Torsion and completion along an ideal, and the (co)reduced predicates.

Both functors are evaluated by stabilizing a chain.  The torsion submodule is
the union of the kernels of multiplication by d^k, which always stabilizes
for finitely generated modules over Z or Z/n.  The completion is the quotient
by d^k once the chain of ideal multiples d^k N becomes constant; when that
chain keeps shrinking past the iteration bound (a free Z-part with d not in
{0, +-1}) the completion is not finitely generated and NonStabilizing is
raised rather than a wrong value returned.

The predicates use the finite characterizations (kernel comparison and
ideal-multiple comparison) and never need a completion, so they are total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NonStabilizing
from .linalg import MatrixR, hstack, spans_include
from .modules import (
    Presentation,
    Submodule,
    ideal_multiple,
    is_zero_module,
    kernel_submodule,
    mult_map,
    quotient_by_submodule,
    scaled_submodule,
    submodule_equal,
)
from .functors import hom_module, tensor_module
from .rings import Ideal, ideal_power

__all__ = [
    "DEFAULT_KMAX",
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

DEFAULT_KMAX = 64


@dataclass(frozen=True)
class StabilizationResult:
    """Value of an adic limit plus the exponent where its chain went flat."""

    value: Presentation
    exponent: int


def _power(ring, d: int, k: int) -> int:
    if ring.modulus is not None:
        return pow(d, k, ring.modulus) if k else 1
    return d**k


def _kernel_of_scalar(N: Presentation, c: int) -> Submodule:
    """ker(c * : N -> N) as a submodule of N."""
    return kernel_submodule(mult_map(N, c))


@lru_cache(maxsize=None)
def torsion_submodule(N: Presentation, a: Ideal, kmax: int = DEFAULT_KMAX) -> tuple[Submodule, int]:
    """Elements killed by some power of the ideal, with the stabilization
    exponent: the least k with ker(d^k) = ker(d^(k+1))."""
    d = a.canonical
    prev = Submodule(N, MatrixR(N.ring, N.gens, 0, ((),) * N.gens))
    k = 0
    while True:
        nxt = _kernel_of_scalar(N, _power(N.ring, d, k + 1))
        # the chain ascends, so equality is one inclusion
        if prev.contains(nxt):
            return prev, k
        prev = nxt
        k += 1
        if k > kmax:
            raise NonStabilizing(f"kernel chain of ({d})", kmax)


def torsion(N: Presentation, a: Ideal, kmax: int = DEFAULT_KMAX) -> StabilizationResult:
    """The submodule of elements killed by a power of the ideal."""
    sub, k = torsion_submodule(N, a, kmax)
    return StabilizationResult(sub.to_presentation(), k)


@lru_cache(maxsize=None)
def completion_exponent(N: Presentation, a: Ideal, kmax: int = DEFAULT_KMAX) -> int:
    """Least k with d^k N = d^(k+1) N; raises when the chain keeps shrinking."""
    d = a.canonical
    for k in range(kmax + 1):
        low = scaled_submodule(N, _power(N.ring, d, k + 1))
        # the chain descends, so equality is one inclusion
        if spans_include(
            hstack(low.columns, N.rels),
            scaled_submodule(N, _power(N.ring, d, k)).columns,
        ):
            return k
    raise NonStabilizing(f"chain of ideal multiples of ({d})", kmax)


def power_quotient(N: Presentation, a: Ideal, k: int) -> Presentation:
    """N / a^k N."""
    return quotient_by_submodule(N, scaled_submodule(N, ideal_power(a, k).canonical))


def completion(N: Presentation, a: Ideal, kmax: int = DEFAULT_KMAX) -> StabilizationResult:
    """The limit of N / a^k N, available once the chain a^k N is constant."""
    k = completion_exponent(N, a, kmax)
    return StabilizationResult(power_quotient(N, a, k), k)


def torsion_wrt(M: Presentation, N: Presentation, a: Ideal, kmax: int = DEFAULT_KMAX) -> Presentation:
    """Two-argument torsion: the ideal-torsion of Hom(M, N)."""
    return torsion(hom_module(M, N), a, kmax).value


def completion_wrt(M: Presentation, N: Presentation, a: Ideal, kmax: int = DEFAULT_KMAX) -> Presentation:
    """Two-argument completion: the ideal-completion of M (x) N."""
    return completion(tensor_module(M, N), a, kmax).value


@lru_cache(maxsize=None)
def is_reduced(N: Presentation, a: Ideal) -> bool:
    """Whether d^2 x = 0 forces d x = 0 for every element x.

    Two independent routes are evaluated and must agree: comparing the kernels
    of d and d^2, and checking that the ideal kills the torsion submodule.
    """
    d = a.canonical
    by_kernels = submodule_equal(
        _kernel_of_scalar(N, d), _kernel_of_scalar(N, _power(N.ring, d, 2))
    )
    gam = torsion(N, a).value
    multiple, _ = ideal_multiple(gam, a)
    by_obstruction = is_zero_module(multiple)
    if by_kernels != by_obstruction:
        raise RuntimeError("kernel-chain and obstruction routes disagree; arithmetic bug")
    return by_kernels


@lru_cache(maxsize=None)
def is_coreduced(N: Presentation, a: Ideal) -> bool:
    """Whether d N = d^2 N as submodules of N."""
    d = a.canonical
    return submodule_equal(
        scaled_submodule(N, d), scaled_submodule(N, _power(N.ring, d, 2))
    )


def is_reduced_wrt(M: Presentation, N: Presentation, a: Ideal) -> bool:
    """Whether Hom(M, N) is a reduced module for this ideal."""
    return is_reduced(hom_module(M, N), a)


def is_coreduced_wrt(M: Presentation, N: Presentation, a: Ideal) -> bool:
    """Whether M (x) N is a coreduced module for this ideal."""
    return is_coreduced(tensor_module(M, N), a)


def is_in_both_classes(M: Presentation, N: Presentation, a: Ideal) -> bool:
    """Reduced and coreduced relative to M simultaneously."""
    return is_reduced_wrt(M, N, a) and is_coreduced_wrt(M, N, a)
