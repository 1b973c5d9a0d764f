"""Generalized local cohomology and homology along an ideal.

Both are the defining limits, lim-> Ext^i(M/a^k M, N) and
lim<- Tor_i(M/a^k M, N), read off invariant factors by
`cyclic.local_cohomology` and `cyclic.local_homology` through the adapter
`modules._by_invariants`.  In degree 0 they are the two-argument torsion
Γ_a(Hom(M, N)) and completion Λ_a(M (x) N), which hold for every finitely
generated M.  Every positive degree is the term at the exponent where the
chain of ideal multiples a^k M stabilizes: from there on every transition
map of the system is an identity.  A limit that leaves finitely generated
modules, which completes a free Z summand along a nonzero non-unit, raises
NonStabilizing.
"""

from __future__ import annotations

from . import cyclic
from .errors import NonStabilizing
from .modules import Presentation, _by_invariants, _generator, canonical_form
from .rings import Ideal

__all__ = ["local_cohomology", "local_homology", "is_adically_complete"]


local_cohomology = _by_invariants(
    __name__, "local_cohomology", "i M N a", "Degree-i local cohomology lim-> Ext^i(M/a^k M, N) of the pair (M, N)."
)
local_homology = _by_invariants(
    __name__, "local_homology", "i M N a", "Degree-i local homology lim<- Tor_i(M/a^k M, N) of the pair (M, N)."
)


def is_adically_complete(N: Presentation, a: Ideal) -> bool:
    """Whether N is isomorphic to its completion along the ideal.

    A non-stabilizing chain means the completion left the finitely generated
    world, which in particular is not isomorphic to N.
    """
    form = canonical_form(N)
    try:
        # forms are interned, so `is` is equality
        return cyclic.completion(form, _generator(N, a))[0] is form
    except NonStabilizing:
        return False
