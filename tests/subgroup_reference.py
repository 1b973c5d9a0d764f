"""Every short exact sequence of a finite module by a closure search.

This is the body `fgmod.verify._sequences_in` had before it listed the
subgroups of a finite Y by their row Hermite normal forms.  It stays here as
the differential reference for that enumeration: a closure search over Y's
elements reaches every subgroup, each first from a smaller one and an element
that, with its generators, generates it, and frozensets of elements tell the
subgroups apart.  The sequences come out in the same order, by |X| and then
by X's sorted elements, each built by `verify._sequence` from the generators
that first reached it.
"""

import itertools

from fgmod.cyclic import CanonicalForm
from fgmod.verify import _Seq, _sequence


def sequences_by_closure(y: CanonicalForm) -> tuple[_Seq, ...]:
    """One sequence per submodule X of a finite Y, by |X| and then by X's
    elements, computed once for all ideals and claims.  A closure search over
    Y's elements finds the subgroups, which are the submodules; each is first
    reached from a smaller one and an element that, with its generators,
    generates it."""
    factors = y.torsion_factors
    exponent = max(factors, default=1)
    elements = list(itertools.product(*(range(d) for d in factors)))

    def add(x, z):
        return tuple((a + b) % d for a, b, d in zip(x, z, factors))

    def closure(group: frozenset, x) -> frozenset:
        multiples = {tuple(k * a % d for a, d in zip(x, factors)) for k in range(exponent)}
        return frozenset(add(s, m) for s in group for m in multiples)

    gens = {frozenset({(0,) * len(factors)}): ()}
    frontier = list(gens)
    while frontier:
        group = frontier.pop()
        for x in elements:
            if x not in group:
                bigger = closure(group, x)
                if bigger not in gens:
                    gens[bigger] = gens[group] + (x,)
                    frontier.append(bigger)
    return tuple(_sequence(y, gens[g]) for g in sorted(gens, key=lambda s: (len(s), sorted(s))))
