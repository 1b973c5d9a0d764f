"""Generalized local (co)homology along an ideal.

Degree 0 is the two-argument torsion Γ_a(Hom(M, N)) (resp. completion
Λ_a(M (x) N)) for every finitely generated M; every positive degree is read
off the chain of ideal multiples of M once it is stabilized.  Over a
squarefree modulus (a product of fields) every iterated value vanishes away
from degree (0,0).
"""

from fgmod import Presentation, ZZ, local_cohomology, local_homology, principal, NonStabilizing
from fgmod.grammar import format_canonical
from fgmod.modules import canonical_form, canonicalize
from fgmod.rings import RingSpec

Z2 = Presentation.cyclic(ZZ, 2)
Z4 = Presentation.cyclic(ZZ, 4)
a2 = principal(ZZ, 2)

print("Values over Z at the ideal (2)")
print("------------------------------")
for i in (0, 1):
    v = local_cohomology(i, Z2, Z4, a2)
    h = local_homology(i, Z2, Z4, a2)
    print(
        f"degree {i}: cohomology {format_canonical(canonical_form(v)):<8}"
        f" homology {format_canonical(canonical_form(h))}"
    )
# degree 0 needs no flat chain: colim Hom(Z/2^k, Z/4) = Γ_2(Hom(Z, Z/4)) = Z/4
v = local_cohomology(0, Presentation.free(ZZ, 1), Z4, a2)
print("free first argument, degree 0:", format_canonical(canonical_form(v)))
try:
    local_cohomology(1, Presentation.free(ZZ, 1), Z4, a2)
except NonStabilizing as exc:
    print("free first argument with non-reduced second:", exc)
print()

print("Iterated values over the product of fields Z/6")
print("----------------------------------------------")
R6 = RingSpec.mod(6)
M = Presentation.cyclic(R6, 2)
N = Presentation.free(R6, 1)
a = principal(R6, 2)
for p in range(3):
    row = []
    for q in range(3):
        inner = canonicalize(local_homology(q, M, N, a))
        outer = local_homology(p, M, inner, a)
        row.append(format_canonical(canonical_form(outer)))
    print(f"p={p}: " + "  ".join(f"{v:<6}" for v in row))
print("(only the (0,0) corner survives)")
