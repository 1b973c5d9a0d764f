"""Exactness checks through restricted maps between submodule presentations.

These are the bodies `fgmod.verify` used before its exactness claims asked
their kernels and images as submodules of the ambient modules.  They stay
here as the differential reference for those claims: they present the
torsion submodules (and every term of the completed sequence) as modules of
their own, re-express each map in the generators of its target, certify
every map they build, and read kernels and images there.
"""

from fgmod.adic import completion_exponent, power_quotient, torsion_submodule
from fgmod.errors import AmbientMismatch, NonStabilizing
from fgmod.linalg import MatrixR
from fgmod.modules import ModuleMap, Submodule, express_in_span, kernel_submodule, submodule_equal
from fgmod.rings import Ideal


def restrict_map(f: ModuleMap, source_sub: Submodule, target_sub: Submodule) -> ModuleMap:
    """The map induced between submodule presentations.

    Requires f to carry the source submodule into the target one; each moved
    generator is re-expressed in the target submodule's generators modulo the
    ambient relations.
    """
    if source_sub.ambient != f.source or target_sub.ambient != f.target:
        raise AmbientMismatch("submodules do not sit inside the map's endpoints")
    moved = f.matrix @ source_sub.columns
    coeffs = express_in_span(target_sub.columns, f.target.rels, moved)
    if coeffs is None:
        raise ValueError("map does not carry the source submodule into the target submodule")
    return ModuleMap(source_sub.to_presentation(), target_sub.to_presentation(), coeffs)


def gamma_exact_by_restriction(hi: ModuleMap, hp: ModuleMap, a: Ideal):
    """(ok, note) of the torsion functor's left exactness on hi, hp."""
    sx, _ = torsion_submodule(hi.source, a)
    sy, _ = torsion_submodule(hi.target, a)
    sz, _ = torsion_submodule(hp.target, a)
    gi = restrict_map(hi, sx, sy)
    gp = restrict_map(hp, sy, sz)
    injective = kernel_submodule(gi).is_zero()
    exact_mid = submodule_equal(kernel_submodule(gp), gi.image())
    ok = injective and exact_mid
    return ok, "" if ok else f"injective={injective}, exact={exact_mid}"


def lambda_exact_by_quotients(ti: ModuleMap, tp: ModuleMap, a: Ideal):
    """(ok, note) of the completion functor's right exactness on ti, tp."""
    try:
        k = max(
            completion_exponent(ti.source, a),
            completion_exponent(ti.target, a),
            completion_exponent(tp.target, a),
        )
    except NonStabilizing:
        return None, "completion chain does not stabilize"
    lx = power_quotient(ti.source, a, k)
    ly = power_quotient(ti.target, a, k)
    lz = power_quotient(tp.target, a, k)
    li = ModuleMap(lx, ly, ti.matrix)
    lp = ModuleMap(ly, lz, tp.matrix)
    surjective = lp.image().contains(Submodule(lz, MatrixR.identity(lz.ring, lz.gens)))
    exact_mid = submodule_equal(kernel_submodule(lp), li.image())
    ok = surjective and exact_mid
    return ok, "" if ok else f"surjective={surjective}, exact={exact_mid}"
