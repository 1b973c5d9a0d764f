"""Exactness checks through restricted maps between submodule presentations.

These are the bodies `fgmod.verify` used before its exactness claims asked
their kernels and images as submodules of the ambient modules, before they
induced their maps on cyclic summands, and before they answered by orders.
They stay here as the differential reference for those claims: the maps of
each sequence come from the presentation route (`ses_maps`,
`functors.hom_postcompose` and `tensor_postcompose`), the checks work along
the ideal (d) itself, present the torsion submodules (and every term of the
completed sequence) as modules of their own, re-express each map in the
generators of its target, certify every map they build, and read kernels
and images there.  `exact_on_whole_q` is the order route as it was before
the claims decided it per cyclic summand of the stable quotient Q: on the
maps induced on all of Q.

Run as a script, it compares the claims with this reference on the named
default grids and exits 1 on a mismatch:

    PYTHONPATH=src python tests/exactness_reference.py Z
"""

import math
import sys
from functools import lru_cache

from fgmod import verify
from fgmod.adic import completion_exponent, power_quotient, torsion_submodule
from fgmod.errors import AmbientMismatch, NonStabilizing
from fgmod.functors import hom_postcompose, tensor_postcompose
from fgmod.linalg import MatrixR, from_columns
from fgmod.maps import _span_order
from fgmod.modules import (
    ModuleMap,
    Submodule,
    canonical_presentation,
    express_in_span,
    kernel_submodule,
    quotient_by_submodule,
    submodule_equal,
)
from fgmod.rings import Ideal, principal


def sequence_submodule(seq) -> Submodule:
    """The submodule of canonical_presentation(Y) that the columns of a
    harness sequence's inclusion span."""
    Y = canonical_presentation(seq.y)
    return Submodule(Y, from_columns(Y.ring, list(zip(*seq.incl)), Y.gens))


@lru_cache(maxsize=256)
def ses_maps(sub: Submodule) -> tuple[ModuleMap, ModuleMap]:
    """The inclusion X -> Y and the projection Y -> Y/X of 0 -> X -> Y -> Y/X -> 0,
    on the presentations of the submodule and the quotient."""
    Y = sub.ambient
    proj = ModuleMap._trusted(Y, quotient_by_submodule(Y, sub), MatrixR.identity(Y.ring, Y.gens))
    return sub.inclusion_map(), proj


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
    """True, or (False, note), for the torsion functor's left exactness on
    hi, hp."""
    sx, _ = torsion_submodule(hi.source, a)
    sy, _ = torsion_submodule(hi.target, a)
    sz, _ = torsion_submodule(hp.target, a)
    gi = restrict_map(hi, sx, sy)
    gp = restrict_map(hp, sy, sz)
    injective = kernel_submodule(gi).is_zero()
    exact_mid = submodule_equal(kernel_submodule(gp), gi.image())
    return injective and exact_mid or (False, f"injective={injective}, exact={exact_mid}")


def lambda_exact_by_quotients(ti: ModuleMap, tp: ModuleMap, a: Ideal):
    """True, or (False, note), for the completion functor's right exactness
    on ti, tp."""
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
    return surjective and exact_mid or (False, f"surjective={surjective}, exact={exact_mid}")


def exact_on_whole_q(side, seq, q):
    """True, or (False, note), for the pair the sequence induces on the whole
    stable quotient Q, decided by the orders of its two images."""
    first, second = side.postcompose(q, seq.x, seq.y, seq.incl), side.postcompose(q, seq.y, seq.z, seq.proj)
    image, onto = _span_order(first), _span_order(second)
    at_end = image == math.prod(first[0]) if side.end == "injective" else onto == math.prod(second[1])
    exact_mid = math.prod(first[1]) == onto * image
    return at_end and exact_mid or (False, f"{side.end}={at_end}, exact={exact_mid}")


CHECKS = (
    ("gamma-left-exact", hom_postcompose, gamma_exact_by_restriction),
    ("lambda-right-exact", tensor_postcompose, lambda_exact_by_quotients),
)


def walk_listing(loops, check, ctx, walk=None) -> list:
    """(values, result) of every instance a walker, `verify._walk` unless
    `walk` is given, checks with the row check `check`, in walk order; the
    values are the instance's, ending with the ideal's generator d.  A
    domain's skip checks no instance, so it is not listed; the exactness
    claims' domains never skip."""
    listing = []

    def listed(ctx, bound, xs, d):
        results = check(ctx, bound, xs, d)
        listing.extend(((*bound, x, d), result) for x, result in zip(xs, results, strict=True))
        return results

    (walk or verify._walk)(loops, listed, ctx, verify._Tally(loops))
    return listing


def reference_comparisons(grids):
    """((claim, grid, values), (got, want)) for each instance of the
    exactness claims on the grids: what the claim reports, and what the
    reference gives along (d) on the maps of the presentation route."""
    for claim_id, postcompose, reference in CHECKS:
        cdef = verify._BY_ID[claim_id]

        def check(seq, m, d):
            incl, proj = ses_maps(sequence_submodule(seq))
            M = canonical_presentation(m)
            return reference(postcompose(M, incl), postcompose(M, proj), principal(m.ring, d))

        for grid in grids:
            ctx = verify._make_ctx(grid)
            walked = walk_listing(cdef.loops, verify._each(check), ctx)
            claimed = walk_listing(cdef.loops, cdef.check, ctx)
            for (values, got), (want_values, want) in zip(claimed, walked, strict=True):
                assert values == want_values, (claim_id, grid.label, values, want_values)
                yield (claim_id, grid.label, values), (got, want)


def main(labels: list[str]) -> int:
    grids = [g for g in verify.default_grids() if g.label in labels]
    if len(grids) != len(labels):
        print(f"unknown grid among {labels}; the default grids are {[g.label for g in verify.default_grids()]}")
        return 2
    checked = mismatched = 0
    for where, (got, want) in reference_comparisons(grids):
        checked += 1
        if got != want:
            mismatched += 1
            print(f"mismatch at {where}: claim {got}, reference {want}")
    print(f"{checked} instances compared, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
