"""The exactness claims ask kernels and images in the ambient modules, and
the maps the library builds itself skip certification.

`verify._gamma_exact` and `verify._lambda_exact` compute along one integer
c = gcd(d^K, E), for an E that kills every module they build, and must give
the same (ok, note) as the restricted-map route in `exactness_reference`
along the ideal (d) itself: on every instance the small golden grid and the
default Z/6 and Z/8 grids check, with c from `verify._effective`, and on
seeded random non-diagonal short exact sequences of finite modules over Z,
Z/6 and Z/8, with c from the exponents of the modules the checks build.
The random cases also pair a multiplication map with a projection, a
sequence that is not exact, so the failing branches and their notes are
compared too.  Every map the trusted constructor builds on the small grid
must pass the public certification.

Computing along c rests on one fact, tested here on seeded random finite
modules killed by E: along (d), the torsion submodule is the kernel of c and
the stable quotient is N/cN.  On every sequence and M of those grids, in the
class or not, the c of `_effective` must give each module the checks build
the torsion and completion it has along (d).  On in-class sequences a wrong
c can still give the right verdicts, so the grid comparisons alone would not
show it.  The harness checks each (sequence, M, c) once; the memoized
claims must yield the same (values, result) pairs as the walk that checks
every instance, with 240 checks per claim on the small grid where there are
391 instances.
"""

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest
from exactness_reference import gamma_exact_by_restriction, lambda_exact_by_quotients, restrict_map

from fgmod import adic, cyclic, functors, modules, verify
from fgmod.errors import AmbientMismatch, FgmodError
from fgmod.functors import hom_postcompose, tensor_postcompose
from fgmod.linalg import MatrixR, from_columns
from fgmod.modules import (
    ModuleMap,
    Presentation,
    Submodule,
    canonical_form,
    canonical_presentation,
    kernel_submodule,
    mult_map,
    quotient_by_ideal,
    quotient_by_submodule,
    submodule_equal,
)
from fgmod.rings import RingSpec, ZZ, principal

GRID = Path(__file__).parent / "golden" / "verify_small_grid.json"
RINGS = [ZZ, RingSpec.mod(6), RingSpec.mod(8)]


def small_grids():
    return [verify.grid_from_dict(d) for d in json.loads(GRID.read_text())]


def tables(*mods):
    return [f for m in mods for f in vars(m).values() if hasattr(f, "cache_info") and f.__module__ == m.__name__]


def random_coker(rng: random.Random, ring: RingSpec, max_gens: int = 3) -> Presentation:
    gens, rels = rng.randint(1, max_gens), rng.randint(0, 3)
    rows = [[rng.randint(-5, 5) for _ in range(rels)] for _ in range(gens)]
    return Presentation.from_relations(ring, rows) if rels else Presentation.free(ring, gens)


def random_submodule(rng: random.Random, P: Presentation) -> Submodule:
    cols = [tuple(rng.randint(-4, 4) for _ in range(P.gens)) for _ in range(rng.randint(0, 2))]
    return Submodule(P, from_columns(P.ring, cols, P.gens))


def sequence_maps(sub: Submodule) -> tuple[ModuleMap, ModuleMap]:
    """0 -> X -> Y -> Y/X -> 0, both maps certified by the public constructor."""
    Y = sub.ambient
    incl = ModuleMap(sub.to_presentation(), Y, sub.columns)
    proj = ModuleMap(Y, quotient_by_submodule(Y, sub), MatrixR.identity(Y.ring, Y.gens))
    return incl, proj


def cases(seed: int, count: int, finite: bool = False):
    """(ring, M, first map, second map): a short exact sequence, then the
    non-exact Y --c--> Y -> Y/X on the same Y; a finite Y if asked."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = rng.choice(RINGS)
        M = random_coker(rng, ring, max_gens=2)
        Y = killed_by(rng, ring, rng.choice((2, 3, 4, 6, 8, 12))) if finite else random_coker(rng, ring)
        sub = random_submodule(rng, Y)
        incl, proj = sequence_maps(sub)
        yield ring, M, incl, proj
        yield ring, M, mult_map(sub.ambient, rng.randint(0, 3)), proj


def outcome(check, *args):
    try:
        return check(*args)
    except FgmodError as exc:
        return type(exc).__name__


def reference_comparisons(grids):
    """(got, want) of each exactness check on every instance of the grids:
    the check along c = _effective(seq, M, d), the reference along (d)."""
    for claim_id, side, new, reference in (
        ("gamma-left-exact", verify._RED, verify._gamma_exact, gamma_exact_by_restriction),
        ("lambda-right-exact", verify._COR, verify._lambda_exact, lambda_exact_by_quotients),
    ):
        assert side.exact is new

        def check(seq, m, d):
            incl, proj = verify._ses_maps(seq.sub)
            M = canonical_presentation(m)
            maps = side.postcompose(M, incl), side.postcompose(M, proj)
            return new(*maps, verify._effective(seq, m, d)), reference(*maps, principal(m.ring, d))

        for grid in grids:
            for values, result in verify._walk(verify._BY_ID[claim_id].loops, check, verify._make_ctx(grid)):
                yield (claim_id, grid.label, values), result


def test_exactness_checks_match_the_restriction_route_on_the_small_grid():
    checked = 0
    for where, (got, want) in reference_comparisons(small_grids()):
        assert got == want, where
        checked += 1
    # the golden report's instance counts of both claims on the three grids
    assert checked == 2 * (150 + 129 + 112)


def test_exactness_checks_match_the_restriction_route_on_the_default_modular_grids():
    grids = [g for g in verify.default_grids() if g.label in ("Z/6", "Z/8")]
    checked = 0
    for where, (got, want) in reference_comparisons(grids):
        assert got == want, where
        checked += 1
    # the default report's instance counts of both claims on Z/6 and Z/8
    assert checked == 2 * (480 + 609)


def exponent(P: Presentation) -> int:
    """The least e > 0 with eP = 0 for a finite P."""
    C = canonical_form(P)
    assert C.free_rank == 0, P
    return C.torsion_factors[-1] if C.torsion_factors else 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exactness_checks_match_the_restriction_route_on_random_sequences(seed):
    outcomes = {"gamma": set(), "lambda": set()}
    for ring, M, f, g in cases(seed, 20, finite=True):
        for d in (0, 2, 3, 4):
            a = principal(ring, d)
            for name, new, reference, postcompose in (
                ("gamma", verify._gamma_exact, gamma_exact_by_restriction, hom_postcompose),
                ("lambda", verify._lambda_exact, lambda_exact_by_quotients, tensor_postcompose),
            ):
                first, second = postcompose(M, f), postcompose(M, g)
                e = math.lcm(*(exponent(P) for P in (first.source, first.target, second.target)))
                c = math.gcd(a.canonical ** e.bit_length(), e)
                got = outcome(new, first, second, c)
                assert got == outcome(reference, first, second, a), (ring, M, f, d)
                outcomes[name].add(got if isinstance(got, str) else got[0])
    # both branches of each check ran
    assert {True, False} <= outcomes["gamma"]
    assert {True, False} <= outcomes["lambda"]


@pytest.mark.parametrize("seed", [4, 5])
def test_kernel_within_a_submodule_is_the_restricted_kernel_pushed_forward(seed):
    rng = random.Random(seed)
    for ring, M, f, g in cases(seed, 15):
        for h in (f, g, hom_postcompose(M, f), tensor_postcompose(M, g)):
            S = random_submodule(rng, h.source)
            whole = Submodule(h.target, MatrixR.identity(ring, h.target.gens))
            image = Submodule(h.target, h.matrix @ S.columns)
            within = kernel_submodule(h, within=S)
            assert within.ambient == h.source
            for T in (whole, image):
                restricted = kernel_submodule(restrict_map(h, S, T))
                pushed = Submodule(h.source, S.columns @ restricted.columns)
                assert submodule_equal(within, pushed), (ring, h, S)
            everything = Submodule(h.source, MatrixR.identity(ring, h.source.gens))
            assert submodule_equal(kernel_submodule(h, within=everything), kernel_submodule(h))


def test_kernel_within_a_submodule_of_another_module_is_refused():
    Z4 = Presentation.cyclic(ZZ, 4)
    Z6 = Presentation.cyclic(ZZ, 6)
    with pytest.raises(AmbientMismatch):
        kernel_submodule(mult_map(Z4, 2), within=Submodule(Z6, MatrixR.identity(ZZ, 1)))


def test_every_trusted_map_on_the_small_grid_certifies(monkeypatch):
    built = []
    trusted = ModuleMap._trusted.__func__

    def recorded(cls, source, target, matrix):
        built.append((sys._getframe(1).f_code.co_name, source, target, matrix))
        return trusted(cls, source, target, matrix)

    monkeypatch.setattr(ModuleMap, "_trusted", classmethod(recorded))
    for table in tables(cyclic, modules, functors, adic, verify):
        table.cache_clear()
    assert verify.run_suite(small_grids()).all_expected
    sites = {"hom_postcompose", "tensor_postcompose", "inclusion_map", "mult_map", "_ses_maps", "_lambda_exact"}
    assert {name for name, *_ in built} == sites
    for name, source, target, matrix in built:
        # raises ValueError on a map that is not well defined
        ModuleMap(source, target, matrix)


def killed_by(rng: random.Random, ring: RingSpec, e: int) -> Presentation:
    """A random coker with e times each generator among its relations."""
    gens, rels = rng.randint(1, 3), rng.randint(0, 2)
    rows = [[rng.randint(-5, 5) for _ in range(rels)] + [e * (i == j) for j in range(gens)] for i in range(gens)]
    return Presentation.from_relations(ring, rows)


@pytest.mark.parametrize("seed", [6, 7])
def test_torsion_and_completion_of_a_module_killed_by_e_see_only_c(seed):
    rng = random.Random(seed)
    for ring in (ZZ, RingSpec.mod(6), RingSpec.mod(8), RingSpec.mod(12)):
        for _ in range(4):
            e = rng.choice([e for e in (1, 2, 3, 4, 6, 8, 12) if ring.is_integers or ring.modulus % e == 0])
            N = killed_by(rng, ring, e)
            for d in range(-6, 13):
                a = principal(ring, d)
                c = math.gcd(d**e, e)  # K = e >= log2 e
                sub, _ = adic.torsion_submodule(N, a)
                assert submodule_equal(sub, kernel_submodule(mult_map(N, c))), (ring, N, d)
                k = adic.completion_exponent(N, a)
                want = canonical_form(quotient_by_ideal(N, principal(ring, c)))
                assert canonical_form(adic.power_quotient(N, a, k)) == want, (ring, N, d)


def test_effective_gives_the_torsion_and_completion_along_d():
    # on every sequence and M of the grids, in the class or not: each module
    # the checks build has torsion and completion along (d) of the same
    # orders as H/cH (a finite cyclic Z/m has Z/m[c] and Z/m/cZ/m both
    # Z/gcd(c, m))
    for grid in small_grids() + [g for g in verify.default_grids() if g.label in ("Z/6", "Z/8")]:
        ctx = verify._make_ctx(grid)
        for seq in verify._sequences(ctx, 0):
            for m in ctx.tiny:
                for d in range(-4, 9):
                    c = verify._effective(seq, m, d)
                    for t in (seq.x, seq.y, seq.z):
                        for H in (cyclic.hom(m, t), cyclic.tensor(m, t)):
                            want = cyclic.quotient(H, c)
                            assert cyclic.torsion(H, d, adic.DEFAULT_KMAX)[0] == want, (grid.label, seq, m, d)
                            assert cyclic.completion(H, d, adic.DEFAULT_KMAX)[0] == want, (grid.label, seq, m, d)


def unmemoized(side):
    def check(seq, m, d):
        incl, proj = verify._ses_maps(seq.sub)
        M = canonical_presentation(m)
        return side.exact(side.postcompose(M, incl), side.postcompose(M, proj), verify._effective(seq, m, d))

    return check


@pytest.mark.parametrize("claim_id, side", [("gamma-left-exact", verify._RED), ("lambda-right-exact", verify._COR)])
def test_memoized_exactness_yields_every_instance_of_the_unmemoized_walk(claim_id, side):
    cdef = verify._BY_ID[claim_id]
    grids = small_grids() + [g for g in verify.default_grids() if g.label in ("Z/6", "Z/8")]
    for grid in grids:
        ctx = verify._make_ctx(grid)
        assert list(cdef.generate(ctx)) == list(verify._walk(cdef.loops, unmemoized(side), ctx)), grid.name()


@pytest.mark.parametrize("side", [verify._RED, verify._COR])
def test_the_memo_key_tells_apart_instances_whose_values_differ(side):
    # both claims hold, so their results cannot show a key that merges too
    # much; this check's note shows the torsion (completion) of each term,
    # along c in the memoized claim and along (d) in the walk
    def along_c(P, c):
        if side is verify._RED:
            return canonical_form(kernel_submodule(mult_map(P, c)).to_presentation())
        return canonical_form(quotient_by_ideal(P, principal(P.ring, c)))

    def along_d(P, d):
        limit = adic.torsion if side is verify._RED else adic.completion
        return canonical_form(limit(P, principal(P.ring, d)).value)

    def describe(along, f, g, x):
        return True, " ".join(str(along(P, x)) for P in (f.source, f.target, g.target))

    probe = dataclasses.replace(side, exact=lambda f, g, c: describe(along_c, f, g, c))

    def check(seq, m, d):
        incl, proj = verify._ses_maps(seq.sub)
        M = canonical_presentation(m)
        return describe(along_d, side.postcompose(M, incl), side.postcompose(M, proj), d)

    shape = verify._exactness(probe)
    notes = set()
    for grid in small_grids():
        ctx = verify._make_ctx(grid)
        pairs = list(shape["generate"](ctx))
        assert pairs == list(verify._walk(shape["loops"], check, ctx)), grid.name()
        notes |= {note for _, (_, note) in pairs}
    assert len(notes) > 1


@pytest.mark.parametrize("side", [verify._RED, verify._COR])
def test_exactness_checks_each_sequence_module_and_c_once(side):
    calls = []

    def counted(*args):
        calls.append(args)
        return side.exact(*args)

    generate = verify._exactness(dataclasses.replace(side, exact=counted))["generate"]
    instances = sum(1 for grid in small_grids() for _ in generate(verify._make_ctx(grid)))
    assert (instances, len(calls)) == (150 + 129 + 112, 240)
