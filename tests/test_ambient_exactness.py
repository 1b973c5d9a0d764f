"""The exactness claims ask kernels and images in the ambient modules, and
the maps the library builds itself skip certification.

`verify._gamma_exact` and `verify._lambda_exact` must give the same
(ok, note) as the restricted-map route in `exactness_reference`: on every
instance the small golden grid checks, and on seeded random non-diagonal
short exact sequences over Z, Z/6 and Z/8.  The random cases also pair a
multiplication map with a projection, a sequence that is not exact, so the
failing branches and their notes are compared too.  Every map the trusted
constructor builds on the small grid must pass the public certification.
"""

import json
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
    canonical_presentation,
    kernel_submodule,
    mult_map,
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


def cases(seed: int, count: int):
    """(ring, M, first map, second map): a short exact sequence, then the
    non-exact Y --c--> Y -> Y/X on the same Y."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = rng.choice(RINGS)
        M = random_coker(rng, ring, max_gens=2)
        sub = random_submodule(rng, random_coker(rng, ring))
        incl, proj = sequence_maps(sub)
        yield ring, M, incl, proj
        yield ring, M, mult_map(sub.ambient, rng.randint(0, 3)), proj


def outcome(check, *args):
    try:
        return check(*args)
    except FgmodError as exc:
        return type(exc).__name__


def test_exactness_checks_match_the_restriction_route_on_the_small_grid():
    checked = 0
    for claim_id, side, new, reference in (
        ("gamma-left-exact", verify._RED, verify._gamma_exact, gamma_exact_by_restriction),
        ("lambda-right-exact", verify._COR, verify._lambda_exact, lambda_exact_by_quotients),
    ):
        assert side.exact is new

        def check(seq, m, a):
            incl, proj = verify._ses_maps(seq.sub)
            M = canonical_presentation(m)
            maps = side.postcompose(M, incl), side.postcompose(M, proj)
            return new(*maps, a), reference(*maps, a)

        for grid in small_grids():
            for values, (got, want) in verify._walk(verify._BY_ID[claim_id].loops, check, verify._make_ctx(grid)):
                assert got == want, (claim_id, grid.label, values)
                checked += 1
    # the golden report's instance counts of both claims on the three grids
    assert checked == 2 * (150 + 129 + 112)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exactness_checks_match_the_restriction_route_on_random_sequences(seed):
    outcomes = {"gamma": set(), "lambda": set()}
    for ring, M, f, g in cases(seed, 20):
        for a in (principal(ring, d) for d in (0, 2, 3, 4)):
            hi, hp = hom_postcompose(M, f), hom_postcompose(M, g)
            new = outcome(verify._gamma_exact, hi, hp, a)
            assert new == outcome(gamma_exact_by_restriction, hi, hp, a), (ring, M, f, a)
            outcomes["gamma"].add(new if isinstance(new, str) else new[0])
            ti, tp = tensor_postcompose(M, f), tensor_postcompose(M, g)
            new = outcome(verify._lambda_exact, ti, tp, a)
            assert new == outcome(lambda_exact_by_quotients, ti, tp, a), (ring, M, f, a)
            outcomes["lambda"].add(new if isinstance(new, str) else new[0])
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
