"""The exactness claims induce their maps on cyclic summands and answer by
orders, and the harness builds no `ModuleMap`.

Each sequence of the harness carries its inclusion and projection as
integer matrices on the cyclic summands of its canonical forms; on every
sequence of the default grids they must certify through the public
`ModuleMap` and form an exact sequence.  `cyclic.hom_postcompose` and
`cyclic.tensor_postcompose` induce a map between canonical forms summand
pair by summand pair; on seeded random maps, free summands included, they
must agree with the presentation route of `functors` up to isomorphism of
kernel, image and cokernel, and respect composition.

The claims read two-argument torsion and completion at their stable term:
every module they build, Hom(M, T) or M (x) T for a term T, is killed by the
exponent E of the middle term, so along (d) its torsion (completion) is
Hom(Q, T) (Q (x) T) for Q the completion of M/EM along (d).  That identity is
tested on every sequence and M of the small golden grid and of the three
default grids, in the class or not, free M = Z included, for d from -4 to 8.
On in-class sequences a wrong Q can still give the right verdicts, so the
grid comparisons alone would not show it.  The claims must report what the
restricted-map route of `exactness_reference` gives along the ideal (d) on
the maps of the presentation route on M itself: on every instance of the
small golden grid and of the three default grids, and on seeded random
sequences of finite modules over Z, Z/6 and Z/8.  The random cases also
scale the inclusion or the projection by k, complexes that need not be
exact, so the failing branches and their notes are compared too.  The checks
compare orders, which decides exactness only on a complex: every induced
pair on Q that the claims walk on the default grids must compose to 0.  A
suite run on the small grid must build no `ModuleMap`, trusted or certified.

Over Z and Z/n, the torsion submodule along (d) of a module killed by E is
the kernel of c = gcd(d^K, E) for K >= log2 E, and the stable quotient is
N/cN; that is tested here on seeded random finite modules killed by E.

The induced maps are block diagonal over the cyclic summands of Q, so the
harness decides the pair once per (sequence, summand order) and builds its
two maps there, and none for Q = 0.  On every (side, sequence, Q) the
default grids reach, and on those pairs with the inclusion or projection
scaled, the decision and its note must be those of the order route on all
of Q (`exactness_reference.exact_on_whole_q`), and the memoized claims must
yield the same (values, result) pairs as the walk that checks every
instance on that route.
"""

import json
import math
import operator
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from exactness_reference import (
    gamma_exact_by_restriction,
    lambda_exact_by_quotients,
    reference_comparisons,
    sequence_submodule,
    exact_on_whole_q,
    ses_maps,
    walk_listing,
)

import fgmod
from fgmod import adic, cyclic, functors, modules, verify
from fgmod.errors import FgmodError
from fgmod.functors import hom_postcompose, tensor_postcompose
from fgmod.linalg import MatrixR
from fgmod.modules import (
    CanonicalForm,
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
SIDES = (
    (verify._RED, hom_postcompose, gamma_exact_by_restriction),
    (verify._COR, tensor_postcompose, lambda_exact_by_quotients),
)


def small_grids():
    return [verify.grid_from_dict(d) for d in json.loads(GRID.read_text())]


def default_grids(*labels):
    return [g for g in verify.default_grids() if g.label in labels]


def random_generators(rng: random.Random, y: CanonicalForm) -> tuple[tuple[int, ...], ...]:
    """Up to two random vectors of coordinates on the cyclic summands of a
    finite Y."""
    return tuple(tuple(rng.randint(-4, 4) for _ in y.torsion_factors) for _ in range(rng.randint(0, 2)))


def random_form(rng: random.Random, ring: RingSpec, finite: bool = False) -> CanonicalForm:
    """A canonical form of up to three summands, with a free one over Z
    unless `finite`."""
    n = ring.modulus
    orders = [o for o in (2, 3, 4, 6, 8, 12) if n is None or n % o == 0]
    parts = [Presentation.cyclic(ring, rng.choice(orders)) for _ in range(rng.randint(0, 2))]
    if not finite and n is None:
        parts.append(Presentation.free(ring, rng.randint(0, 1)))
    return canonical_form(modules.direct_sum(ring, parts))


def outcome(check, *args):
    try:
        return check(*args)
    except FgmodError as exc:
        return type(exc).__name__


def diagonal(ring: RingSpec, orders) -> Presentation:
    return Presentation(ring, len(orders), MatrixR.diagonal(ring, orders))


def on_presentations(ring: RingSpec, f) -> ModuleMap:
    """A map of summand orders and an integer matrix, between the diagonal
    presentations over the ring, certified by the public constructor."""
    source, target, rows = f
    return ModuleMap(diagonal(ring, source), diagonal(ring, target), MatrixR(ring, len(target), len(source), rows))


def test_exactness_checks_match_the_restriction_route_on_the_small_grid():
    checked = 0
    for where, (got, want) in reference_comparisons(small_grids()):
        assert got == want, where
        checked += 1
    # the golden report's instance counts of both claims on the three grids
    assert checked == 2 * (150 + 129 + 112)


def test_exactness_checks_match_the_restriction_route_on_the_default_modular_grids():
    checked = 0
    for where, (got, want) in reference_comparisons(default_grids("Z", "Z/6", "Z/8")):
        assert got == want, where
        checked += 1
    # the default report's instance counts of both claims on Z, Z/6 and Z/8;
    # only the Z grid has the free M = Z
    assert checked == 2 * (1406 + 480 + 609)


def assert_exact_on_summands(seq):
    """The forms of X and Z are those of the presentation route, and the
    integer inclusion and projection certify between the canonical
    presentations and make an exact sequence."""
    ring, ambient, sub = seq.y.ring, canonical_presentation(seq.y), sequence_submodule(seq)
    assert seq.x == canonical_form(sub.to_presentation()), seq
    assert seq.z == canonical_form(quotient_by_submodule(ambient, sub)), seq
    X, Z = canonical_presentation(seq.x), canonical_presentation(seq.z)
    # raise ValueError on a map that is not well defined
    incl = ModuleMap(X, ambient, MatrixR(ring, ambient.gens, X.gens, seq.incl))
    proj = ModuleMap(ambient, Z, MatrixR(ring, Z.gens, ambient.gens, seq.proj))
    assert kernel_submodule(incl).is_zero(), seq
    assert submodule_equal(incl.image(), kernel_submodule(proj)), seq
    assert proj.image().contains(Submodule(Z, MatrixR.identity(ring, Z.gens))), seq


def test_sequences_of_the_default_grids_certify_and_are_exact():
    seqs = [seq for grid in default_grids("Z", "Z/6", "Z/8") for seq in verify._sequences(verify._make_ctx(grid), 0)]
    for seq in seqs:
        assert_exact_on_summands(seq)
    # the sequences of every finite Y with at most 8 elements on the three grids
    assert len(seqs) == 118


def test_sequence_fields_hash_without_python_frames():
    # _exact_on is keyed on the sequence: every field is an int, a tuple
    # of them or an interned form, so its hash runs no Python code
    def plain(value) -> bool:
        if type(value) is tuple:
            return all(map(plain, value))
        return type(value) is int or type(value) is CanonicalForm

    seqs = [seq for grid in default_grids("Z", "Z/6", "Z/8") for seq in verify._sequences(verify._make_ctx(grid), 0)]
    assert seqs and all(plain(field) for seq in seqs for field in seq), [s for s in seqs if not all(map(plain, s))][:1]
    assert verify._Seq._fields == ("y", "x", "z", "incl", "proj")


def random_map(rng: random.Random, A: CanonicalForm, B: CanonicalForm):
    """A random well-defined map A -> B on the cyclic summands: each entry
    a multiple of the generator of Hom(Z/a, Z/b)."""
    return tuple(
        tuple(rng.randint(-3, 3) * cyclic._hom_generator(a, b) if cyclic._hom_order(a, b) != 1 else 0
              for a in cyclic._orders(A))
        for b in cyclic._orders(B)
    )


def subquotients(f: ModuleMap) -> tuple[CanonicalForm, ...]:
    image = f.image()
    return (
        canonical_form(f.source),
        canonical_form(f.target),
        canonical_form(kernel_submodule(f).to_presentation()),
        canonical_form(image.to_presentation()),
        canonical_form(quotient_by_submodule(f.target, image)),
    )


def integer_matrix(rows, cols: int) -> MatrixR:
    return MatrixR(ZZ, len(rows), cols, tuple(rows))


def reduced(rows, orders):
    return tuple(tuple(v % h if h else v for v in row) for row, h in zip(rows, orders))


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_summand_maps_match_the_presentation_route(seed):
    rng = random.Random(seed)
    for ring in (ZZ, RingSpec.mod(6), RingSpec.mod(8), RingSpec.mod(12)):
        for _ in range(12):
            M, A, B = (random_form(rng, ring) for _ in range(3))
            F = random_map(rng, A, B)
            Mp = canonical_presentation(M)
            Ap, Bp = canonical_presentation(A), canonical_presentation(B)
            f = ModuleMap(Ap, Bp, MatrixR(ring, Bp.gens, Ap.gens, F))
            for summands, presented, functor in (
                (cyclic.hom_postcompose, hom_postcompose, cyclic.hom),
                (cyclic.tensor_postcompose, tensor_postcompose, cyclic.tensor),
            ):
                g = summands(M, A, B, F)
                want = subquotients(presented(Mp, f))
                assert subquotients(on_presentations(ring, g)) == want, (ring, M, A, B, F, summands)
                assert want[:2] == (functor(M, A), functor(M, B))


@pytest.mark.parametrize("seed", [14, 15])
def test_summand_maps_respect_composition(seed):
    rng = random.Random(seed)
    for ring in (ZZ, RingSpec.mod(6), RingSpec.mod(8), RingSpec.mod(12)):
        for _ in range(12):
            M, A, B, C = (random_form(rng, ring) for _ in range(4))
            F, G = random_map(rng, A, B), random_map(rng, B, C)
            GF = (integer_matrix(G, len(F)) @ integer_matrix(F, len(cyclic._orders(A)))).entries
            for summands in (cyclic.hom_postcompose, cyclic.tensor_postcompose):
                first, second, whole = summands(M, A, B, F), summands(M, B, C, G), summands(M, A, C, GF)
                assert first[1] == second[0]
                product = integer_matrix(second[2], len(second[0])) @ integer_matrix(first[2], len(first[0]))
                assert reduced(product.entries, whole[1]) == whole[2], (ring, M, A, B, C, summands)


def finite_sequences(seed: int, count: int):
    """(ring, Y's form, the sequence, the factor of a multiplication on Y),
    for a random submodule of a random finite canonical Y."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = rng.choice(RINGS)
        y = random_form(rng, ring, finite=True)
        seq = verify._sequence(y, random_generators(rng, y))
        yield ring, random_form(rng, ring), seq, rng.randint(0, 3)


def scaled(f: ModuleMap, k: int) -> ModuleMap:
    return ModuleMap(f.source, f.target, f.matrix.scale(k))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exactness_checks_match_the_restriction_route_on_random_sequences(seed):
    # each sequence, on random generators of X, then the complexes
    # X --k·i--> Y --p--> Y/X and X --i--> Y --k·p--> Y/X, which need not
    # be exact: the order route assumes a complex, and these are
    outcomes = {side: set() for side, *_ in SIDES}
    for ring, m, seq, k in finite_sequences(seed, 20):
        assert_exact_on_summands(seq)
        incl, proj = ses_maps(sequence_submodule(seq))
        k_incl, k_proj = (tuple(tuple(k * v for v in row) for row in F) for F in (seq.incl, seq.proj))
        M = canonical_presentation(m)
        for (fi, fp), presented_pair in (
            ((seq.incl, seq.proj), (incl, proj)),
            ((k_incl, seq.proj), (scaled(incl, k), proj)),
            ((seq.incl, k_proj), (incl, scaled(proj, k))),
        ):
            pair = seq._replace(incl=fi, proj=fp)
            for side, presented, reference in SIDES:
                maps = [presented(M, f) for f in presented_pair]
                for d in (0, 2, 3, 4):
                    q = stable_quotient(seq, m, d)
                    got = outcome(verify._exact_on, side, pair, q)
                    assert got == outcome(reference, *maps, principal(ring, d)), (ring, m, seq, k, d)
                    outcomes[side].add(got)
    # the passing branch and both failing notes of each check ran
    red, cor = (outcomes[side] for side, *_ in SIDES)
    assert {True, (False, "injective=False, exact=False"), (False, "injective=True, exact=False")} <= red
    assert {True, (False, "surjective=False, exact=False"), (False, "surjective=True, exact=False")} <= cor


def test_every_trusted_map_on_the_small_grid_certifies(monkeypatch):
    # the exactness pair compares orders on summand maps, so the suite builds
    # no ModuleMap at all, through the trusted or the certifying constructor
    built = []
    trusted, init = ModuleMap._trusted.__func__, ModuleMap.__init__

    def recorded_trusted(cls, *args):
        built.append(sys._getframe(1).f_code.co_name)
        return trusted(cls, *args)

    def recorded_init(self, *args):
        built.append(sys._getframe(1).f_code.co_name)
        init(self, *args)

    monkeypatch.setattr(ModuleMap, "_trusted", classmethod(recorded_trusted))
    monkeypatch.setattr(ModuleMap, "__init__", recorded_init)
    fgmod.clear_caches()
    assert verify.run_suite(small_grids()).all_expected
    assert built == []
    # both constructors are recorded
    Z4 = Presentation.cyclic(ZZ, 4)
    ModuleMap(Z4, Z4, mult_map(Z4, 2).matrix)
    assert built == ["mult_map", "test_every_trusted_map_on_the_small_grid_certifies"]


def test_exactness_claims_call_nothing_of_the_presentation_route(monkeypatch):
    called = []

    def recording(module, name):
        original = getattr(module, name)

        def recorded(*args):
            called.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, recorded)

    for module, name in ((functors, "hom_data"), (functors, "hom_postcompose"), (functors, "tensor_postcompose"),
                         (functors, "express_in_span"), (modules, "express_in_span")):
        recording(module, name)
    fgmod.clear_caches()
    assert verify.run_suite(small_grids(), ["gamma-left-exact", "lambda-right-exact"]).all_expected
    assert called == []


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


def stable_quotient(seq, m, d):
    """Q: the completion along (d) of M/EM, E the exponent of Y."""
    e = seq.y.torsion_factors[-1] if seq.y.torsion_factors else 1
    return cyclic.completion(cyclic.quotient(m, e), d)[0]


def test_torsion_and_completion_of_the_built_modules_are_read_on_q():
    # on every sequence and M of the grids, in the class or not, free M = Z
    # included: the torsion of Hom(M, T) and the completion of M (x) T along
    # (d) are Hom(Q, T) and Q (x) T for each term T
    cases = 0
    for grid in small_grids() + default_grids("Z", "Z/6", "Z/8"):
        ctx = verify._make_ctx(grid)
        for seq in verify._sequences(ctx, 0):
            for m in ctx.tiny:
                for d in range(-4, 9):
                    q = stable_quotient(seq, m, d)
                    for t in (seq.x, seq.y, seq.z):
                        assert cyclic.torsion(cyclic.hom(m, t), d)[0] == cyclic.hom(q, t), (grid.label, seq, m, d)
                        assert cyclic.completion(cyclic.tensor(m, t), d)[0] == cyclic.tensor(q, t), (grid.label, seq, m, d)
                        cases += 1
    # 748 (sequence, M) pairs, 13 ideals and 3 terms
    assert cases == 29172


EXACTNESS = [("gamma-left-exact", verify._RED), ("lambda-right-exact", verify._COR)]


def induced(side, seq, q):
    return side.postcompose(q, seq.x, seq.y, seq.incl), side.postcompose(q, seq.y, seq.z, seq.proj)


@pytest.mark.parametrize("claim_id, side", EXACTNESS)
def test_every_pair_the_claims_walk_is_a_complex(claim_id, side):
    # the checks compare orders, |ker| against |im|, which decides exactness
    # only where the image of the first map lies in the kernel of the second:
    # the summand matrix of hp·hi (tp·ti) must be 0 modulo its target orders
    cdef = verify._BY_ID[claim_id]
    pairs = 0
    for grid in default_grids("Z", "Z/6", "Z/8"):
        ctx = verify._make_ctx(grid)
        instances = walk_listing(cdef.loops, verify._each(lambda *_: True), ctx)
        walked = dict.fromkeys((seq, stable_quotient(seq, m, d)) for (seq, m, d), _ in instances)
        for seq, q in walked:
            first, second = induced(side, seq, q)
            product = integer_matrix(second[2], len(second[0])) @ integer_matrix(first[2], len(first[0]))
            assert not any(map(any, reduced(product.entries, second[1]))), (grid.label, seq, q)
        pairs += len(walked)
    # the distinct (sequence, Q) of 1,406 + 480 + 609 instances
    assert pairs == 386


def unmemoized(side):
    def check(seq, m, d):
        return exact_on_whole_q(side, seq, stable_quotient(seq, m, d))

    return check


@pytest.mark.parametrize("claim_id, side", EXACTNESS)
def test_memoized_exactness_yields_every_instance_of_the_unmemoized_walk(claim_id, side):
    cdef = verify._BY_ID[claim_id]
    for grid in small_grids() + default_grids("Z/6", "Z/8"):
        ctx = verify._make_ctx(grid)
        memoized = walk_listing(cdef.loops, cdef.check, ctx)
        assert memoized == walk_listing(cdef.loops, verify._each(unmemoized(side)), ctx), grid.name()


def reached(claim_id, grids):
    """The (sequence, Q) of every instance the claim walks on the grids."""
    cdef = verify._BY_ID[claim_id]
    pairs = {}
    for grid in grids:
        for (seq, m, d), _ in walk_listing(cdef.loops, verify._each(lambda *_: True), verify._make_ctx(grid)):
            pairs[seq, stable_quotient(seq, m, d)] = None
    return list(pairs)


def scaled_pairs(seq, k):
    # X --k·i--> Y --p--> Z and X --i--> Y --k·p--> Z are complexes too
    return [seq._replace(incl=tuple(tuple(k * v for v in row) for row in seq.incl)),
            seq._replace(proj=tuple(tuple(k * v for v in row) for row in seq.proj))]


def test_per_summand_exactness_decides_as_the_whole_q_route_on_the_default_grids():
    # every (side, sequence, Q) the default grids reach, where the claims
    # hold, and the same pairs scaled by 2 and 3, where some fail, so that
    # the notes are compared too
    triples = [(side, seq, q) for claim_id, side in EXACTNESS
               for seq, q in reached(claim_id, default_grids("Z", "Z/6", "Z/8"))]
    assert len(triples) == 772
    notes = set()
    for side, seq, q in triples:
        for pair in [seq] + scaled_pairs(seq, 2) + scaled_pairs(seq, 3):
            got = verify._exact_on(side, pair, q)
            assert got == exact_on_whole_q(side, pair, q), (side.end, pair, q)
            notes.add(got)
    assert notes == {True} | {(False, f"{end}={at_end}, exact=False") for end in ("injective", "surjective")
                              for at_end in (True, False)}


@pytest.mark.parametrize("seed", [21, 22])
def test_per_summand_exactness_decides_as_the_whole_q_route_on_random_complexes(seed):
    # any complex X -> Y -> Z of finite forms, not only a scaled sequence,
    # read on a random Q of two summands: on some of them the answer on Q's
    # larger summand alone differs from the answer on all of Q
    rng = random.Random(seed)
    differs = 0
    for ring in (ZZ, RingSpec.mod(12)):
        complexes = 0
        while complexes < 150:
            x, y, z = (random_form(rng, ring, finite=True) for _ in range(3))
            q = cyclic._form(ring, [rng.choice((2, 3, 4, 6, 12)) for _ in range(2)])
            F, G = random_map(rng, x, y), random_map(rng, y, z)
            if any(sum(map(operator.mul, row, col)) % h for row, h in zip(G, z.torsion_factors) for col in zip(*F)):
                continue
            complexes += 1
            seq = verify._Seq(y, x, z, F, G)
            for side in (verify._RED, verify._COR):
                got = verify._exact_on(side, seq, q)
                assert got == exact_on_whole_q(side, seq, q), (ring, seq, q, side.end)
                differs += got != exact_on_whole_q(side, seq, CanonicalForm(ring, q.torsion_factors[-1:], 0))
    assert differs


@pytest.mark.parametrize("side", [verify._RED, verify._COR])
def test_the_memo_key_tells_apart_instances_whose_values_differ(side):
    # both claims hold, so their results cannot show a key that merges too
    # much.  The probe side keeps each map it induces on a summand Z/o of Q
    # for a key (sequence, o); summed over Q's summands, the orders of the
    # maps under an instance's keys must give the torsion (completion) of
    # each term, read along (d) on the presentation route
    def along_d(P, d):
        limit = adic.torsion if side is verify._RED else adic.completion
        return canonical_form(limit(P, principal(P.ring, d)).value)

    built = {}

    def kept(*args):
        built[args] = side.postcompose(*args)
        return built[args]

    # a copy of the side is a new key of the memo, which then builds its maps
    shape = verify._exactness(side._replace(postcompose=kept))
    presented = hom_postcompose if side is verify._RED else tensor_postcompose
    compared = 0
    for grid in small_grids():
        for (seq, m, d), result in walk_listing(shape["loops"], shape["check"], verify._make_ctx(grid)):
            assert result is True
            zs = [CanonicalForm(m.ring, (o,), 0) for o in stable_quotient(seq, m, d).torsion_factors]
            f = [built[z, seq.x, seq.y, seq.incl] for z in zs]
            g = [built[z, seq.y, seq.z, seq.proj] for z in zs]
            # the sources of the first maps, their targets and the targets of the second
            on_q = [cyclic._form(m.ring, [h for h_map in maps for h in h_map[t]]) for maps, t in ((f, 0), (f, 1), (g, 1))]
            M = canonical_presentation(m)
            want = [presented(M, h) for h in ses_maps(sequence_submodule(seq))]
            assert on_q == [along_d(P, d) for P in (want[0].source, want[0].target, want[1].target)], (seq, m, d)
            compared += 1
    assert compared == 150 + 129 + 112


def old_c(seq, m, d):
    """The integer c the checks once computed along: gcd(d^K, e), e the
    exponent of Y, or its gcd with the exponent of M when M is finite."""
    e = seq.y.torsion_factors[-1] if seq.y.torsion_factors else 1
    if m.free_rank == 0:
        e = math.gcd(e, m.torsion_factors[-1] if m.torsion_factors else 1)
    return math.gcd(d ** e.bit_length(), e)


@pytest.mark.parametrize("side", [verify._RED, verify._COR])
def test_exactness_checks_each_sequence_module_and_c_once(side):
    calls = []

    def counted(*args):
        calls.append(args)
        return side.postcompose(*args)

    # a copy of the side is a new key of the memo, so every check is asked
    shape = verify._exactness(side._replace(postcompose=counted))
    instances = 0
    triples, pairs, keys = set(), set(), set()
    for grid in small_grids():
        listing = walk_listing(shape["loops"], shape["check"], verify._make_ctx(grid))
        instances += len(listing)
        for (seq, m, d), _ in listing:
            q = stable_quotient(seq, m, d)
            triples.add((seq, m, old_c(seq, m, d), q))
            pairs.add((seq, q))
            keys.update((seq, o) for o in q.torsion_factors)
    # Q = M/cM, so (sequence, M, c) fixes (sequence, Q): the 240 distinct
    # (sequence, M, c) give 114 (sequence, Q), and their Q have 45 distinct
    # (sequence, summand order), each decided once, on its two maps
    assert len({t[:3] for t in triples}) == len(triples) == 240
    assert (instances, len(pairs), len(keys), len(calls)) == (150 + 129 + 112, 114, 45, 2 * 45)


@pytest.mark.parametrize("side", [verify._RED, verify._COR])
def test_no_map_is_built_where_every_ideal_gives_c_1(side):
    built = []

    def counted(*args):
        built.append(args)
        return side.postcompose(*args)

    shape = verify._exactness(side._replace(postcompose=counted))
    keys = set()
    qs: dict = {}
    for grid in small_grids():
        listing = walk_listing(shape["loops"], shape["check"], verify._make_ctx(grid))
        for (seq, m, d), _ in listing:
            q = stable_quotient(seq, m, d)
            # c = 1 exactly where Q = M/cM is the zero module
            assert (old_c(seq, m, d) == 1) == (q.torsion_factors == () and q.free_rank == 0), (seq, m, d)
            keys.update((seq, CanonicalForm(q.ring, (o,), 0)) for o in q.torsion_factors)
            qs.setdefault((seq, m), set()).add(q)
    # the two maps once for each distinct (sequence, summand Z/o of Q), and
    # none on Q = 0, which has no summand
    want = [args for seq, z in keys for args in ((z, seq.x, seq.y, seq.incl), (z, seq.y, seq.z, seq.proj))]
    assert Counter(built) == Counter(want)
    assert all(len(args[0].torsion_factors) == 1 for args in built)
    # of the 178 (sequence, M) pairs the claim walks, 76 give c = 1 for every
    # ideal: their only Q is 0, so no map is built for them at all
    only_zero = [pair for pair, seen in qs.items() if all(q.free_rank == 0 and not q.torsion_factors for q in seen)]
    assert (len(only_zero), len(qs)) == (76, 178)
